#!/usr/bin/env python3
"""Parallel bench driver: run the whole figure battery, aggregate reports.

Discovers every fig*/ext_*/table* binary (plus selfbench_engine with
--selfbench) under <builddir>/bench, runs them concurrently — each bench
is a self-contained process writing BENCH_<name>.json via
RDMASEM_BENCH_OUT, so process-level parallelism is safe — validates every
report with check_bench_json, and folds them into one BENCH_ALL.json:

  {
    "schema": "rdmasem-bench-all-v1",
    "trajectory": {... one-row summary of the whole battery ...},
    "benches": { "<name>": <the full rdmasem-bench-v1 report>, ... }
  }

The trajectory row is the number CI and humans track across commits:
bench count, total sweep points, total table rows, and battery wall time.
It prints as a single line, e.g.

  trajectory: 22 benches ok, 0 failed, 214 points, 131 rows, 418.2s wall

The trajectory also carries a "shard_scaling" row: the representative
shuffle bench re-run at RDMASEM_SHARDS=1/2/4/8, recording per-shard wall
seconds and asserting the report JSON is byte-identical at every shard
count (the determinism contract). Skip it with --no-shard-scaling.

Alongside the byte-compare runs, one extra PROFILED shard-4 run (kept out
of the byte-identity set: profiling adds host-time sections to the
report) supplies the engine-health numbers — shard-4 events_per_epoch and
barrier-park share — and the whole row is appended in a committed format
(schema rdmasem-trajectory-v1, one JSON object per line) to
bench/trajectory.jsonl, so the battery accumulates a perf history across
PRs instead of overwriting it. Point --trajectory-file elsewhere or at ""
to disable. The accumulated history is mirrored into BENCH_ALL.json under
"trajectory_history".

Each row also records two design-quality numbers read from the source
tree: src_lines (lines of src/**/*.cpp and *.hpp) and env_knobs (distinct
RDMASEM_* names passed to util::env_* in src/). Both should only go down.

Shrink knobs: the benches honour the same env as scripts/bench_smoke.cmake
(RDMASEM_SHUFFLE_ENTRIES etc.), and RDMASEM_SHARDS applies to every child,
so `RDMASEM_SHARDS=4 scripts/run_all_benches.py build` runs the battery on
the parallel engine — reports are byte-identical either way (the
determinism contract; docs/PERF.md).

Stdlib only. Exit 0 = all benches ran and validated, 1 otherwise.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_json  # noqa: E402  (sibling module, stdlib-only)

PREFIXES = ("fig", "ext_", "table")

SCALING_BENCH = "fig15_shuffle"
SCALING_SHARDS = (1, 2, 4, 8)

TRAJECTORY_SCHEMA = "rdmasem-trajectory-v1"
DEFAULT_TRAJECTORY = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "bench",
    "trajectory.jsonl")
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
ENV_KNOB = re.compile(r'\benv_\w+\(\s*"(RDMASEM_[A-Z0-9_]+)"')


def design_quality(src_dir=SRC_DIR):
    """Line count of src/**/*.{cpp,hpp} and the distinct RDMASEM_* names
    the library reads through util::env_*."""
    lines, knobs = 0, set()
    for root, _, files in os.walk(src_dir):
        for name in files:
            if not name.endswith((".cpp", ".hpp")):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as f:
                text = f.read()
            lines += text.count("\n")
            knobs.update(ENV_KNOB.findall(text))
    return {"src_lines": lines, "env_knobs": len(knobs)}


def engine_health(report_path):
    """Shard-4 engine health from a profiled bench report: aggregate
    events-per-epoch and barrier-park share of wall. -> dict or None."""
    try:
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError):
        return None
    ep = report.get("engine_profile")
    if not isinstance(ep, dict):
        return None
    for g in ep.get("groups", []):
        if g.get("shards") != 4:
            continue
        rows = g.get("rows", [])
        epochs = sum(int(r.get("epochs", 0)) for r in rows)
        events = sum(int(r.get("events", 0)) for r in rows)
        park = sum(int(r.get("barrier_park_ns", 0)) for r in rows)
        wall = sum(int(r.get("wall_ns", 0)) for r in rows)
        return {
            "events_per_epoch": round(events / epochs, 3) if epochs else 0.0,
            "park_share": round(park / wall, 4) if wall else 0.0,
            "fused_epochs": sum(int(r.get("fused_epochs", 0)) for r in rows),
            "resplit_epochs": sum(int(r.get("resplit_epochs", 0))
                                  for r in rows),
        }
    return None


def discover(bench_dir, with_selfbench):
    names = []
    for entry in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, entry)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        if entry.startswith(PREFIXES) or (with_selfbench and
                                          entry == "selfbench_engine"):
            names.append(entry)
    return names


def run_one(bench_dir, out_dir, name, timeout):
    """-> (name, report_path | None, error | None, seconds)"""
    t0 = time.monotonic()
    env = dict(os.environ, RDMASEM_BENCH_OUT=out_dir)
    try:
        proc = subprocess.run(
            [os.path.join(bench_dir, name)], env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return name, None, f"timed out after {timeout}s", time.monotonic() - t0
    sec = time.monotonic() - t0
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-10:])
        return name, None, f"exit {proc.returncode}:\n{tail}", sec
    report = os.path.join(out_dir, f"BENCH_{name}.json")
    if not os.path.exists(report):
        return name, None, "wrote no BENCH json", sec
    return name, report, None, sec


def shard_scaling(bench_dir, out_dir, timeout):
    """Run the representative shuffle bench at each shard count.

    Returns the trajectory row: per-shard wall seconds plus the
    byte-identity verdict — the report JSON must not depend on the shard
    count, so each run's report is compared byte-for-byte against the
    serial one. Wall seconds are machine-dependent and informational;
    byte identity is the pass/fail signal.
    """
    binary = os.path.join(bench_dir, SCALING_BENCH)
    if not (os.path.isfile(binary) and os.access(binary, os.X_OK)):
        return {"bench": SCALING_BENCH, "status": "missing-binary",
                "byte_identical": False}
    row = {"bench": SCALING_BENCH, "status": "ok",
           "shards": list(SCALING_SHARDS), "wall_seconds": {},
           "byte_identical": True}
    baseline = None
    for shards in SCALING_SHARDS:
        sub = os.path.join(out_dir, f"shards{shards}")
        os.makedirs(sub, exist_ok=True)
        env = dict(os.environ, RDMASEM_BENCH_OUT=sub,
                   RDMASEM_SHARDS=str(shards))
        t0 = time.monotonic()
        try:
            proc = subprocess.run([binary], env=env, timeout=timeout,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:
            row["status"] = f"shards={shards} timed out after {timeout}s"
            return row
        row["wall_seconds"][str(shards)] = round(time.monotonic() - t0, 1)
        if proc.returncode != 0:
            row["status"] = f"shards={shards} exit {proc.returncode}"
            return row
        report = os.path.join(sub, f"BENCH_{SCALING_BENCH}.json")
        try:
            with open(report, "rb") as f:
                blob = f.read()
        except OSError as e:
            row["status"] = f"shards={shards}: {e}"
            return row
        if baseline is None:
            baseline = blob
        elif blob != baseline:
            row["byte_identical"] = False
            row["status"] = f"shards={shards} report differs from serial"
    # One extra PROFILED shard-4 run for the trajectory's engine-health
    # numbers. Deliberately outside the byte-compare set: RDMASEM_PROF=1
    # adds host-time report sections, which are allowed to differ.
    sub = os.path.join(out_dir, "shards4-prof")
    os.makedirs(sub, exist_ok=True)
    env = dict(os.environ, RDMASEM_BENCH_OUT=sub, RDMASEM_SHARDS="4",
               RDMASEM_PROF="1")
    try:
        proc = subprocess.run([binary], env=env, timeout=timeout,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode == 0:
            row["engine_health"] = engine_health(
                os.path.join(sub, f"BENCH_{SCALING_BENCH}.json"))
    except subprocess.TimeoutExpired:
        pass  # health numbers are advisory; the battery verdict stands
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("builddir", nargs="?", default="build",
                    help="cmake build tree containing bench/ (default: build)")
    ap.add_argument("--out", default=None,
                    help="report directory (default: <builddir>/bench-all)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="concurrent bench processes (default: host cores)")
    ap.add_argument("--timeout", type=float, default=1800,
                    help="per-bench timeout in seconds (default: 1800)")
    ap.add_argument("--selfbench", action="store_true",
                    help="include selfbench_engine (wall-clock bench; noisy "
                         "when run concurrently with the battery)")
    ap.add_argument("--no-shard-scaling", action="store_true",
                    help="skip the shards=1/2/4/8 scaling + byte-identity "
                         "re-runs of " + SCALING_BENCH)
    ap.add_argument("--trajectory-file", default=DEFAULT_TRAJECTORY,
                    help="committed perf-history file to append this run's "
                         "trajectory row to (JSONL; \"\" disables; default: "
                         "bench/trajectory.jsonl)")
    args = ap.parse_args()

    bench_dir = os.path.join(args.builddir, "bench")
    if not os.path.isdir(bench_dir):
        print(f"run_all_benches: no such directory: {bench_dir}",
              file=sys.stderr)
        return 2
    out_dir = os.path.abspath(args.out or
                              os.path.join(args.builddir, "bench-all"))
    os.makedirs(out_dir, exist_ok=True)

    names = discover(bench_dir, args.selfbench)
    if not names:
        print(f"run_all_benches: no bench binaries in {bench_dir} "
              "(build them first)", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    results = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_one, bench_dir, out_dir, n, args.timeout)
                   for n in names]
        for fut in concurrent.futures.as_completed(futures):
            name, report, err, sec = fut.result()
            status = "ok" if err is None else "FAIL"
            print(f"run_all_benches: {name}: {status} ({sec:.1f}s)")
            if err is not None:
                print(f"  {err}", file=sys.stderr)
            results.append((name, report, err))
    wall = time.monotonic() - t0

    benches, failed = {}, []
    points = rows = 0
    for name, report, err in sorted(results):
        if err is not None:
            failed.append(name)
            continue
        try:
            check_bench_json.check_report(report)
        except SystemExit as e:
            print(f"run_all_benches: {name}: invalid report: {e}",
                  file=sys.stderr)
            failed.append(name)
            continue
        with open(report, encoding="utf-8") as f:
            benches[name] = json.load(f)
        points += len(benches[name].get("points", []))
        rows += len(benches[name]["table"].get("rows", []))

    scaling = None
    if not args.no_shard_scaling:
        scaling = shard_scaling(bench_dir, out_dir, args.timeout)
        walls = " ".join(f"s{k}={v}s"
                         for k, v in scaling.get("wall_seconds", {}).items())
        ident = "byte-identical" if scaling["byte_identical"] else "DIVERGED"
        print(f"run_all_benches: shard_scaling {SCALING_BENCH}: "
              f"{scaling['status']} ({ident}) {walls}".rstrip())
        if scaling["status"] != "ok" or not scaling["byte_identical"]:
            failed.append(f"shard_scaling:{SCALING_BENCH}")

    health = (scaling or {}).get("engine_health") or {}
    trajectory = {
        "schema": TRAJECTORY_SCHEMA,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benches_ok": len(benches),
        "benches_failed": len(failed),
        "failed": failed,
        "points": points,
        "table_rows": rows,
        "wall_seconds": round(wall, 1),
        "jobs": args.jobs,
        "shards_env": os.environ.get("RDMASEM_SHARDS", ""),
        "shard_scaling": scaling,
        "events_per_epoch": health.get("events_per_epoch"),
        "park_share": health.get("park_share"),
        "fused_epochs": health.get("fused_epochs"),
        "resplit_epochs": health.get("resplit_epochs"),
        **design_quality(),
    }

    history = []
    if args.trajectory_file:
        tpath = os.path.abspath(args.trajectory_file)
        try:
            with open(tpath, encoding="utf-8") as f:
                history = [json.loads(line) for line in f if line.strip()]
        except OSError:
            pass  # first run: no history yet
        except ValueError as e:
            print(f"run_all_benches: {tpath}: corrupt history ignored: {e}",
                  file=sys.stderr)
            history = []
        history.append(trajectory)
        with open(tpath, "a", encoding="utf-8") as f:
            json.dump(trajectory, f, separators=(",", ":"), sort_keys=True)
            f.write("\n")
        print(f"trajectory history: {tpath} ({len(history)} row(s))")

    all_path = os.path.join(out_dir, "BENCH_ALL.json")
    with open(all_path, "w", encoding="utf-8") as f:
        json.dump({"schema": "rdmasem-bench-all-v1",
                   "trajectory": trajectory,
                   "trajectory_history": history,
                   "benches": benches}, f, indent=1)
        f.write("\n")

    print(f"aggregate report: {all_path}")
    epe = health.get("events_per_epoch")
    park = health.get("park_share")
    extra = ""
    if epe is not None:
        extra = f", ev/epoch {epe:.1f}, park {park:.0%}"
    print(f"trajectory: {len(benches)} benches ok, {len(failed)} failed, "
          f"{points} points, {rows} rows, {wall:.1f}s wall{extra}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
