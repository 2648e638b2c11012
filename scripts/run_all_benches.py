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

The row is appended in a committed format (schema rdmasem-trajectory-v1,
one JSON object per line) to bench/trajectory.jsonl, so the battery
accumulates a perf history across PRs instead of overwriting it. Point
--trajectory-file elsewhere or at "" to disable. The accumulated history
is mirrored into BENCH_ALL.json under "trajectory_history".

Benches are submitted longest first, by each bench's wall seconds in the
history's last row, so the longest bench (the battery's critical path)
starts at once instead of behind the short ones. Without a last row, or
for a bench it has no time for, the order is alphabetical.

Each row also records three design-quality numbers read from the source
tree: src_lines (lines of src/**/*.cpp and *.hpp), bench_lines (lines of
bench/*.cpp and *.hpp) and env_knobs (distinct RDMASEM_* names passed to
util::env_* in src/). All three should only go down.

Whole-process host cost: each bench is reaped with os.wait4, and its wall,
user and sys seconds and peak RSS land in the row under "host" (one entry
per bench). Host numbers never enter BENCH_<name>.json, whose bytes are a
deterministic function of the simulation. Peak RSS reads no lower than
this script's own RSS (about 16 MiB): the kernel counts the child's
memory image from before its exec.

Effective cores: right before the battery starts, a spin probe runs one
calibrated pure-Python spin alone, then the same spin in one process per
job at once, and records how many cores' worth of progress those
processes made together as "effective_cores" in the row. A shared host
can read far below its core count; a speed claim needs a row whose probe
read at least 4.

Shrink knobs: the benches honour the same env as scripts/bench_smoke.cmake
(RDMASEM_SHUFFLE_ENTRIES etc.).

Stdlib only. Exit 0 = all benches ran and validated, 1 otherwise.
"""

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_json  # noqa: E402  (sibling module, stdlib-only)

PREFIXES = ("fig", "ext_", "table")

TRAJECTORY_SCHEMA = "rdmasem-trajectory-v1"
DEFAULT_TRAJECTORY = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "bench",
    "trajectory.jsonl")
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "bench")
ENV_KNOB = re.compile(r'\benv_\w+\(\s*"(RDMASEM_[A-Z0-9_]+)"')


def _sources(root_dir, recurse):
    """Text of every *.cpp / *.hpp under root_dir (top level only unless
    recurse)."""
    for root, dirs, files in os.walk(root_dir):
        if not recurse:
            dirs.clear()
        for name in sorted(files):
            if name.endswith((".cpp", ".hpp")):
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    yield f.read()


def design_quality(src_dir=SRC_DIR, bench_dir=BENCH_DIR):
    """Line counts of src/**/*.{cpp,hpp} and bench/*.{cpp,hpp}, and the
    distinct RDMASEM_* names the library reads through util::env_*."""
    lines, knobs = 0, set()
    for text in _sources(src_dir, recurse=True):
        lines += text.count("\n")
        knobs.update(ENV_KNOB.findall(text))
    bench_lines = sum(t.count("\n") for t in _sources(bench_dir, False))
    return {"src_lines": lines, "bench_lines": bench_lines,
            "env_knobs": len(knobs)}


def _spin(iters):
    """Seconds one pure-Python loop of `iters` additions takes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc += i
    return time.perf_counter() - t0


def _spin_worker(barrier, iters, out):
    barrier.wait()
    out.put(_spin(iters))


def effective_cores(procs, target_s=0.2):
    """Spin probe: the summed speed of `procs` concurrent copies of one
    spin, each relative to the same spin run alone (so `procs` on an idle
    host with that many cores, about 1 on a host that gives this script
    one core)."""
    iters = 1 << 16
    while _spin(iters) < target_s / 2:
        iters *= 2
    alone = min(_spin(iters) for _ in range(3))
    ctx = multiprocessing.get_context("fork")
    barrier, out = ctx.Barrier(procs), ctx.Queue()
    workers = [ctx.Process(target=_spin_worker, args=(barrier, iters, out))
               for _ in range(procs)]
    for w in workers:
        w.start()
    took = [out.get() for _ in workers]
    for w in workers:
        w.join()
    return round(sum(alone / t for t in took), 2)


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


def load_history(path):
    """Rows of the trajectory file at `path` ([] when unset or missing;
    a corrupt file is reported and ignored)."""
    if not path:
        return []
    try:
        with open(path, encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]
    except OSError:
        return []  # first run: no history yet
    except ValueError as e:
        print(f"run_all_benches: {path}: corrupt history ignored: {e}",
              file=sys.stderr)
        return []


def longest_first(names, history):
    """`names` ordered by wall seconds in the last history row, longest
    first; alphabetical among benches the row has no time for."""
    host = history[-1].get("host", {}) if history else {}
    return sorted(names, key=lambda n: (-host.get(n, {}).get("wall_s", 0), n))


def run_one(bench_dir, out_dir, name, timeout):
    """-> (name, report_path | None, error | None, host)

    host holds the bench process's wall, user and sys seconds and its peak
    RSS, read from os.wait4's rusage for that one child."""
    t0 = time.monotonic()
    env = dict(os.environ, RDMASEM_BENCH_OUT=out_dir)
    timed_out = threading.Event()
    with tempfile.TemporaryFile() as log:
        proc = subprocess.Popen([os.path.join(bench_dir, name)], env=env,
                                stdout=log, stderr=subprocess.STDOUT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read().decode(errors="replace")
    host = {"wall_s": round(time.monotonic() - t0, 2),
            "user_s": round(ru.ru_utime, 2),
            "sys_s": round(ru.ru_stime, 2),
            "maxrss_mib": round(ru.ru_maxrss / 1024, 1)}  # ru_maxrss: KiB
    if timed_out.is_set():
        return name, None, f"timed out after {timeout}s", host
    if proc.returncode != 0:
        tail = "\n".join(output.splitlines()[-10:])
        return name, None, f"exit {proc.returncode}:\n{tail}", host
    report = os.path.join(out_dir, f"BENCH_{name}.json")
    if not os.path.exists(report):
        return name, None, "wrote no BENCH json", host
    return name, report, None, host


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
    tpath = (os.path.abspath(args.trajectory_file)
             if args.trajectory_file else "")
    history = load_history(tpath)
    names = longest_first(names, history)

    cores = effective_cores(args.jobs)
    print(f"run_all_benches: spin probe: {cores} effective core(s) "
          f"of {args.jobs} job(s)")
    t0 = time.monotonic()
    results = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_one, bench_dir, out_dir, n, args.timeout)
                   for n in names]
        for fut in concurrent.futures.as_completed(futures):
            name, report, err, h = fut.result()
            status = "ok" if err is None else "FAIL"
            print(f"run_all_benches: {name}: {status} ({h['wall_s']:.1f}s "
                  f"wall, {h['user_s']:.1f}s user, {h['sys_s']:.1f}s sys, "
                  f"{h['maxrss_mib']:.0f} MiB)")
            if err is not None:
                print(f"  {err}", file=sys.stderr)
            results.append((name, report, err, h))
    wall = time.monotonic() - t0

    benches, failed, host = {}, [], {}
    points = rows = 0
    for name, report, err, h in sorted(results):
        host[name] = h
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
        "effective_cores": cores,
        "host": host,
        **design_quality(),
    }

    if tpath:
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
    print(f"trajectory: {len(benches)} benches ok, {len(failed)} failed, "
          f"{points} points, {rows} rows, {wall:.1f}s wall, "
          f"{cores} effective cores")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
