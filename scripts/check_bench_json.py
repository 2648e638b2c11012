#!/usr/bin/env python3
"""Schema check for the bench harness's machine-readable output.

Validates BENCH_<name>.json files (schema rdmasem-bench-v1, emitted by
obs::BenchReport via bench_common.hpp) and, when a report references a
Chrome trace file, the trace JSON too. Stdlib only — runs anywhere CI
does.

Usage: check_bench_json.py BENCH_foo.json [BENCH_bar.json ...]
Exits non-zero on the first malformed file.
"""

import json
import os
import sys

SCHEMA = "rdmasem-bench-v1"

POINT_KEYS = {
    "series": str,
    "x": str,
    "mops": (int, float),
    "avg_us": (int, float),
    "p50_us": (int, float),
    "p99_us": (int, float),
    "p999_us": (int, float),
    "errors": int,
}

STAGE_KEYS = {
    "stage": str,
    "count": int,
    "total_us": (int, float),
    "avg_ns": (int, float),
    "share": (int, float),
}

STAGES = {
    "post", "doorbell", "wqe_fetch", "translate", "exec", "local_dma",
    "wire", "remote_rx", "remote_dram", "response", "cqe",
}

# Plane-1/Plane-2 profiler sections (PR 7). Integer picosecond fields so
# reconciliation can be asserted exactly, not within a tolerance.
WAIT_ROW_KEYS = {
    "name": str,
    "requests": int,
    "waited": int,
    "wait_ps": int,
    "service_ps": int,
    "p99_wait_ns": int,
}

CP_KEYS = {
    "closed_wrs": int,
    "reconciled_wrs": int,
    "mismatched_wrs": int,
    "e2e_ps": int,
    "attr_ps": int,
    "resources": list,
    "stages": list,
}

CP_RES_KEYS = {
    "name": str,
    "grants": int,
    "wait_ps": int,
    "service_ps": int,
    "whatif_2x": (int, float),
    "whatif_inf": (int, float),
}

CP_STAGE_KEYS = {
    "stage": str,
    "count": int,
    "total_ps": int,
    "whatif_2x": (int, float),
}

ENGINE_SCHEMA = "rdmasem-engine-profile-v2"

# The engine profile is one row: the engine's host-time totals over every
# profiled run of the bench.
EP_KEYS = {
    "schema": str,
    "runs": int,
    "events": int,
    "inline_grants": int,
    "dispatch_ns": int,
    "wall_ns": int,
    "max_queue_depth": int,
    "spill_pushes": int,
    "far_pushes": int,
    "behind_pushes": int,
    "accounted_share": (int, float),
}


def fail(path, msg):
    raise SystemExit(f"{path}: {msg}")


def check_typed_dict(path, what, obj, keys):
    if not isinstance(obj, dict):
        fail(path, f"{what} is not an object: {obj!r}")
    for key, types in keys.items():
        if key not in obj:
            fail(path, f"{what} missing key {key!r}")
        if not isinstance(obj[key], types) or isinstance(obj[key], bool):
            fail(path, f"{what}[{key!r}] has wrong type: {obj[key]!r}")


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "traceEvents missing or empty")
    for ev in events:
        if ev.get("ph") == "C":
            # Per-resource queueing-wait counter track (Perfetto).
            check_typed_dict(path, "counter event", ev,
                             {"name": str, "ts": (int, float), "pid": int})
            if not ev["name"].startswith("wait:"):
                fail(path, f"unknown counter track {ev['name']!r}")
            args = ev.get("args")
            if (not isinstance(args, dict)
                    or not isinstance(args.get("wait_us"), (int, float))):
                fail(path, "counter event without args.wait_us")
            continue
        check_typed_dict(path, "event", ev,
                         {"name": str, "ph": str, "ts": (int, float),
                          "pid": int, "tid": int})
        if ev["name"] not in STAGES:
            fail(path, f"unknown stage name {ev['name']!r}")
        if ev["ph"] not in ("X", "i"):
            fail(path, f"unexpected phase {ev['ph']!r}")
        if ev["ph"] == "X" and not isinstance(ev.get("dur"), (int, float)):
            fail(path, "complete event without dur")
    print(f"ok: {path} ({len(events)} events)")


def check_resource_waits(path, rows):
    if not isinstance(rows, list) or not rows:
        fail(path, "resource_waits present but not a non-empty list")
    for r in rows:
        check_typed_dict(path, "resource_waits row", r, WAIT_ROW_KEYS)
        if r["waited"] > r["requests"]:
            fail(path, f"{r['name']}: waited {r['waited']} exceeds "
                       f"requests {r['requests']}")
        if r["waited"] == 0 and r["wait_ps"] != 0:
            fail(path, f"{r['name']}: wait_ps non-zero with zero waited")


def check_critical_path(path, cp):
    check_typed_dict(path, "critical_path", cp, CP_KEYS)
    if cp["reconciled_wrs"] + cp["mismatched_wrs"] != cp["closed_wrs"]:
        fail(path, "critical_path: reconciled + mismatched != closed")
    if cp["mismatched_wrs"] != 0:
        fail(path, f"critical_path: {cp['mismatched_wrs']} WR(s) whose "
                   "attribution records do not partition the doorbell->CQE "
                   "window")
    # The reconciliation invariant: attribution covers end-to-end latency
    # exactly, in integer picoseconds — no tolerance.
    if cp["attr_ps"] != cp["e2e_ps"]:
        fail(path, f"critical_path: attr_ps {cp['attr_ps']} != "
                   f"e2e_ps {cp['e2e_ps']}")
    total = 0
    for r in cp["resources"]:
        check_typed_dict(path, "critical_path resource", r, CP_RES_KEYS)
        total += r["wait_ps"] + r["service_ps"]
    if total != cp["attr_ps"]:
        fail(path, f"critical_path: resource rows sum to {total}, "
                   f"attr_ps is {cp['attr_ps']}")
    for s in cp["stages"]:
        check_typed_dict(path, "critical_path stage", s, CP_STAGE_KEYS)
        if s["stage"] not in STAGES:
            fail(path, f"unknown critical_path stage {s['stage']!r}")


def check_engine_profile(path, ep):
    if not isinstance(ep, dict) or ep.get("schema") != ENGINE_SCHEMA:
        fail(path, f"engine_profile schema is not {ENGINE_SCHEMA!r}")
    check_typed_dict(path, "engine_profile", ep, EP_KEYS)
    if ep["runs"] < 1:
        fail(path, "engine_profile with no runs")
    if ep["dispatch_ns"] > ep["wall_ns"]:
        fail(path, f"engine_profile dispatch_ns {ep['dispatch_ns']} exceeds "
                   f"wall_ns {ep['wall_ns']}")
    # Machine-dependent, so not gated at 0.95 here (the CI smoke and
    # obs_report.py --min-accounted do that); just consistent with the
    # raw counters it derives from (exact to rounding).
    want = ep["dispatch_ns"] / ep["wall_ns"] if ep["wall_ns"] else 0.0
    if abs(ep["accounted_share"] - want) > 1e-5:
        fail(path, f"accounted_share {ep['accounted_share']} inconsistent "
                   f"with dispatch/wall {want:.6f}")


SYNC_ABORT_KEYS = {
    "series": str,
    "x": str,
    "abort_rate": (int, float),
    "commits": int,
    "aborts": int,
}

SYNC_BUCKET_KEYS = {
    "le_ns": int,
    "count": int,
}


def check_sync(path, sync):
    """Sync-layer section (bench/ext_sync_scale): per-point abort rates in
    [0, 1] and a lock-wait log2 histogram whose bucket counts partition the
    sample count with strictly increasing upper bounds."""
    if not isinstance(sync, dict):
        fail(path, "sync present but not an object")
    rates = sync.get("abort_rates")
    if not isinstance(rates, list) or not rates:
        fail(path, "sync.abort_rates missing or empty")
    for r in rates:
        check_typed_dict(path, "sync abort row", r, SYNC_ABORT_KEYS)
        if not 0.0 <= r["abort_rate"] <= 1.0:
            fail(path, f"sync abort_rate out of [0,1]: {r['abort_rate']}")
        denom = r["commits"] + r["aborts"]
        if denom > 0:
            want = r["aborts"] / denom
            if abs(want - r["abort_rate"]) > 0.01:
                fail(path, f"sync abort_rate {r['abort_rate']} inconsistent "
                           f"with aborts/{denom}")
    hist = sync.get("lock_wait_ns")
    if not isinstance(hist, dict):
        fail(path, "sync.lock_wait_ns missing")
    check_typed_dict(path, "sync histogram", hist,
                     {"count": int, "p50_bound_ns": int, "p99_bound_ns": int,
                      "buckets": list})
    total, prev_le = 0, -1
    for b in hist["buckets"]:
        check_typed_dict(path, "sync histogram bucket", b, SYNC_BUCKET_KEYS)
        if b["le_ns"] <= prev_le:
            fail(path, "sync histogram bucket bounds not increasing")
        prev_le = b["le_ns"]
        total += b["count"]
    if total != hist["count"]:
        fail(path, f"sync histogram buckets sum to {total}, "
                   f"count is {hist['count']}")
    if hist["count"] > 0 and hist["p99_bound_ns"] < hist["p50_bound_ns"]:
        fail(path, "sync histogram p99 bound below p50 bound")


def check_report(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)

    if report.get("schema") != SCHEMA:
        fail(path, f"schema is {report.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(report.get("bench"), str) or not report["bench"]:
        fail(path, "bench name missing")

    table = report.get("table")
    if not isinstance(table, dict):
        fail(path, "table missing")
    columns = table.get("columns")
    if not isinstance(columns, list) or not all(
            isinstance(c, str) for c in columns):
        fail(path, "table.columns malformed")
    rows = table.get("rows")
    if not isinstance(rows, list):
        fail(path, "table.rows malformed")
    for row in rows:
        if not isinstance(row, list) or len(row) != len(columns):
            fail(path, f"table row does not match columns: {row!r}")

    points = report.get("points")
    if not isinstance(points, list):
        fail(path, "points malformed")
    for p in points:
        check_typed_dict(path, "point", p, POINT_KEYS)

    stages = report.get("stages")
    if not isinstance(stages, list):
        fail(path, "stages malformed")
    for s in stages:
        check_typed_dict(path, "stage row", s, STAGE_KEYS)
        if s["stage"] not in STAGES:
            fail(path, f"unknown stage {s['stage']!r}")

    if not rows and not points:
        fail(path, "report has neither table rows nor points")

    trace_file = report.get("trace_file")
    if trace_file is not None:
        if not isinstance(trace_file, str):
            fail(path, "trace_file must be null or a string")
        if not stages:
            fail(path, "trace_file present but stage breakdown empty")
        resolved = trace_file if os.path.isabs(trace_file) else os.path.join(
            os.path.dirname(os.path.abspath(path)),
            os.path.basename(trace_file))
        if not os.path.exists(resolved):
            fail(path, f"trace file {trace_file!r} not found")
        check_trace(resolved)

    metrics = report.get("metrics")
    if metrics is not None:
        for section in ("counters", "gauges", "histograms", "series"):
            if section not in metrics:
                fail(path, f"metrics missing {section!r}")

    extras = []
    rw = report.get("resource_waits")
    if rw is not None:
        check_resource_waits(path, rw)
        extras.append(f"{len(rw)} wait rows")
    cp = report.get("critical_path")
    if cp is not None:
        check_critical_path(path, cp)
        extras.append(f"{cp['closed_wrs']} WRs reconciled")
    ep = report.get("engine_profile")
    if ep is not None:
        check_engine_profile(path, ep)
        extras.append(f"engine profile over {ep['runs']} run(s)")
    sync = report.get("sync")
    if sync is not None:
        check_sync(path, sync)
        extras.append(f"{len(sync['abort_rates'])} sync points, "
                      f"{sync['lock_wait_ns']['count']} lock waits")

    suffix = (", " + ", ".join(extras)) if extras else ""
    print(f"ok: {path} ({len(points)} points, {len(stages)} stages{suffix})")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    for path in argv[1:]:
        check_report(path)
    print(f"all {len(argv) - 1} report(s) valid")


if __name__ == "__main__":
    main(sys.argv)
