#!/usr/bin/env python3
"""Perf-regression gate for the engine selfbench.

Reads BENCH_selfbench_engine.json (rdmasem-bench-v1, produced by
bench/selfbench_engine) and fails when the scheduler hot path got slower:

  1. The in-run calendar/legacy dispatch speedup must stay above a floor
     (default 1.8x; it was 2.0x before the engine grew lane-keyed event
     ordering, which costs ~10% of dispatch, see docs/PERF.md). Both
     engines are timed in the same process on the same machine, so this
     number is machine-independent — it is the primary criterion.
     Four exact criteria ride along, each required in the report:
     datapath_allocs/steady and datapath_allocs/proxied must be 0 (the
     steady-state single-SGE hot path and the cross-socket proxied
     request path may not touch the heap), and frames_per_wr/post_send
     and frames_per_wr/execute must be 1 and 2 coroutine frames per WR.
     An ASan selfbench replaces the frames rows with a
     frames_per_wr/skipped_asan marker (FramePool counts no frames
     there); the gate then prints the skip and why.
  2. Every workload's throughput, NORMALIZED by the in-run legacy
     dispatch number (which anchors how fast the host is), must stay
     within --tolerance (default 0.20) of the checked-in baseline
     (bench/selfbench_baseline.json). This catches a regression in one
     workload (e.g. coroutine churn) that the aggregate speedup hides.
  3. Raw Mevents/s vs the baseline's raw numbers is reported for context
     but only enforced with --strict-absolute, because absolute wall
     clock shifts with the machine the baseline was recorded on.

Regenerate the baseline after an intentional engine change with
  scripts/perf_gate.py BENCH_selfbench_engine.json --update-baseline
and commit the result (procedure: docs/PERF.md). --update-baseline
refuses a report recorded on fewer than 4 effective cores, read from the
report's parallel_cpus/host point. That point comes from a calibrated
spin probe (the same spin on every thread at once vs one thread alone),
not from the core count the host reports, and is rounded to the nearest
core: a real 4-core host reads about 3.7 because all-core clocks run a
little slower.

With --tenant-report BENCH_ext_tenant_scale.json the gate additionally
enforces the multi-tenant scaling contract (docs/SERVICE.md): each
series' "sustained" tenant count is the largest sweep point still within
--tenant-tolerance (default 0.20) of that series' own peak MOPS, and
broker+SRQ must sustain at least --min-tenant-ratio (default 5.0) times
the tenant count RC-per-tenant sustains before its metadata-cache
collapse; DC must sustain --min-dc-ratio (default 4.0) times. These are
in-run ratios of simulated throughput, so they are machine-independent.

Stdlib only. Exit 0 = pass, 1 = regression, 2 = bad input.
"""

import argparse
import json
import os
import sys

BASELINE_SCHEMA = "rdmasem-perf-baseline-v1"
# Effective cores a baseline recording needs.
MIN_CORES = 4
# (series, x, required value, what it counts): exact-value criteria.
EXACT = (
    ("datapath_allocs", "steady", 0,
     "steady-state heap allocations, single-SGE datapath"),
    ("datapath_allocs", "proxied", 0,
     "steady-state heap allocations, proxied request path"),
    ("frames_per_wr", "post_send", 1, "coroutine frames per post_send WR"),
    ("frames_per_wr", "execute", 2, "coroutine frames per execute WR"),
)
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "bench",
    "selfbench_baseline.json")


def die(msg):
    print(f"perf_gate: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read bench report {path}: {e}")
    if report.get("schema") != "rdmasem-bench-v1":
        die(f"{path}: unexpected schema {report.get('schema')!r}")
    return report


def load_points(path):
    """-> {(series, x): mops} from a rdmasem-bench-v1 report."""
    report = load_report(path)
    points = {}
    for p in report.get("points", []):
        points[(p["series"], p["x"])] = float(p["mops"])
    if not points:
        die(f"{path}: no sweep points")
    return points


def effective_cores(par_cpus):
    """Spin-probe reading rounded to whole cores (0 when absent)."""
    return 0 if par_cpus is None else int(par_cpus + 0.5)


def sustained_tenants(points, series, tolerance):
    """Largest x (tenant count) whose MOPS is within `tolerance` of the
    series' peak — the scale the service tier sustains before collapse."""
    sweep = {int(x): mops for (s, x), mops in points.items() if s == series}
    if not sweep:
        die(f"tenant report lacks a {series!r} series")
    peak = max(sweep.values())
    floor = peak * (1.0 - tolerance)
    best = 0
    for x in sorted(sweep):
        if sweep[x] >= floor:
            best = x
    return best, peak


def check_tenant_scaling(path, min_broker_ratio, min_dc_ratio, tolerance):
    """-> list of failure strings from the multi-tenant scaling contract."""
    points = load_points(path)
    failures = []
    rc, rc_peak = sustained_tenants(points, "RC", tolerance)
    br, br_peak = sustained_tenants(points, "BROKER", tolerance)
    dc, dc_peak = sustained_tenants(points, "DC", tolerance)
    if rc <= 0:
        die(f"{path}: RC series has no sustained point")
    for name, sustained, peak, floor_ratio in (
            ("broker+SRQ", br, br_peak, min_broker_ratio),
            ("DC", dc, dc_peak, min_dc_ratio)):
        ratio = sustained / rc
        verdict = "ok" if ratio >= floor_ratio else "REGRESSED"
        print(f"perf_gate: tenant scaling: {name} sustains {sustained} "
              f"tenants (peak {peak:.2f} MOPS) vs RC {rc} "
              f"(peak {rc_peak:.2f}) = {ratio:.1f}x "
              f"(floor {floor_ratio:.1f}x) {verdict}")
        if ratio < floor_ratio:
            failures.append(
                f"{name} sustains only {ratio:.1f}x RC's tenant count "
                f"({sustained} vs {rc}), below the {floor_ratio:.1f}x floor")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="BENCH_selfbench_engine.json from a run")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="checked-in baseline json (default: bench/)")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("RDMASEM_PERF_TOLERANCE",
                                                 "0.20")),
                    help="allowed fractional drop vs baseline "
                         "(env RDMASEM_PERF_TOLERANCE, default 0.20)")
    ap.add_argument("--min-speedup", type=float,
                    default=float(os.environ.get("RDMASEM_PERF_MIN_SPEEDUP",
                                                 "1.8")),
                    help="floor for the calendar/legacy dispatch ratio")
    ap.add_argument("--tenant-report", default=None,
                    help="BENCH_ext_tenant_scale.json; when given, also "
                         "enforce the multi-tenant scaling floors")
    ap.add_argument("--min-tenant-ratio", type=float,
                    default=float(os.environ.get(
                        "RDMASEM_PERF_MIN_TENANT_RATIO", "5.0")),
                    help="floor for broker+SRQ sustained tenants vs RC")
    ap.add_argument("--min-dc-ratio", type=float,
                    default=float(os.environ.get(
                        "RDMASEM_PERF_MIN_DC_RATIO", "4.0")),
                    help="floor for DC sustained tenants vs RC")
    ap.add_argument("--tenant-tolerance", type=float,
                    default=float(os.environ.get(
                        "RDMASEM_PERF_TENANT_TOLERANCE", "0.20")),
                    help="fractional drop from a series' peak MOPS that "
                         "still counts as sustained")
    ap.add_argument("--strict-absolute", action="store_true",
                    help="also enforce raw Mevents/s vs the baseline "
                         "(only meaningful on the baseline's machine)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this report and exit")
    args = ap.parse_args()

    report = load_report(args.report)
    points = {(p["series"], p["x"]): float(p["mops"])
              for p in report.get("points", [])}
    if not points:
        die(f"{args.report}: no sweep points")

    legacy = points.get(("dispatch", "legacy"))
    speedup = points.get(("speedup", "dispatch"))
    if legacy is None or legacy <= 0:
        die("report lacks a dispatch/legacy point")
    if speedup is None:
        die("report lacks a speedup/dispatch point")

    # Workload rows: everything except the legacy anchor, the ratio row,
    # the host-core probe and the exact-value criteria (allocation and
    # frame counts), which are not throughputs.
    workloads = {
        f"{series}/{x}": mops
        for (series, x), mops in sorted(points.items())
        if series not in ("speedup", "parallel_cpus", "datapath_allocs",
                          "frames_per_wr")
        and (series, x) != ("dispatch", "legacy")
    }
    normalized = {k: v / legacy for k, v in workloads.items()}

    par_cpus = points.get(("parallel_cpus", "host"))
    cores = effective_cores(par_cpus)

    if args.update_baseline:
        if cores < MIN_CORES:
            die(f"refusing --update-baseline: the report's spin probe "
                f"read {0.0 if par_cpus is None else par_cpus:.2f} "
                f"effective cores (rounds to {cores}), need >= {MIN_CORES}")
        baseline = {
            "schema": BASELINE_SCHEMA,
            "note": "regenerate with scripts/perf_gate.py --update-baseline "
                    "(see docs/PERF.md); normalized = Mevents/s divided by "
                    "the in-run dispatch/legacy Mevents/s",
            "speedup": round(speedup, 4),
            "legacy_mev": round(legacy, 4),
            "absolute_mev": {k: round(v, 4) for k, v in workloads.items()},
            "normalized": {k: round(v, 4) for k, v in normalized.items()},
        }
        baseline["parallel_cpus"] = round(par_cpus, 2)
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"perf_gate: baseline updated: {args.baseline}")
        return 0

    try:
        with open(args.baseline) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read baseline {args.baseline}: {e} "
            "(generate with --update-baseline)")
    if base.get("schema") != BASELINE_SCHEMA:
        die(f"{args.baseline}: unexpected schema {base.get('schema')!r}")

    failures = []

    print(f"perf_gate: dispatch speedup calendar/legacy = {speedup:.2f}x "
          f"(floor {args.min_speedup:.2f}x)")
    if speedup < args.min_speedup:
        failures.append(
            f"dispatch speedup {speedup:.2f}x fell below the "
            f"{args.min_speedup:.2f}x floor")

    asan = ("frames_per_wr", "skipped_asan") in points
    for series, x, want, what in EXACT:
        got = points.get((series, x))
        if got is None and series == "frames_per_wr" and asan:
            print(f"perf_gate: {series}/{x} ({what}): skipped, ASan build "
                  "(FramePool passes frames to the allocator uncounted)")
            continue
        if got is None:
            print(f"perf_gate: {series}/{x} ({what}): MISSING")
            failures.append(f"report lacks {series}/{x} ({what})")
            continue
        verdict = "ok" if got == want else "REGRESSED"
        print(f"perf_gate: {series}/{x} ({what}) = {got:g} "
              f"(must be {want}) {verdict}")
        if got != want:
            failures.append(f"{series}/{x} ({what}) is {got:g}, "
                            f"must be exactly {want}")

    for key, cur in sorted(normalized.items()):
        want = base["normalized"].get(key)
        if want is None:
            failures.append(f"baseline has no normalized entry for {key} "
                            "(regenerate the baseline)")
            continue
        floor = want * (1.0 - args.tolerance)
        verdict = "ok" if cur >= floor else "REGRESSED"
        print(f"perf_gate: {key}: normalized {cur:.3f} vs baseline "
              f"{want:.3f} (floor {floor:.3f}) {verdict}")
        if cur < floor:
            failures.append(
                f"{key} normalized throughput {cur:.3f} is more than "
                f"{args.tolerance:.0%} below baseline {want:.3f}")

    for key, cur in sorted(workloads.items()):
        want = base.get("absolute_mev", {}).get(key)
        if want is None:
            continue
        floor = want * (1.0 - args.tolerance)
        ok = cur >= floor
        tag = "ok" if ok else ("REGRESSED" if args.strict_absolute
                               else "below baseline (advisory)")
        print(f"perf_gate: {key}: {cur:.2f} Mev/s vs baseline "
              f"{want:.2f} {tag}")
        if args.strict_absolute and not ok:
            failures.append(
                f"{key} absolute throughput {cur:.2f} Mev/s is more than "
                f"{args.tolerance:.0%} below baseline {want:.2f}")

    if args.tenant_report:
        failures += check_tenant_scaling(
            args.tenant_report, args.min_tenant_ratio, args.min_dc_ratio,
            args.tenant_tolerance)

    if failures:
        print("perf_gate: FAIL", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
