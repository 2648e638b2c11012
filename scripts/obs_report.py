#!/usr/bin/env python3
"""Render the two-plane profiler output as terminal reports.

Plane 1 (virtual time): per-resource queueing-delay bottleneck table,
per-WR critical-path decomposition with CoZ-style what-if estimates, and
the exact-picosecond reconciliation status, read from the
"resource_waits" / "critical_path" sections of BENCH_<name>.json files.

Plane 2 (host time): the engine's cost decomposition (the dispatch share
of wall time), read from an ENGINE_PROFILE.json (or the "engine_profile"
section of a bench report).

Usage:
  obs_report.py [--engine-profile PATH] [--min-accounted FRACTION]
                [--top N] [BENCH_foo.json ...]

Exits non-zero when a report is malformed, a critical path fails to
reconcile, or a profile's accounted share falls below
--min-accounted (default 0.0, i.e. not gated). Stdlib only.
"""

import argparse
import json
import sys

ENGINE_SCHEMA = "rdmasem-engine-profile-v2"


def die(msg):
    print(f"obs_report: {msg}", file=sys.stderr)
    raise SystemExit(1)


def fmt_table(header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def us(ps):
    return f"{ps / 1e6:.3f}"


def ms(ns):
    return f"{ns / 1e6:.2f}"


def report_resource_waits(name, rows, top):
    rows = sorted(rows, key=lambda r: (-r["wait_ps"], r["name"]))
    print(f"\n== {name}: per-resource queueing delay (top {top}) ==")
    out = []
    for r in rows[:top]:
        busy = r["wait_ps"] + r["service_ps"]
        share = r["wait_ps"] / busy if busy else 0.0
        out.append([r["name"], str(r["requests"]), str(r["waited"]),
                    us(r["wait_ps"]), us(r["service_ps"]), f"{share:.3f}",
                    str(r["p99_wait_ns"])])
    print(fmt_table(["resource", "grants", "waited", "wait_us", "service_us",
                     "wait_share", "p99_wait_ns"], out))


def report_critical_path(name, cp, top):
    ok = cp["mismatched_wrs"] == 0 and cp["attr_ps"] == cp["e2e_ps"]
    status = "EXACT" if ok else "MISMATCH"
    print(f"\n== {name}: critical path — {cp['closed_wrs']} WRs, "
          f"{cp['reconciled_wrs']} reconciled, "
          f"{cp['mismatched_wrs']} mismatched, "
          f"attr {cp['attr_ps']} ps vs e2e {cp['e2e_ps']} ps [{status}] ==")
    res = sorted(cp["resources"],
                 key=lambda r: (-(r["wait_ps"] + r["service_ps"]), r["name"]))
    e2e = cp["e2e_ps"]
    out = []
    for r in res[:top]:
        path = r["wait_ps"] + r["service_ps"]
        out.append([r["name"], str(r["grants"]), us(r["wait_ps"]),
                    us(r["service_ps"]),
                    f"{path / e2e:.3f}" if e2e else "0",
                    f"{r['whatif_2x']:.3f}", f"{r['whatif_inf']:.3f}"])
    print(fmt_table(["resource", "grants", "wait_us", "service_us",
                     "path_share", "whatif_2x", "whatif_inf"], out))
    if not ok:
        die(f"{name}: critical path failed to reconcile")


def report_engine_profile(name, ep, min_accounted):
    if ep.get("schema") != ENGINE_SCHEMA:
        die(f"{name}: engine profile schema is not {ENGINE_SCHEMA!r}")
    print(f"\n== {name}: engine profile ({ep['runs']} run(s)) ==")
    acct = ep["accounted_share"]
    print(fmt_table(
        ["events", "inline", "dispatch_ms", "wall_ms", "accounted",
         "max_qd"],
        [[str(ep["events"]), str(ep["inline_grants"]),
          ms(ep["dispatch_ns"]), ms(ep["wall_ns"]), f"{acct:.3f}",
          str(ep["max_queue_depth"])]]))
    if acct < min_accounted:
        die(f"{name}: accounted share {acct:.3f} below "
            f"--min-accounted {min_accounted}")


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="*", metavar="BENCH_foo.json")
    ap.add_argument("--engine-profile", metavar="PATH",
                    help="standalone ENGINE_PROFILE.json to render")
    ap.add_argument("--min-accounted", type=float, default=0.0,
                    help="fail if a profile's dispatch/wall share is "
                         "below this fraction")
    ap.add_argument("--top", type=int, default=12,
                    help="rows per bottleneck table (default 12)")
    args = ap.parse_args(argv[1:])
    if not args.reports and not args.engine_profile:
        ap.error("nothing to report on (no bench reports, no "
                 "--engine-profile)")

    rendered = 0
    for path in args.reports:
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            die(f"{path}: {e}")
        name = report.get("bench", path)
        rw = report.get("resource_waits")
        if rw:
            report_resource_waits(name, rw, args.top)
            rendered += 1
        cp = report.get("critical_path")
        if cp:
            report_critical_path(name, cp, args.top)
            rendered += 1
        ep = report.get("engine_profile")
        if ep:
            report_engine_profile(name, ep, args.min_accounted)
            rendered += 1
        if not (rw or cp or ep):
            print(f"{name}: no profiler sections (run with RDMASEM_TRACE=1 "
                  "and/or RDMASEM_PROF=1)")

    if args.engine_profile:
        try:
            with open(args.engine_profile, encoding="utf-8") as f:
                ep = json.load(f)
        except (OSError, ValueError) as e:
            die(f"{args.engine_profile}: {e}")
        report_engine_profile(args.engine_profile, ep, args.min_accounted)
        rendered += 1

    if rendered == 0:
        die("no profiler data found in any input")
    print(f"\nobs_report: {rendered} section(s) rendered")


if __name__ == "__main__":
    main(sys.argv)
