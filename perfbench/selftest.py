#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Run from the repository root; builds through run.py first. Checks that
  * a corrupted destination byte after a randseq_sweep point fails the
    output check (exit 1, "correct": false, every op counted failed);
  * two processes with the same --seed print the same digest and sim_s,
    a traced run prints the same digest as an untraced one, and another
    seed prints another digest;
  * an inherited RDMASEM_* variable makes the benchmark refuse to run
    without printing a result.
Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def bench(workload, seed, trace=0, seconds=0.1, extra=(), env=None):
    """Runs one workload; returns (exit code, digest, result or None)."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    meta = next((json.loads(line[len("# perfbench "):]) for line in lines
                 if line.startswith("# perfbench ")), {})
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, meta.get("digest"), result


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    return ok


def main():
    ok = True

    code, _, res = bench("randseq_sweep", 5, extra=["--corrupt"])
    ok &= check(code == 1 and res is not None and res["correct"] is False
                and res["failed"] == res["attempted"],
                "a corrupted destination byte fails the randseq check")

    code_a, dig_a, res_a = bench("kv_mixed", 7)
    code_b, dig_b, res_b = bench("kv_mixed", 7)
    code_t, dig_t, _ = bench("kv_mixed", 7, trace=1)
    code_c, dig_c, _ = bench("kv_mixed", 8)
    ran = (code_a, code_b, code_t, code_c) == (0, 0, 0, 0)
    ok &= check(ran and res_a["failed"] == 0, "kv_mixed runs clean")
    ok &= check(ran and dig_a == dig_b and
                res_a["metrics"]["sim_s"] == res_b["metrics"]["sim_s"],
                "same seed, two processes: same digest and sim_s")
    ok &= check(ran and dig_t == dig_a, "traced run: same digest")
    ok &= check(ran and dig_c != dig_a, "another seed: another digest")

    env = dict(os.environ, RDMASEM_SHARDS="2")
    code, _, res = bench("kv_mixed", 7, env=env)
    ok &= check(code == 2 and res is None,
                "an inherited RDMASEM_SHARDS is refused")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
