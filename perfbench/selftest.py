"""Self-tests of the benchmark, on the small smoke corpus.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the deterministic counts repeat exactly across two runs with
one seed, that another seed changes the inputs and still passes every
output check, and that a smoke run finishes quickly.  Exits non-zero on
the first failed check.
"""

import json
import subprocess
import sys
import time

WORKLOADS = ["suite-o1o2", "suite-basic", "service"]
END_TO_END_COUNTS = ["log_bytes_per_kstep"]
LAYER_COUNTS = [
    "analysis.instrumented_sites",
    "constraints.clauses",
    "solver.decisions",
    "recorder.cost_overhead",
]
SMOKE_LIMIT_S = 60


def run(workload, seed, trace):
    t0 = time.monotonic()
    p = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)
    took = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" % (workload, seed, trace, p.returncode, p.stderr))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    inputs = [l.split()[1] for l in p.stderr.splitlines() if l.startswith("inputs ")]
    return result, inputs[0], took


def expect(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def main():
    for w in WORKLOADS:
        for trace, names in ((0, END_TO_END_COUNTS), (1, LAYER_COUNTS)):
            a, ia, took = run(w, 1, trace)
            b, ib, _ = run(w, 1, trace)
            expect(took < SMOKE_LIMIT_S, "%s trace %d smoke run took %.1f s" % (w, trace, took))
            for r in (a, b):
                expect(r["correct"] and r["failed"] == 0, "%s trace %d passes every check" % (w, trace))
            expect(ia == ib, "%s trace %d same seed, same inputs" % (w, trace))
            for n in names:
                va, vb = a["metrics"][n]["value"], b["metrics"][n]["value"]
                expect(va == vb, "%s %s repeats exactly: %r" % (w, n, va))
                # the service does no offline work, so it has no constraints
                offline = n.startswith(("constraints.", "solver."))
                zero = w == "service" and offline
                expect((va == 0) == zero, "%s %s is %s" % (w, n, "0" if zero else "nonzero"))
        c, ic, _ = run(w, 2, 0)
        expect(ic != ia, "%s another seed changes the inputs" % w)
        expect(c["correct"] and c["failed"] == 0, "%s another seed passes every check" % w)


if __name__ == "__main__":
    main()
