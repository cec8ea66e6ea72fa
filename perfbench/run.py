"""Build and run the record -> log -> faithful-replay benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-o1o2 --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (the repo's libraries come from the same
checkout), runs it once and passes its output through: the last line of
stdout is the JSON result.  Extra arguments after the four above go to the
benchmark program unchanged (see README.md).  Exits non-zero without a
result if the build or the run fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SPANS = os.path.join(ROOT, "perfbench", "_out")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        fail("build failed")
    if "--trace" in args and args[args.index("--trace") + 1] != "0":
        os.makedirs(SPANS, exist_ok=True)
        args += ["--spans-dir", SPANS]
    child = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        fail("stopped by signal %d" % signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run timed out")
    sys.stdout.write(out.decode())
    if child.returncode != 0:
        fail("run failed with code %d" % child.returncode)


if __name__ == "__main__":
    try:
        main()
    except (OSError, subprocess.SubprocessError) as e:
        fail(str(e))
