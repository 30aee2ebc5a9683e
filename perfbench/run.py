#!/usr/bin/env python3
"""Build the spp binary and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Workloads: serve_hot, cold_race, proxy_mix, sim_stream. With --trace 0 the
last line of standard output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of the traced run.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own self-check at tiny sizes instead.

Everything the run leaves behind is under _build/ and .perfbench/.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

WORKLOADS = ("serve_hot", "cold_race", "proxy_mix", "sim_stream")
RUN_LIMIT_S = 175.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(bench_exe):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a source checkout (dune-project, lib/, bin/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./bin/spp.exe", "./perfbench/%s.exe" % bench_exe]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    spp = "./_build/default/bin/spp.exe"
    if a.selftest:
        build("selftest")
        cmd = ["./_build/default/perfbench/selftest.exe", spp]
    else:
        if a.workload is None or a.seed is None or a.seconds is None:
            fail("--workload, --seed and --seconds are required")
        if a.seconds < 1:
            fail("--seconds must be >= 1")
        build("main")
        cmd = [
            "./_build/default/perfbench/main.exe",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--spp", spp,
        ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd)

    # main.exe ends its daemons on SIGTERM; pass ours on.
    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail("run exceeded %.0f s" % RUN_LIMIT_S)
    if code != 0:
        fail("benchmark exited with %d after %.1f s" % (code, time.monotonic() - started))


if __name__ == "__main__":
    main()
