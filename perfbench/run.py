#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/main.ml).

Run from the root of a checkout:

    python3 perfbench/run.py --workload tenants --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune into .bench_build/ (dune's
shared cache disabled, so nothing is written outside the checkout),
runs it with the same arguments and passes its output through. The
last line of stdout is the benchmark's JSON result. The exit code is
non-zero, with no result printed, when the checkout cannot be built,
and non-zero when the program's outputs fail their checks.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
WORKLOADS = ("tenants", "bulk_io", "shared_rw")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def toolchain_env():
    """The environment dune needs, finding an opam switch if dune is not on PATH."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune"):
        return env
    for dune in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        bindir = os.path.dirname(dune)
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
        env.setdefault("OPAM_SWITCH_PREFIX", os.path.dirname(bindir))
        return env
    fail("dune not found on PATH or in an opam switch")


def run(cmd, env, timeout, capture):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        preexec_fn=os.setpgrp,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    env = toolchain_env()
    code, _ = run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet", TARGET],
        env, BUILD_TIMEOUT, capture=False)
    if code != 0:
        fail("build failed (dune exit %d)" % code)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    code, out = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, RUN_TIMEOUT, capture=True)
    text = out.decode("utf-8", "replace")
    sys.stdout.write(text)
    sys.stdout.flush()
    if code != 0:
        fail("benchmark exited %d" % code, code)
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result line", 4)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 4)


if __name__ == "__main__":
    main()
