#!/usr/bin/env python3
"""Build ipse-e2e and ipse-cli from this checkout, run one workload, and
print its result line last.

    python3 bench/e2e/run.py --workload wide-resident --seed 1 \
        --seconds 42 --trace 0

The build goes to .bench_build/e2e (CMake Release, the package in
bench/e2e); the first run configures and builds, later runs only check
that the build is current.  Run files, traces and the server's scratch
data go to .bench_build/e2e-out.  Exits non-zero, printing no result,
when the repository sources are missing or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
OUT = os.path.join(ROOT, ".bench_build", "e2e-out")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log("missing %s: not an ipse source tree" % need)
            return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs,
                            "--target", "ipse-e2e", "ipse-cli"],
                           stdout=sys.stderr) == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    cmd = [os.path.join(BUILD, "ipse-e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cli", os.path.join(BUILD, "ipse-tools", "ipse-cli"),
           "--out-dir", OUT, "--git-sha", git_sha()]
    # Its own process group, so a timeout also takes down the server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("ipse-e2e timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        log("ipse-e2e printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
