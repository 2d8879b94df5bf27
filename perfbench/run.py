#!/usr/bin/env python3
"""Build and run the mica end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_registry --seed 1 \
        --seconds 32 --trace 0

Builds perfbench/ (which links the repository's micalib) into
.bench_build/perfbench on first use, then runs micabench with
the given arguments from the repository root. Build output goes to
stderr; micabench's stdout passes through unchanged, so its last line
is the result object. Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "micabench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring micabench up to date."""
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "micabench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def commit():
    """The checked-out commit, when the tree is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    if not build():
        log("build failed")
        return 1
    env = dict(os.environ, MICA_BENCH_COMMIT=commit())
    proc = subprocess.Popen([str(BINARY), *argv], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
