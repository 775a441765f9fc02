#!/usr/bin/env python3
"""Wall-clock slide benchmark: build the benchmark program, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths are resolved from this file, so any working directory works. The
first call configures and builds perfbench/ together with the libraries
under src/ (Release) in .bench_build/perfbench; later calls rebuild
incrementally. Workloads: hct-fold-w800, substr-flat-w800,
fleet-quota-t128 (see perfbench/README.md).

The program prints one "name value unit" line per metric, then, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of the traced replay. The exit status is non-zero when a
checked output differs from its from-scratch reference or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("hct-fold-w800", "substr-flat-w800", "fleet-quota-t128")
# One run measures for --seconds plus set-up and output checks (about 40 s
# in all at --seconds 15); anything past this is a hang.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cmake(*args):
    """Runs cmake with its output on stderr (stdout carries the result)."""
    return subprocess.run(["cmake", *args], stdout=sys.stderr,
                          stderr=sys.stderr, cwd=ROOT).returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no slider sources under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    for attempt in range(2):
        configured = (BUILD_DIR / "CMakeCache.txt").is_file() or cmake(
            "-S", str(HERE), "-B", str(BUILD_DIR),
            "-DCMAKE_BUILD_TYPE=Release")
        if configured and cmake("--build", str(BUILD_DIR), "-j", jobs,
                                "--target", "perfbench"):
            return True
        if attempt == 0:
            # A cache written for another source location cannot be reused.
            log("build failed; reconfiguring from scratch")
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="fixed smoke geometry (repeatability test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2

    # The program's own tracing, introspection and thread-count knobs stay
    # at their defaults; the benchmark fixes the pool size itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLIDER_")}
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK_DIR)]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"{args.workload} exited with status {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
