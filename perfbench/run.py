#!/usr/bin/env python3
"""Replay benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, Release) under
.bench_build/perfbench in the checkout, then runs one workload and passes
its output through. The last line of stdout is the JSON result.

    python3 perfbench/run.py --workload fig8_shared --seed 8 --seconds 15 --trace 0

Extra flags: --size tiny (self-test cells), --max-cycles N (truncate the
horizon), --perturb-reference (corrupt the pinned statistics). Both of the
latter exist to show the correctness gate tripping.
--pin-reference rewrites perfbench/reference.txt from the current build.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.txt"
BINARY = BUILD_DIR / "psllc_perfbench"
WORKLOADS = ("fig8_shared", "fig8_private", "periodic_mapped")
DEFAULT_SEED = 8
HELD_OUT_SEED = 97
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (ROOT / "src" / "sim" / "replay.h").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "psllc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def source_stamp():
    """The commit when the checkout is a git repository, else a digest of
    the simulator sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(args, capture=False):
    command = [str(BINARY), "--out", str(OUT_DIR), "--reference",
               str(REFERENCE), "--commit", source_stamp()] + args
    return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                          capture_output=capture)


def pin_reference():
    lines = ["# Pinned simulated statistics: <workload> <size> <seed> key=value ...",
             "# Regenerate with: python3 perfbench/run.py --pin-reference"]
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                done = run_binary(["--workload", workload, "--seed", str(seed),
                                   "--size", size, "--print-reference"],
                                  capture=True)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                lines.append(done.stdout.strip().splitlines()[-1])
    REFERENCE.write_text("\n".join(lines) + "\n")
    log(f"wrote {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--max-cycles", type=int)
    parser.add_argument("--perturb-reference", action="store_true")
    parser.add_argument("--pin-reference", action="store_true")
    args = parser.parse_args()
    if not args.pin_reference and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 2
    if args.pin_reference:
        return pin_reference()

    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size]
    if args.max_cycles is not None:
        command += ["--max-cycles", str(args.max_cycles)]
    if args.perturb_reference:
        command.append("--perturb-reference")
    try:
        return run_binary(command).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2


if __name__ == "__main__":
    sys.exit(main())
