#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload cold-attack|warm-serve \
        --seed N --seconds S --trace 0|1 [--tiny] [--tamper]

Run from the repository root. The benchmark binary is built (Release, same
flags as the top-level build) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build output goes
to stderr. The binary's stdout is passed through: its last line is the result
object {correct, attempted, failed, metrics}. Details and span traces land in
.bench_out/. Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path, env: dict) -> Path:
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir.resolve()))
    try:
        binary = build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper:
        cmd.append("--tamper")
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
