#!/usr/bin/env python3
"""Build and run the finwork benchmark.

Run from the root of a finwork checkout:

    python3 perfbench/run.py --workload <figures|large_n|sparse_k|deadline>
                             --seed <n> --seconds <s> --trace <0|1>

It configures and builds finwork (Release, default options) and the
benchmark driver under $CARGO_TARGET_DIR (default: .bench_build), then runs
the driver for one workload.  The driver's last stdout line is the JSON
result.  Build output goes to stderr, so it never lands after the result.

    python3 perfbench/run.py --write-reference --workload figures
    python3 perfbench/run.py --write-reference --workload deadline --seed 1

regenerate the reference tables under perfbench/reference/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root: str) -> str:
    """Configure and build finwork and the driver; return the driver path."""
    lib_dir = os.path.join(build_root, "finwork")
    drv_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DFINWORK_BUILD_TESTS=OFF", "-DFINWORK_BUILD_BENCH=OFF",
         "-DFINWORK_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", lib_dir, "-j", jobs],
        ["cmake", "-S", HERE, "-B", drv_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DFINWORK_SOURCE_DIR=" + ROOT, "-DFINWORK_BUILD_DIR=" + lib_dir],
        ["cmake", "--build", drv_dir, "-j", jobs],
    ]
    for cmd in steps:
        # Re-configuring an existing tree is cheap and picks up new sources.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise SystemExit(f"build step failed: {' '.join(cmd)}")
    return os.path.join(drv_dir, "finwork_bench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "large_n", "sparse_k", "deadline"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise SystemExit("perfbench: not inside a finwork checkout")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    driver = build(build_root)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(HERE, "reference"),
           "--out-dir", out_dir]
    if args.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
