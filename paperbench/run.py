#!/usr/bin/env python3
"""Build and run the paper-reproduction benchmark.

    python3 paperbench/run.py --workload bulk_cca --seed 42 --seconds 25 \
        --trace 0

Run from the repository root. Configures and builds paperbench/ (which
compiles the simulator from src/) into $CARGO_TARGET_DIR/paperbench, or
.bench_build/paperbench when that is unset, then runs the `paperbench`
binary with the given arguments plus the committed result digests. The
last line of stdout is the JSON result; build output goes to stderr.
See paperbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "paperbench"


def fail(msg):
    print(f"paperbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "paperbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "paperbench"


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="42")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "paperbench"
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed ({e})")

    out_dir = build_dir / "out"
    cmd = [str(binary), *sys.argv[1:],
           "--digests", str(BENCH / "digests.txt"),
           "--out-dir", str(out_dir)]
    if known.trace == "1":
        cmd += ["--spans-out",
                str(out_dir / f"{known.workload}.seed{known.seed}.spans.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
