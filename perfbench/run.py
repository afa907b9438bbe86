#!/usr/bin/env python3
"""Build and run the tqan end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|device_scale|service \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles libtqan from src/)
in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs tqan-perfbench with the same
arguments.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  Exits non-zero, without a result, when
the build fails (for instance when the library sources are missing).
"""

import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / "build.lock", "w") as lock:
        # Concurrent runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(root / "perfbench"), "-B",
                 str(build_dir), "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target",
             "tqan-perfbench", "-j", jobs],
            stdout=sys.stderr, check=True)
    return build_dir / "tqan-perfbench"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workdir = build_dir / f"work-{os.getpid()}"
    try:
        proc = subprocess.run(
            [str(binary)] + sys.argv[1:] + ["--workdir", str(workdir)],
            cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
