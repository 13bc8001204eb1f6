#!/usr/bin/env python3
"""Builds the chanos benchmark and runs one workload.

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) built against the repository's crates by path,
into $CARGO_TARGET_DIR (default perfbench/target). Everything the run
writes -- the build, the disk images the threads backend creates, the
span files of traced runs -- stays under that directory. The last line
printed is the benchmark's JSON result; the exit code is non-zero when
the build, a correctness check or an operation failed. Without --seed
the default seed of perfbench/seeds.json is used.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Longest a run may take beyond the seconds it measures: the set-ups,
# the warm-up and the end of the last phase.
SETUP_MARGIN_S = 155


def measured_seconds(args):
    """The --seconds value; 10, as in the binary, when it is absent or
    malformed (the binary then rejects it)."""
    try:
        return int(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        return 10


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "chanos-perfbench")
    args = sys.argv[1:]
    if "--seed" not in args:
        with open(os.path.join(HERE, "seeds.json")) as f:
            args += ["--seed", str(json.load(f)["default"])]
    # The threads backend backs its disk with an image in the temp dir.
    scratch = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    timeout = measured_seconds(args) + SETUP_MARGIN_S
    try:
        run = subprocess.run(
            [binary, *args, "--out", os.path.join(target, "perfbench-traces")],
            env=dict(os.environ, TMPDIR=scratch),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
