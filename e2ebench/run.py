#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

    python3 e2ebench/run.py --workload read-mix --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: e2ebench/target); cargo's own output goes to stderr, so the
benchmark's last stdout line is its JSON result. Provider state lives in
e2ebench/.data while a run lasts. `--workload all` runs every workload in
turn and exits non-zero if any run failed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["read-mix", "update-heavy", "mixed"]
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "dasp-e2ebench")


def run(exe, args):
    """Run the benchmark once; return its exit code."""
    data = os.path.join(HERE, ".data")
    try:
        return subprocess.run(
            [exe, *args, "--data-dir", data], cwd=ROOT, timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(data, ignore_errors=True)


def main():
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        return 2
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            codes = []
            for w in WORKLOADS:
                codes.append(run(exe, args[:i + 1] + [w] + args[i + 2:]))
            return max(codes)
    return run(exe, args)


if __name__ == "__main__":
    sys.exit(main())
