#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package (perfbench/) is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build),
then its binary runs the workload. The binary's last line of standard
output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus set-up probes and oracle checks; the
# whole run must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository crates are missing; nothing to build", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = capture(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env["PERFBENCH_OUT"] = os.path.join(target, "perfbench")
    exe = os.path.join(target, "release", "rime-perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
