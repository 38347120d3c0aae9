#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is its own Cargo workspace
(perfbench/Cargo.toml) that builds the repository's crates and the
`dbgpd` daemon from source through path dependencies, in release mode,
into $CARGO_TARGET_DIR (default: .bench_build). Build output goes to
stderr; the last line on stdout is the JSON result. The exit code is the
benchmark's: 0 when every check passed, 1 when one failed, 2 on a usage
error; a failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--dbgpd", os.path.join(release, "dbgpd"),
           "--work-dir", os.path.join(target, "perfbench-work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
