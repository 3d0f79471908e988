#!/usr/bin/env python3
"""Builds the benchmark and the daemon binaries from source, then runs one
workload of the repository benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Build output goes to stderr; the last line of stdout is the result. The
build directory is $CARGO_TARGET_DIR (default: target/).
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print(
            "run.py: no Cargo.toml and crates/ here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The daemon and runner exactly as the workspace ships them.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "cdcs-serve", "--bin", "cdcs-serve", "--bin", "cdcs-runner"],
        # The benchmark program: its own package, built against the crates.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("benchmark", "Cargo.toml")],
    ]
    for cmd in builds:
        # stdout of the build joins stderr: stdout carries only the result.
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode
    release = os.path.join(target, "release")
    exe = os.path.join(release, "cdcs-benchmark")
    return subprocess.run([exe, *sys.argv[1:], "--bin-dir", release], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
