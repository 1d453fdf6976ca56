#!/usr/bin/env python3
"""Build `aemsim` and the host-time benchmark harness, then run one workload.

Run from the repository root:

    python3 hostbench/run.py --workload serve-payload --seed 1 --seconds 15 --trace 0

Workloads: serve-payload, serve-priced, sim-large. Both binaries are built
from source with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`). Build output goes to standard error; the last line
of standard output is the harness's result object. The exit code is the
harness's: non-zero on a failed build, an output mismatch, or drift in the
simulated statistics.
"""

import os
import subprocess
import sys


def build(cmd, env):
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.stderr.write("build failed: %s\n" % " ".join(cmd))
        sys.exit(r.returncode or 1)


def describe(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.strip()
    return out if r.returncode == 0 and out else "unknown"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    build(cargo + [os.path.join(root, "Cargo.toml"), "-p", "aem-cli"], env)
    build(cargo + [os.path.join(here, "Cargo.toml")], env)
    harness = os.path.join(target, "release", "hostbench")
    args = sys.argv[1:] + [
        "--aemsim", os.path.join(target, "release", "aemsim"),
        "--out", os.path.join(root, ".bench_out"),
        "--expected", os.path.join(here, "expected.json"),
        "--commit", describe(["git", "-C", root, "rev-parse", "--short", "HEAD"]),
        "--rustc", describe(["rustc", "--version"]).replace(" ", "_"),
    ]
    sys.stdout.flush()
    r = subprocess.run([harness] + args)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
