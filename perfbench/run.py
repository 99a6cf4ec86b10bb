#!/usr/bin/env python3
"""Builds the replica binary and the benchmark, then runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload sim-timely --seed 1 --seconds 10 --trace 0

Arguments are passed through to the benchmark binary (see METRICS.md).
Build output goes to standard error, so the benchmark's JSON result is the
last line of standard output. Artifacts land in $CARGO_TARGET_DIR
(default `.bench_build`); run files land in `.perfbench`.
"""

import os
import subprocess
import sys


def build(args, env):
    """Runs one cargo build with its output on stderr; exits on failure."""
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)


def main():
    root = os.getcwd()
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # The replica binary comes from the repository workspace, with its own
    # release profile: the cluster runs exactly what a deployment runs.
    build(["-p", "minsync-transport", "--bin", "minsync-node"], env)
    build(["--manifest-path", os.path.join(bench_dir, "Cargo.toml")], env)
    exe = os.path.join(target, "release", "perfbench")
    node = os.path.join(target, "release", "minsync-node")
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    done = subprocess.run([exe, "--node-bin", node, "--out-dir", out_dir] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
