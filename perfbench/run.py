#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 12 --trace 0

Builds the `csmt-serve` daemon (the repository's own workspace) and the
`perfbench` harness (a package of its own in this directory) in release
mode, then runs the harness on one workload. The harness prints a
human-readable report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit status is the
harness's: 0 only when every output check passed. Build output goes to
stderr; scratch files go under `perfbench/.work/`, which is emptied first.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep-cold", "sample-long", "serve-warm")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(root, target_dir):
    cmds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "csmt-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in cmds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("run from the root of a checkout: no Cargo.toml here")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target_dir)

    work = os.path.relpath(os.path.join(HERE, ".work"), root)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Flush the previous run's deletions and writes so they do not land in
    # this run's measurements.
    os.sync()
    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(target_dir, "release", "csmt-serve"),
        "--work-dir", work,
    ]
    sys.stdout.flush()
    code = subprocess.run(cmd, cwd=root).returncode
    # Stores and sockets are scratch; the inputs and spans stay for a look.
    for entry in os.listdir(work):
        path = os.path.join(work, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
