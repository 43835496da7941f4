#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <dense|grid-ls|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`); its
output goes to stderr so that the benchmark's JSON result stays the
last line of stdout. A traced run also writes its spans, one JSON
object per line, under `<target dir>/perfbench-traces/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else default


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "tbs-perfbench")
    extra = []
    if arg(argv, "--trace", "0") == "1":
        name = "%s-seed%s.jsonl" % (arg(argv, "--workload", "unknown"),
                                    arg(argv, "--seed", "0"))
        extra = ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    return subprocess.run([binary] + argv + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
