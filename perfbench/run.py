#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <scribe|make8|txn|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: .bench_build in the current directory). All
arguments are passed through; a traced run also writes its spans to
<target>/perfbench-spans/<workload>-<seed>.tsv. The exit code is the
binary's, or 1 if the build fails (for example, when the repository's
crates are missing), in which case no result line is printed.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1" and "--spans" not in opts:
        name = "{}-{}.tsv".format(opts.get("--workload", "unknown"), opts.get("--seed", "0"))
        args += ["--spans", os.path.join(target, "perfbench-spans", name)]
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
