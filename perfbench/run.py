#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and passes its standard output through:
the last line is the JSON result. The metric names and units come from
the BENCHMARK.json next to this directory. Exits non-zero without a result
when the build fails or the run fails or times out.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    wanted = {"--workload", "--seed", "--seconds", "--trace"}
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in wanted:
            fail(f"unknown argument {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag] = value
    missing = wanted - args.keys()
    if missing:
        fail(f"missing {', '.join(sorted(missing))}")
    return args


def main():
    args = parse_args(sys.argv[1:])
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    spec = os.path.join(os.path.dirname(here), "BENCHMARK.json")
    cmd = [binary, "--work-dir", work_dir, "--spec", spec]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, args[flag]]
    try:
        run = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        fail(f"benchmark exited with code {run.returncode}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
