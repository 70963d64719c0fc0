#!/usr/bin/env python3
"""Build and run the svmsim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-interrupt --seed 1 --seconds 42 --trace 0

The Go program in this directory is built from the checkout's sources into
.bench_build/ (its build cache included, so nothing is written outside the
checkout) and then run with the same arguments. Its standard output is passed
through; the last line is the JSON result. Without the svmsim sources next to
this directory the build fails and the script exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "go-path"),
        "GOMODCACHE": os.path.join(BUILD, "go-path", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "go-tmp"),
        # The go command's telemetry counters live under the user config
        # directory; keep them inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "go-config"),
    })
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isfile(os.path.join(ROOT, "svmsim.go")):
        print("perfbench: svmsim sources not found next to perfbench/", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "go-tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "go-tmp"))
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
