#!/usr/bin/env python3
"""Build and run the task-path benchmark.

Run from the repository root:

    python3 taskbench/run.py --workload single-shallow --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (taskbench/go.mod) that builds against
the repository one directory up. Everything the build and the run write
goes under .bench_build/ in the current directory: the Go build cache, the
binary, the nodes' data directories and the trace spans. The arguments are
passed to the benchmark unchanged; its last line of output is the JSON
result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    work = os.path.join(build, "taskbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"], work):
        os.makedirs(d, exist_ok=True)
    if shutil.which("go") is None:
        print("taskbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(work, "taskbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("taskbench: build failed", file=sys.stderr)
        return 1
    # The benchmark removes its nodes' data directories as it tears them
    # down; a crashed run's leftovers go here. The spans of a traced run stay
    # until the next run.
    data = os.path.join(work, "data")
    shutil.rmtree(data, ignore_errors=True)
    try:
        ran = subprocess.run([binary, "--workdir", data] + sys.argv[1:], env=env, timeout=178)
    except subprocess.TimeoutExpired:
        print("taskbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
