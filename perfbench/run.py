#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ppepd --seed 1 --seconds 20 --trace 0

The script builds two binaries from source into the build directory
($CARGO_TARGET_DIR if set, else .bench_build): the benchmark itself and
the same benchmark built with -tags ppep_reftick, which the traced fleet
run uses to measure the batched tick engine's saving. The Go build cache,
temporary files and the benchmark's scratch files all stay inside the
build directory. Every other argument is passed to the benchmark, whose
last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "tmp", "home", "gopath"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    bins = {
        "perfbench": [],
        "perfbench-reftick": ["-tags", "ppep_reftick"],
    }
    for name, tags in bins.items():
        cmd = ["go", "build", *tags, "-o", os.path.join(build, name), "."]
        res = subprocess.run(cmd, cwd=HERE, env=env)
        if res.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return res.returncode or 1
    cmd = [
        os.path.join(build, "perfbench"),
        "--models", os.path.join(HERE, "models.json"),
        "--work", os.path.join(build, "work"),
        "--reftick-bin", os.path.join(build, "perfbench-reftick"),
        *sys.argv[1:],
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
