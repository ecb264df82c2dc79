#!/usr/bin/env python3
"""Build rfsd and the benchmark from source, then run the benchmark.

Usage, from the root of a checkout:

    python3 rfsbench/run.py --workload varmail --seed 1 --seconds 10 --trace 0

All arguments are passed to rfsbench.exe (see rfsbench/rfsbench.ml).
Build output goes to stderr, so the last stdout line is the benchmark's
JSON result.  Exits non-zero without a result when the checkout does not
hold the rfs sources.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN_DIR = os.path.join("rfsbench", "_run")
SOURCES = ["dune-project", "bin/rfsd.ml", "lib/srv/server.ml", "rfsbench/dune"]


def main():
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write("rfsbench: not a checkout of the rfs sources (missing %s)\n" % ", ".join(missing))
        return 2
    env = {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM" and not k.startswith("OCAML_RUNTIME_EVENTS")}
    build_env = dict(env, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "bin/rfsd.exe", "rfsbench/rfsbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=build_env)
    if build.returncode != 0:
        sys.stderr.write("rfsbench: build failed\n")
        return build.returncode or 1
    os.makedirs(RUN_DIR, exist_ok=True)
    # The traced run's runtime_events ring lives in the private run directory.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join(ROOT, RUN_DIR)
    exe = os.path.join("_build", "default", "rfsbench", "rfsbench.exe")
    argv = [exe, "--rfsd", os.path.join("_build", "default", "bin", "rfsd.exe"), "--run-dir", RUN_DIR]
    # The generator and the daemon share one core, the one the calibration
    # kernel times (see rfsbench/calib.ml); the daemon inherits the mask.
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})
    sys.stdout.flush()
    os.execve(exe, argv + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
