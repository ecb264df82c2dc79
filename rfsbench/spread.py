#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 rfsbench/spread.py --workload varmail --seeds 1-10 [--seconds 10] [--trace 0]

For every metric: median, quartiles, min and max over the runs, and the
interquartile range as a share of the median next to the metric's bound
in BENCHMARK.json (the share of the median by which a change may worsen
it).  Quartiles are statistics.quantiles(values, n=4).  Exits non-zero
if a run fails or a spread (setup_s aside) is not below its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            ["python3", "rfsbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if out.returncode != 0 or result is None or not result["correct"]:
            sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            return 1
        runs.append(result["metrics"])
        print("seed %d: %s" % (seed, ", ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()
                                              if k in bounds and bounds[k] is not None)), flush=True)
    ok = True
    print("%-36s %12s %12s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "min", "max", "iqr/med", "bound"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share >= bound:
            flag, ok = " SPREAD", False
        print("%-36s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6s%s" % (
            name, med, q1, q3, min(values), max(values), share, "" if bound is None else bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
