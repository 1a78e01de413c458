"""Tracing overhead: the same run untraced and traced, metric by metric.

Usage, from the root of a checkout:

    python3 perfbench/overhead.py --seed N [WORKLOAD ...]

For each workload (all three by default) it runs perfbench/run.py with
--trace 0 and then --trace 1 on the same seed, for the run_seconds of
BENCHMARK.json, and prints each
end-to-end metric of both runs and their difference, the tracing
overhead. On cli-cold it also prints how much of the traced sample and
verify wall time the layer self times cover, and the unattributed rest.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def detail(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    found = next(json.loads(line)["detail"] for line in lines if line.startswith('{"detail"'))
    return found, json.loads(lines[-1])["metrics"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("workloads", nargs="*",
                        default=["cli-cold", "library-warm", "certify"])
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in args.workloads:
        plain, _ = detail(workload, args.seed, seconds, 0)
        traced, layer = detail(workload, args.seed, seconds, 1)
        print(f"{workload} seed={args.seed}: untraced, traced, overhead")
        for name, metric in plain["end_to_end"].items():
            a, b = metric["value"], traced["end_to_end"][name]["value"]
            print(f"  {name:<14} {a:12.4f} {b:12.4f} {b - a:+10.4f} {metric['unit']}"
                  f" ({(b - a) / a:+.1%})")
        if workload == "cli-cold":
            for kind in ("sample", "verify"):
                coverage = layer[f"cli.{kind}.coverage"]["value"]
                rest = traced["workload_metrics"][f"{kind}_unattributed_s"]["value"]
                print(f"  layer self times cover {coverage:.2%} of traced {kind}_s; "
                      f"unattributed {rest:.3f} s over the run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
