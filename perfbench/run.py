"""mixcenter benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold|library-warm|certify \
        --seed N --seconds S --trace 0|1

The run prepares its inputs from the seed, then repeats whole rounds of
the workload's jobs until S seconds of rounds have passed (at least one
round). Outputs are checked after each job, outside its timed region.
Lines before the last describe the run for a reader: every metric with
its unit and sample count, failures, provenance, and one JSON line with
all of it. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the program's public calls are wrapped and the metrics
are the per-layer ones. The program comes from ./src of the checkout;
without it the run exits with code 2 and prints no result.
"""
import time

T0 = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs and exit (used to time set-up)")
    return parser.parse_args(argv)


def timed_setups(args):
    """Median wall time of fresh processes that only do the set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        subprocess.run(cmd, check=True)
        walls.append(time.monotonic() - start)
    return walls


def provenance(args):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixcenter", "__init__.py")):
        print(f"perfbench: the program's source {SRC}/mixcenter is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, bool(args.trace), workdir)
        if args.setup_only:
            workload.setup()
            return 0
        return run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload):
    rec = None
    if args.trace and args.workload != "cli-cold":
        rec = spans.Recorder()
        layers.install(rec)
        workload.span_lists.append(rec.spans)
    if args.workload == "library-warm":
        # its set-up builds and warms two mixers (about 17 s), too long to repeat
        workload.setup()
        setup_walls = [time.monotonic() - T0]
    else:
        setup_walls = timed_setups(args)
        workload.setup()

    jobs, round_seconds = [], []
    start = time.monotonic()
    while not round_seconds or time.monotonic() - start < args.seconds:
        if rec is not None:
            rec.job = len(round_seconds)
        done = workload.run_round(len(round_seconds))
        jobs += done
        round_seconds.append(sum(job.seconds for job in done))
    if rec is not None:
        rec.uninstall()
    rounds = len(round_seconds)

    attempted = sum(job.ops for job in jobs)
    failures = [(job.label, op, reason) for job in jobs for op, reason in job.failures]
    end_to_end = {
        "setup_s": (spans.median(setup_walls), "s"),
        "round_s": (spans.median(round_seconds), "s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024.0, "MB"),
    }
    timings = {"setup_s": setup_walls, "job_s": [job.seconds for job in jobs],
               "round_s": round_seconds}
    own = {"fail_ratio": (spans.fail_ratio(attempted, len(failures)), "1")}
    if workload.ks_batches:
        own["ks_ratio"] = (spans.ks_ratio(workload.ks_batches), "1")
    own_timings, own_metrics = workload.detail(jobs)
    timings.update(own_timings)
    own.update(own_metrics)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{rounds} round(s), {len(jobs)} jobs, {attempted} operations")
    for name, (value, unit) in {**end_to_end, **own}.items():
        print(f"  {name:<22} {value!s:<24} {unit}")
    summaries = {name: spans.timing(values) for name, values in timings.items() if values}
    for name, summary in summaries.items():
        tail = "".join(f", {k} {v:.4g}" for k, v in summary.items() if k.startswith("p"))
        print(f"  {name:<22} median {summary['median']:.4g} s of {summary['count']}{tail}")
    for label, op, reason in failures:
        print(f"  FAILED {label} {op}: {reason}")

    if args.trace:
        extra = workload.layer_extra(rounds)
        metrics = layers.per_layer(workload.span_lists, rounds, extra)
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"rounds": rounds, "spans": workload.span_lists}, fh)
        for name, metric in metrics.items():
            print(f"  {name:<36} {metric['value']!s:<24} {metric['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    detail = {
        "provenance": provenance(args),
        "rounds": rounds,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        "workload_metrics": {name: {"value": v, "unit": u} for name, (v, u) in own.items()},
        "timings": summaries,
        "failures": failures,
        "jobs": [[job.label, job.seconds] for job in jobs],
    }
    print(json.dumps({"detail": detail}))
    wrong = sum(job.wrong for job in jobs)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
