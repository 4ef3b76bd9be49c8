#!/usr/bin/env python3
"""The repository benchmark: builds bench/perf, runs its workloads, checks
their answers and prints every metric.

Run from the repository root:

  python3 bench/perf/run.py                      # every workload, seed 1
  python3 bench/perf/run.py --workload serve_hit --seed 3
  python3 bench/perf/run.py --workload vgb_lu --trace 1    # per-layer run
  python3 bench/perf/run.py --selftest

Each workload runs in a fresh fpm_perf process for run_seconds of
BENCHMARK.json; --seconds, when given, must equal it, so that every result
measures the same run length. Every metric is printed as
`workload metric value unit` (timings also with their sample count), a
result file annotated with the host is written under bench/perf/results/
(or --out), and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, whose metrics are the
end_to_end set of BENCHMARK.json (--trace 0) or its per_layer set
(--trace 1). The exit code is 0 only when every answer was correct.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
RESULTS = os.path.join(HERE, "results")
BINARY = os.path.join(BUILD, "fpm_perf")
WORKLOAD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds fpm_perf; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "partition.hpp")):
        raise BenchError(f"no fpmlib sources under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "fpm_perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_workload(name, seed, seconds, trace):
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(RESULTS, f"spans-{name}.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=WORKLOAD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: fpm_perf exited {proc.returncode} "
                         "without a result")
    return json.loads(lines[-1])


def host_info(runs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    first = runs[0]["host"] if runs else {}
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "simd_backend": first.get("simd_backend"),
            "compiler": first.get("compiler"), "git_sha": sha}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="result file (default: under results/)")
    parser.add_argument("--selftest", action="store_true",
                        help="check quantile indexing, windows, span "
                             "arithmetic and the compare.py verdicts")
    args = parser.parse_args()

    try:
        bench = spec()
        seconds = bench["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            raise BenchError(f"--seconds {args.seconds:g}: the run length is "
                             f"run_seconds = {seconds} in BENCHMARK.json")
        build()
        if args.selftest:
            compare = os.path.join(HERE, "compare.py")
            return max(subprocess.run([BINARY, "--selftest"]).returncode,
                       subprocess.run([sys.executable, compare,
                                       "--selftest"]).returncode)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(names)}")
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        os.makedirs(RESULTS, exist_ok=True)

        runs = []
        for name in [args.workload] if args.workload else names:
            run = run_workload(name, args.seed, seconds, args.trace)
            runs.append(run)
            for p in run["problems"]:
                print(f"{name}: PROBLEM {p}", file=sys.stderr)
            for p in run.get("invalid", []):
                print(f"{name}: INVALID {p}", file=sys.stderr)
            missing = [m["name"] for m in wanted
                       if m["name"] not in run["metrics"]]
            if run["correct"] and missing:
                raise BenchError(f"{name}: no value for {', '.join(missing)}")
            # Every metric the run measured; an untraced run also measures
            # the window timings of the per-layer set.
            for metric, got in run["metrics"].items():
                line = f"{name} {metric} {got['value']!r} {got['unit']}"
                if got["samples"]:
                    line += f" samples={got['samples']}"
                print(line)

        out = args.out or os.path.join(
            RESULTS, f"{args.workload or 'all'}-seed{args.seed}"
                     f"-trace{args.trace}.json")
        with open(out, "w") as f:
            json.dump({"host": host_info(runs), "time": time.time(),
                       "runs": runs}, f, indent=1)
            f.write("\n")

        correct = all(r["correct"] for r in runs)
        metrics = {}
        for r in runs:
            for m in wanted:
                got = r["metrics"].get(m["name"])
                if got is None:
                    continue
                key = m["name"]
                if not args.workload:
                    key = f"{r['workload']}.{key}"
                metrics[key] = {"value": got["value"], "unit": got["unit"]}
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": sum(r["failed"] for r in runs),
                          "metrics": metrics}))
        return 0 if correct else 1
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
