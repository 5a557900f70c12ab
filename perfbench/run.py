#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and with it the libraries
under src/) into .bench_build/perfbench, then:

  --trace 0  runs the plain binary: several set-ups, then repetitions of the
             workload for --seconds, and prints the end-to-end metrics as
             medians over repetitions;
  --trace 1  runs one repetition on the plain binary and one on the traced
             binary, then one traced repetition on SCALING_LANES lanes or
             threads, prints the per-layer metrics, and writes a span table
             and a Chrome trace under .bench_build/perfbench-out/.

Before each repetition the workload binary moves itself onto the CPUs that
run a short probe loop fastest (one per lane or thread); see main.cc.

Every run checks its outputs; the last line of stdout is the JSON result.
Workloads, lane counts and held-out seeds are in perfbench/workloads.json;
README.md describes the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_TYPE = "RelWithDebInfo"
# Lanes or trainer threads of the traced run that measures scaling; the
# workloads themselves run on the lane count in workloads.json.
SCALING_LANES = 2

# (name, unit); the definitions are in README.md.
END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("worker_cpu_util", "share"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (see {log_path})")


def run_binary(binary, workload, seed, lanes, setups, reps=0, seconds=0,
               trace_out=None):
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--lanes", str(lanes), "--setups", str(setups)]
    cmd += ["--reps", str(reps)] if reps else ["--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{binary} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(r):
    run_s = statistics.median(r["run_s"])
    return {
        "run_s": run_s,
        "setup_s": statistics.median(r["setup_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "throughput_per_s": r["work"] / run_s,
        "worker_cpu_util": r["worker_cpu_util"],
    }


def outcome_lines(r):
    keys = ["jct_mean_h", "final_auc", "completion_rate", "windows",
            "control_sent", "control_retries", "cordons", "stale_plan_applies",
            "exactly_once_violations", "unfinished", "hardware_threads"]
    return [f"  {k}: {r[k]}" for k in keys] + [
        f"  repetitions: {len(r['run_s'])}, run_s {r['run_s']}",
        f"  fingerprints: {sorted(set(r['fingerprints']))}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; have {sorted(workloads)}")
    spec = workloads[args.workload]
    lanes = spec["lanes"]
    build()

    checks = []
    if args.trace == 0:
        r = run_binary("perfbench_plain", args.workload, args.seed, lanes,
                       spec["setups"], seconds=args.seconds)
        runs = [r]
        metrics = {name: {"value": end_to_end(r)[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"{args.workload} seed {args.seed}, {lanes} lanes/threads, "
              f"build {BUILD_TYPE}")
        for name, m in metrics.items():
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
        print("\n".join(outcome_lines(r)))
    else:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
        plain = run_binary("perfbench_plain", args.workload, args.seed, lanes,
                           0, reps=1)
        traced = run_binary("perfbench_traced", args.workload, args.seed,
                            lanes, 0, reps=1, trace_out=stem + ".spans.json")
        runs = [plain, traced]
        dump = layers.load(stem + ".spans.json")
        wide = run_binary("perfbench_traced", args.workload, args.seed,
                          SCALING_LANES, 0, reps=1,
                          trace_out=stem + ".wide.spans.json")
        runs.append(wide)
        dump_n = layers.load(stem + ".wide.spans.json")
        values = layers.metrics(dump, lanes, plain, traced, dump_n,
                                SCALING_LANES, wide)
        units = {name: unit for name, unit, _ in layers.per_layer_catalog()}
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        report = [layers.span_table(
            dump, f"{args.workload} seed {args.seed}: spans at {lanes} lane(s)")]
        if plain["windows"] > 0:
            report += layers.amdahl_lines(dump, lanes, dump_n, SCALING_LANES)
        report.append(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
                      f"({100 * values['trace.overhead_share']:.1f}% of the "
                      f"untraced run)")
        with open(stem + ".layers.txt", "w") as f:
            f.write("\n".join(report) + "\n")
        layers.chrome_trace(dump, stem + ".chrome.json")
        print("\n".join(report))
        print(f"wrote {stem}.layers.txt and {stem}.chrome.json")
        fingerprints = {fp for r in runs for fp in r["fingerprints"]}
        if len(fingerprints) > 1:
            checks.append("outcome fingerprint differs between the plain, "
                          "traced and wider traced runs")

    for r in runs:
        if not r["correct"]:
            checks.append(r["why_incorrect"])
    for check in checks:
        print(f"CHECK FAILED: {check}")
    print(json.dumps({
        "correct": not checks,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
