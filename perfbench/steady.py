#!/usr/bin/env python3
"""Steadiness report: run one workload N times with distinct seeds and print
the median and quartiles of every metric.

    python3 perfbench/steady.py --workload mlp-tcp-open --runs 10
    python3 perfbench/steady.py --workload zoo-tcp-closed --runs 5 --trace 1

Run from the repository root. The command, run length and bounds come from
BENCHMARK.json. For each end-to-end metric the report gives the spread as
(Q3 - Q1) / median, with quartiles from statistics.quantiles(values, n=4),
next to the metric's bound. The spread of setup_s is shown but not held to
its bound: set-up time drifts with the host between processes, so its bound
applies to the shift of the median between two sets of runs (compare two
reports with --against).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(argv)}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect run: seed {seed}: {result}")
    return result


def summarize(results):
    names = list(results[0]["metrics"])
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        rows[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                      "q1": q1, "q3": q3, "spread": spread, "values": values}
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    ap.add_argument("--json", help="write the summary here")
    ap.add_argument("--against", help="a summary written earlier with --json, to compare medians")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        results.append(run_once(bench["command"], args.workload, seed, seconds, args.trace))
        print(f"  run {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr)
    rows = summarize(results)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["metrics"]

    print(f"workload {args.workload}: {args.runs} runs, {seconds} s each, trace {args.trace}")
    print(f"{'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for name, r in rows.items():
        b = bounds.get(name)
        verdict = ""
        if b and args.trace == 0:
            bound = b["bound"]
            if name == "setup_s":
                verdict = "set-up: spread not gated"
            elif r["spread"] > bound:
                verdict, worst = "TOO NOISY", "too noisy"
            elif r["spread"] > bound / 3:
                verdict = "within bound, above a third"
                worst = "marginal" if worst == "steady" else worst
            else:
                verdict = "ok"
            if earlier and name in earlier:
                a, m = earlier[name]["median"], r["median"]
                worse = (m - a) / abs(a) if b["better"] == "lower" else (a - m) / abs(a)
                verdict += f"; median shift {worse:+.3f} vs earlier"
                if worse > bound:
                    verdict += " EXCEEDS BOUND"
                    worst = "drifted"
        print(f"{name:<44} {r['median']:>14.6g} {r['q1']:>14.6g} {r['q3']:>14.6g} "
              f"{r['spread']:>8.4f} {(b or {}).get('bound', ''):>6}  {verdict}")
    print(f"verdict: {worst}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "runs": args.runs, "seconds": seconds,
                       "trace": args.trace, "metrics": rows}, f, indent=1)


if __name__ == "__main__":
    main()
