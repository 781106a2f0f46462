#!/usr/bin/env python3
"""Steadiness report: two sets of benchmark runs of the same build.

Runs the command of BENCHMARK.json `--runs` times per workload per set, for
`run_seconds` each, with seeds 1, 2, ... (every run its own seed), workloads
interleaved.  For every (workload, end-to-end metric) pair it prints each
set's median and quartiles (`statistics.quantiles(n=4)`), the spread
(Q3 - Q1) / median, and whether the two sets agree within the metric's
bound:

* each set's spread is within the bound, except for setup_s, and
* the two medians differ by no more than the bound, in either direction
  (measured against the first set's median), setup_s included.

setup_s is exempt from the spread check, as in the benchmark's acceptance
rule: set-up is a few milliseconds of allocation whose spread between
processes is 0.1-0.4 on the 2-vCPU guest the benchmark was tuned on, whatever
the number of repeats inside a run (15 and 45 measured alike).  Its spread is
still printed.

It also flags spreads of a third of the bound or more, the margin the
benchmark is tuned to.  Run from the repository root:

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.md
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# The report compares two sets of runs of the same build.
SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: {' '.join(args)}\n{proc.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--out", default=None, help="also write the report here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # samples[set][workload][metric] -> list of values
    samples = [{w: {m["name"]: [] for m in metrics} for w in workloads}
               for _ in range(SETS)]
    started = time.time()
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                got = run_once(bench["command"], w, seed, seconds)
                for m in metrics:
                    samples[s][w][m["name"]].append(got[m["name"]])
                print(f"set {s + 1} run {i + 1} {w} seed {seed} "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)

    out = [f"# Steadiness report",
           "",
           f"{SETS} sets x {args.runs} runs per workload, {seconds} s per run, "
           f"seeds 1..{SETS * args.runs}.",
           "Spread = (Q3 - Q1) / median. `agree` = both spreads within the bound "
           "(setup_s exempt, see steadiness.py) and the two medians within the bound "
           "of each other, in either direction. "
           "`margin` = both spreads below a third of the bound.",
           "",
           "| workload | metric | bound | set | median | Q1 | Q3 | spread | agree | margin |",
           "|---|---|---|---|---|---|---|---|---|---|"]
    all_agree = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sums = [summary(samples[s][w][name]) for s in range(SETS)]
            agree = (all(name == "setup_s" or sp <= bound for (_, _, _, sp) in sums)
                     and abs(sums[1][0] - sums[0][0]) / sums[0][0] <= bound)
            margin = all(sp < bound / 3 for (_, _, _, sp) in sums)
            all_agree &= agree
            for s, (med, q1, q3, sp) in enumerate(sums):
                out.append(f"| {w} | {name} | {bound} | {s + 1} | {med:.6g} | {q1:.6g} | "
                           f"{q3:.6g} | {sp:.4f} | {'yes' if agree else 'NO'} | "
                           f"{'yes' if margin else 'no'} |")
    out.append("")
    out.append("Raw values, in run order:")
    out.append("")
    for w in workloads:
        for m in metrics:
            for s in range(SETS):
                vals = " ".join(f"{v:.6g}" for v in samples[s][w][m["name"]])
                out.append(f"- {w} {m['name']} set {s + 1}: {vals}")
    out.append("")
    out.append(f"Overall: {'all pairs agree' if all_agree else 'SOME PAIRS DISAGREE'}.")
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
