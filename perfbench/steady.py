#!/usr/bin/env python3
"""Steadiness of the dsgm benchmark's end-to-end metrics.

Run each workload N times untraced, each with its own seed, and summarise:

    python3 perfbench/steady.py run --runs 10 --first-seed 1 --out set_a.json
    python3 perfbench/steady.py run --workloads tcp_alarm_exact --runs 5 --out t.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the quartile spread as
a share of the median, and max/min; and the share of failed operations.
Compare two such sets, which is how the bounds in BENCHMARK.json are set:

    python3 perfbench/steady.py compare set_a.json set_b.json

A metric passes when its spread in each set stays within its bound and the
second median is not worse than the first by more than
the bound. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(spec, results):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, correct in {sum(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
              f"{'max/min':>8} {'bound':>6}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = spread(values)
            rel = (q3 - q1) / med if med else float("inf")
            ratio = max(values) / min(values) if min(values) else float("inf")
            print(f"  {name:22} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} "
                  f"{ratio:8.4f} {meta['bound']:6.3f}")


def cmd_run(args):
    spec = bench_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(spec, workload, seed)
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    summarise(spec, results)
    return 0


def cmd_compare(args):
    spec = bench_spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for workload in first:
        if workload not in second:
            continue
        a_runs, b_runs = first[workload], second[workload]
        share_a = {r["failed"] / r["attempted"] for r in a_runs}
        share_b = {r["failed"] / r["attempted"] for r in b_runs}
        print(f"\n{workload}: failed share {sorted(share_a)} vs {sorted(share_b)}")
        ok &= share_a == share_b and len(share_a) == 1
        for meta in spec["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            qa, qb = spread(a), spread(b)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            worse = (qb[1] - qa[1]) / qa[1]
            if meta["better"] == "higher":
                worse = -worse
            passes = worse <= bound and spread_a <= bound and spread_b <= bound
            ok &= passes
            print(f"  {name:22} median {qa[1]:12.6g} -> {qb[1]:12.6g} worse {worse:+.4f} "
                  f"spreads {spread_a:.4f}/{spread_b:.4f} bound {bound:.3f} "
                  f"{'ok' if passes else 'FAIL'}")
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", default="", help="comma list; default all")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out", default="")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
