#!/usr/bin/env python3
"""A/B comparison and stability runs for the perfbench benchmark.

Each DIR below is the root of a checkout of this repository (the directory
holding BENCHMARK.json). The benchmark command, run length, workloads,
metrics and bounds come from BENCHMARK.json; an A/B comparison uses the
parent's. Each checkout builds into its own `.bench_build` directory.

A/B rule (what a change that claims a gain must show):

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR \
        [--pairs 10] [--workloads cold_sweep,service_mix] [--seed-base 1000]

  Runs at least 10 parent/change pairs per workload, alternating which side
  runs first; both sides of a pair get the same seed. Per end-to-end metric:
  - "gain" when the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's IQR;
  - "unresolved" when the parent's IQR is wider than the metric's bound,
    unless every change run reads better than every parent run;
  - "regression" when the change's median is worse than the parent's by
    more than the bound; "no regression" otherwise.
  A change that fails a larger share of operations than the parent, or any
  incorrect run, is reported and voids every gain.

Stability (how the bounds were set):

    python3 perfbench/compare.py --stability [--checkout DIR] [--runs 5]

  Runs two sets of at least 5 runs per workload, one after the other, with
  the same seeds in both sets. Prints, per workload and end-to-end metric,
  each set's median and spread (IQR over median) and the distance between
  the two medians against the metric's bound. It also checks that every
  seed's results digest and simulated counts repeat exactly across the
  sets, then makes one traced run per workload and checks that it emits
  every per-layer metric and that its span file passes
  scripts/check_telemetry_schema.py --spans.

Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed, trace=False):
    """One benchmark run; returns (result object, detail object)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    # Exit 1 means a run that completed but failed operations: its result
    # line still counts (as incorrect). Anything else is a broken run.
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.exit(f"compare: {workload} seed {seed} in {checkout} exited {proc.returncode}:\n{proc.stdout}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def worse_by(metric, change, parent):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    d = (change - parent) / parent
    return d if metric["better"] == "lower" else -d


def failed_share(results):
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def ab(args):
    bench = load_benchmark(args.parent)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, bench, w, seed)[0])
        fp, fc = failed_share(runs["parent"]), failed_share(runs["change"])
        incorrect = [s for s in runs if not all(r["correct"] for r in runs[s])]
        voided = fc > fp or incorrect
        print(f"\n{w}: {args.pairs} pairs; failed share parent {fp:.4f} change {fc:.4f}"
              + (f"; incorrect runs on {', '.join(incorrect)}" if incorrect else ""))
        print(f"  {'metric':<20} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'wins':>6}  verdict")
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            wins = sum(better(m, cv, pv) for pv, cv in zip(p, c))
            all_better = all(better(m, cv, pv) for cv in c for pv in p)
            if better(m, cmed, pmed) and wins >= 0.9 * len(p) and abs(cmed - pmed) > pq3 - pq1 and not voided:
                verdict = "gain"
            elif (pq3 - pq1) / pmed > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by(m, cmed, pmed) > m["bound"]:
                verdict, ok = "regression", False
            else:
                verdict = "no regression"
            print(f"  {m['name']:<20} {pmed:>12.6g} [{pq1:.6g}, {pq3:.6g}] {cmed:>12.6g} [{cq1:.6g}, {cq3:.6g}]"
                  f" {wins:>3}/{len(p):<2}  {verdict}")
        ok = ok and not voided
    return 0 if ok else 1


def stability(args):
    checkout = args.checkout
    bench = load_benchmark(checkout)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        sets = []
        for _ in range(2):
            sets.append([run_once(checkout, bench, w, args.seed_base + i) for i in range(args.runs)])
        print(f"\n{w}: 2 sets x {args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"  {'metric':<20} {'bound':>6} {'A median':>12} {'A spread':>9} {'B median':>12} {'B spread':>9} {'|B-A|/A':>8}")
        for m in bench["end_to_end"]:
            meds, spreads = [], []
            for runs in sets:
                v = [res["metrics"][m["name"]]["value"] for res, _ in runs]
                q1, med, q3 = quartiles(v)
                meds.append(med)
                spreads.append((q3 - q1) / med)
            drift = abs(meds[1] - meds[0]) / meds[0]
            flags = []
            if m["name"] != "setup_s" and max(spreads) > m["bound"]:
                flags.append("SPREAD>BOUND")
            elif m["name"] != "setup_s" and max(spreads) > m["bound"] / 3:
                flags.append("spread>bound/3")
            if drift > m["bound"]:
                flags.append("DRIFT>BOUND")
            ok = ok and not any(f.isupper() for f in flags)
            print(f"  {m['name']:<20} {m['bound']:>6.2f} {meds[0]:>12.6g} {spreads[0]:>9.4f} {meds[1]:>12.6g}"
                  f" {spreads[1]:>9.4f} {drift:>8.4f}  {' '.join(flags)}")
            for label, runs in zip("AB", sets):
                print(f"    {label}: " + " ".join(f"{res['metrics'][m['name']]['value']:.6g}" for res, _ in runs))
        for i in range(args.runs):
            (ra, da), (rb, db) = sets[0][i], sets[1][i]
            if da["results_digest"] != db["results_digest"] or not (ra["correct"] and rb["correct"]):
                print(f"  seed {args.seed_base + i}: digest {da['results_digest']} vs {db['results_digest']},"
                      f" correct {ra['correct']}/{rb['correct']}  MISMATCH")
                ok = False
        ok = check_traced(checkout, bench, w, args.seed_base) and ok
    return 0 if ok else 1


def check_traced(checkout, bench, workload, seed):
    """Two traced runs: every per-layer metric present, simulated counts
    repeating exactly, and a schema-valid span file."""
    names = [m["name"] for m in bench["per_layer"]]
    counts = ("core.ipc.", "branch.", "uoc.", "mem.", "dram.", "prefetch.")
    seen = []
    for _ in range(2):
        res, _ = run_once(checkout, bench, workload, seed, trace=True)
        missing = [n for n in names if n not in res["metrics"]]
        if missing or not res["correct"]:
            print(f"  traced: correct {res['correct']}, missing {missing}  FAIL")
            return False
        seen.append({n: res["metrics"][n]["value"] for n in names if n.startswith(counts)})
    if seen[0] != seen[1]:
        diff = [n for n in seen[0] if seen[0][n] != seen[1][n]]
        print(f"  traced: simulated counts differ between runs: {diff}  FAIL")
        return False
    spans = os.path.join(checkout, ".bench_build", "perfbench", f"spans-{workload}.jsonl")
    schema = subprocess.run([sys.executable, os.path.join(checkout, "scripts", "check_telemetry_schema.py"),
                             "--spans", spans], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    overhead = res["metrics"].get("trace_overhead_frac", {}).get("value")
    print(f"  traced: {len(names)} per-layer metrics, counts repeat, trace_overhead_frac {overhead}, "
          f"spans: {schema.stdout.strip()}")
    return schema.returncode == 0


def main():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="parent checkout root")
    ap.add_argument("--change", help="change checkout root")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--stability", action="store_true")
    ap.add_argument("--checkout", default=here, help="checkout root for --stability (default: this one)")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads", type=lambda s: s.split(","), default=None)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    if args.stability:
        if args.runs < 5:
            ap.error("--stability needs at least 5 runs per set")
        return stability(args)
    if not (args.parent and args.change):
        ap.error("give --parent and --change, or --stability")
    if args.pairs < 10:
        ap.error("the A/B rule needs at least 10 pairs")
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
