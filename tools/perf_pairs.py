#!/usr/bin/env python3
"""Paired wall-clock comparison of two source trees on the perfbench workloads.

    python3 tools/perf_pairs.py --parent DIR --change DIR [--seed-base 101]
        [--claim WORKLOAD:METRIC] [--label TEXT]
    python3 tools/perf_pairs.py --self-test

For every workload in BENCHMARK.json, runs 10 pairs of
`perfbench/run.py --trace 0`, one run in each tree per pair, on seeds
seed-base, seed-base + 1, ..., seed-base + 9; the side that runs first
alternates from pair to pair. Each tree's own perfbench/run.py
builds and runs it. The run length, metrics, units, directions and bounds
come from BENCHMARK.json at the root of this repository.

For every end-to-end metric it prints the parent's median [Q1, Q3], the
change's median, and how many pairs the change won (ties count for
neither side), then a verdict:

- gain / no gain: the claimed metric (--claim) is a gain when the change
  wins at least 9 of 10 pairs and the medians differ, in the better
  direction, by more than the parent's interquartile range;
- better: every change run beats every parent run;
- unresolved: the relative interquartile range of either side exceeds the
  metric's bound, so a shift within the bound cannot be told from noise;
- regression: the change's median is worse than the parent's by more than
  the bound;
- within bound: otherwise.

It also compares the share of failed operations (perfbench's `failed` /
`attempted`) and of runs that produced no result. The summary, with every
run's values, is appended as one record to BENCH_perfbench.json at the
repository root. --self-test checks the verdict
rules on canned runs and runs nothing. The exit status is 1 when a claim is
not met, a metric regresses or is unresolved, or the change fails a larger
share of operations or runs than the parent.
"""

import argparse
import datetime
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"
PAIRS = 10
GAIN_WIN_SHARE = 0.9
# run.py's own per-run timeout is 170 s, plus a build on the first call.
RUN_TIMEOUT_S = 1800


def quartiles(values):
    """(Q1, median, Q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(spec, parent, change, claimed):
    """Summary and verdict for one metric over paired runs.

    parent[i] and change[i] come from pair i; None marks a run that produced
    no result, and such a pair counts as a win for neither side.
    """
    direction, bound = spec["better"], spec["bound"]
    pairs = list(zip(parent, change))
    p = [v for v in parent if v is not None]
    c = [v for v in change if v is not None]
    wins = sum(1 for a, b in pairs
               if a is not None and b is not None and better(b, a, direction))
    out = {"parent": parent, "change": change, "wins": wins,
           "pairs": len(pairs)}
    if not p or not c:
        out["verdict"] = "unresolved"
        return out
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    out.update(parent_median=p_med, parent_q1=p_q1, parent_q3=p_q3,
               change_median=c_med, change_q1=c_q1, change_q3=c_q3)
    # Relative change of the median, positive when the change is worse.
    delta = c_med - p_med if direction == "lower" else p_med - c_med
    worse_by = delta / abs(p_med) if p_med else (math.inf if delta > 0
                                                 else 0.0)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    out.update(worse_by=worse_by, spread=spread)
    if claimed:
        gain = (wins >= math.ceil(GAIN_WIN_SHARE * PAIRS)
                and better(c_med, p_med, direction)
                and abs(c_med - p_med) > p_q3 - p_q1)
        out["verdict"] = "gain" if gain else "no gain"
    elif all(better(b, a, direction) for a in p for b in c):
        out["verdict"] = "better"
    elif spread > bound:
        out["verdict"] = "unresolved"
    elif worse_by > bound:
        out["verdict"] = "regression"
    else:
        out["verdict"] = "within bound"
    return out


def failure_shares(results):
    """(failed operations / attempted, runs without a result / runs)."""
    attempted = sum(r["attempted"] for r in results if r)
    failed = sum(r["failed"] for r in results if r)
    ops = failed / attempted if attempted else 1.0
    return ops, sum(1 for r in results if not r) / len(results)


def run_once(tree, workload, seed, seconds):
    """The result object perfbench prints last, or None when the run failed."""
    command = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=tree, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def compare(bench, parent_runs, change_runs, claim_metric):
    """Verdicts for one workload from its paired run results."""
    def values(runs, name):
        return [r["metrics"][name]["value"]
                if r and name in r["metrics"] else None for r in runs]

    metrics = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        metrics[name] = verdict(spec, values(parent_runs, name),
                                values(change_runs, name),
                                claimed=(name == claim_metric))
    p_ops, p_runs = failure_shares(parent_runs)
    c_ops, c_runs = failure_shares(change_runs)
    return {"metrics": metrics,
            "failed_ops_share": {"parent": p_ops, "change": c_ops},
            "failed_runs_share": {"parent": p_runs, "change": c_runs},
            "more_failures": c_ops > p_ops or c_runs > p_runs}


def ok(summary):
    return not summary["more_failures"] and all(
        m["verdict"] not in ("regression", "no gain", "unresolved")
        for m in summary["metrics"].values())


def report(workload, summary, units):
    print(f"\n== {workload}")
    print(f"{'metric':<16} {'parent median [Q1, Q3]':>34} {'change':>11} "
          f"{'wins':>6}  verdict")
    for name, m in summary["metrics"].items():
        if "parent_median" in m:
            parent = (f"{m['parent_median']:.4g} [{m['parent_q1']:.4g}, "
                      f"{m['parent_q3']:.4g}] {units[name]}")
            change = f"{m['change_median']:.4g}"
        else:
            parent, change = "-", "-"
        print(f"{name:<16} {parent:>34} {change:>11} "
              f"{m['wins']:>3}/{m['pairs']:<2}  {m['verdict']}")
    ops, runs = summary["failed_ops_share"], summary["failed_runs_share"]
    print(f"failed ops share {ops['parent']:.4g} -> {ops['change']:.4g}; "
          f"failed runs share {runs['parent']:.4g} -> {runs['change']:.4g}",
          flush=True)


def append_record(record):
    records = json.loads(RECORD.read_text()) if RECORD.is_file() else []
    records.append(record)
    text = json.dumps(records, indent=1)
    # One line per list of run values.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    RECORD.write_text(text + "\n")


def self_test():
    """Checks the verdict rules on canned runs; returns the failure count."""
    lower = {"better": "lower", "bound": 0.25}
    higher = {"better": "higher", "bound": 0.25}
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    cases = [
        ("10/10 win is a gain", lower, base, [v * 0.5 for v in base], True,
         "gain"),
        ("8/10 win is no gain", lower, base,
         [v * 0.5 for v in base[:8]] + [v * 1.1 for v in base[8:]], True,
         "no gain"),
        ("a gain inside the parent's IQR is no gain", lower, base,
         [v - 0.01 for v in base], True, "no gain"),
        ("a claim in the worse direction is no gain", higher, base,
         [v * 0.5 for v in base], True, "no gain"),
        ("regression inside its bound", lower, base,
         [v * 1.1 for v in base], False, "within bound"),
        ("regression past its bound", lower, base,
         [v * 1.4 for v in base], False, "regression"),
        ("drop of a higher-is-better metric past its bound", higher, base,
         [v * 0.6 for v in base], False, "regression"),
        ("spread past its bound is unresolved", lower, base,
         [5.0, 15.0, 6.0, 14.0, 5.5, 14.5, 6.5, 13.5, 5.0, 15.0], False,
         "unresolved"),
        ("every change run better is better despite the spread", lower,
         [20.0, 30.0, 21.0, 29.0, 20.0, 30.0, 22.0, 28.0, 20.0, 30.0], base,
         False, "better"),
        ("missing runs are no wins", lower, base,
         [v * 0.5 for v in base[:8]] + [None, None], True, "no gain"),
    ]
    failures = 0
    for name, spec, parent, change, claimed, expected in cases:
        got = verdict(spec, parent, change, claimed)["verdict"]
        status = "ok  " if got == expected else "FAIL"
        failures += got != expected
        print(f"{status} {name}: {got}")

    run = {"attempted": 100, "failed": 0, "metrics": {}}
    flaky = {"attempted": 100, "failed": 3, "metrics": {}}
    shares = [
        ("equal failure shares pass", [run, run], [run, run], False),
        ("more failed operations fail", [run, run], [run, flaky], True),
        ("a run without a result fails", [run, run], [run, None], True),
    ]
    bench = {"end_to_end": []}
    for name, parent, change, expected in shares:
        got = compare(bench, parent, change, None)["more_failures"]
        status = "ok  " if got == expected else "FAIL"
        failures += got != expected
        print(f"{status} {name}: more_failures={got}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seed-base", type=int, default=101)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--label", default="",
                        help="what the change is, for the record")
    args = parser.parse_args()
    if args.self_test:
        failures = self_test()
        print("self-test " + ("passed" if not failures else
                              f"failed: {failures} case(s)"))
        return 1 if failures else 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    claim_workload, claim_metric = None, None
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in workloads or claim_metric not in {
                s["name"] for s in bench["end_to_end"]}:
            parser.error(f"--claim {args.claim}: unknown workload or metric")
    units = {s["name"]: s["unit"] for s in bench["end_to_end"]}
    seeds = [args.seed_base + i for i in range(PAIRS)]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    summaries = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                result = run_once(trees[side], workload, seed, seconds)
                runs[side].append(result)
                print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} "
                      f"{side}: {'ok' if result else 'no result'}",
                      file=sys.stderr, flush=True)
        summaries[workload] = compare(
            bench, runs["parent"], runs["change"],
            claim_metric if workload == claim_workload else None)
        report(workload, summaries[workload], units)

    passed = all(ok(s) for s in summaries.values())
    print("\nverdict: " + ("pass" if passed else "FAIL"))
    append_record({
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "pairs": PAIRS, "seeds": seeds, "seconds": seconds,
        "claim": args.claim, "pass": passed, "workloads": summaries})
    print(f"appended a record to {RECORD}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
