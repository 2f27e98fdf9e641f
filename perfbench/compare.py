#!/usr/bin/env python3
"""Record sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py record OUT.jsonl --workload paper-grid --seeds 0-9
    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl

``record`` appends one line per untraced run of ``perfbench/run.py``.
``spread`` prints, per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over median) against the
metric's bound.
``diff`` prints both sides' medians and quartiles and the share of pairs
(i-th run of each side) that the change won, then a verdict: *regression*
when the change's median is worse by more than the bound, *unresolved*
when either side's spread is wider than the bound (unless every change run
beats every parent run), *win* when the change wins at least nine pairs in
ten and the medians differ by more than the parent's spread, else *same*.
To pair runs fairly, record the two sides alternately.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def record(args):
    spec, _ = _spec()
    with open(args.out, "a") as sink:
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"run failed: {' '.join(cmd)}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            sink.write(json.dumps({"workload": args.workload, "seed": seed,
                                   "result": result}) + "\n")
            sink.flush()
            print(f"{args.workload} seed {seed}: "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"correct={result['correct']}", flush=True)


def _load(path):
    """{workload: {metric: [values in run order]}}, and the failed share
    of every run per workload."""
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(set)
    for line in Path(path).read_text().splitlines():
        run = json.loads(line)
        result = run["result"]
        failed[run["workload"]].add(
            (result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values[run["workload"]][name].append(metric["value"])
    return values, failed


def _summary(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
        else (vals[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spread(args):
    _, metrics = _spec()
    values, failed = _load(args.runs)
    for workload, by_metric in values.items():
        print(f"{workload}: failed share / correct {sorted(failed[workload])}")
        for name, vals in by_metric.items():
            med, q1, q3, rel = _summary(vals)
            bound = metrics[name]["bound"]
            flag = "ok" if rel < bound / 3 else (
                "wide" if rel <= bound else "OVER BOUND")
            print(f"  {name:14s} n={len(vals):2d} median {med:12.5g} "
                  f"[{q1:.5g}, {q3:.5g}] spread {rel:6.1%} of bound "
                  f"{bound:.0%}: {flag}")


def diff(args):
    _, metrics = _spec()
    parent, _ = _load(args.parent)
    change, _ = _load(args.change)
    for workload in sorted(set(parent) & set(change)):
        print(workload)
        for name, meta in metrics.items():
            a, b = parent[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            lower = meta["better"] == "lower"
            a_med, a_q1, a_q3, a_rel = _summary(a)
            b_med, b_q1, b_q3, b_rel = _summary(b)
            pairs = list(zip(a, b))
            won = sum(1 for x, y in pairs if (y < x if lower else y > x))
            worse = (b_med - a_med) / a_med * (1 if lower else -1)
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if worse > meta["bound"]:
                verdict = "regression"
            elif max(a_rel, b_rel) > meta["bound"] and not all_better:
                verdict = "unresolved"
            elif won >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
                verdict = "win"
            else:
                verdict = "same"
            print(f"  {name:14s} parent {a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}]"
                  f"  change {b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]"
                  f"  won {won}/{len(pairs)}  {worse:+.1%} worse"
                  f"  bound {meta['bound']:.0%}: {verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="append runs to a JSONL file")
    rec.add_argument("out")
    rec.add_argument("--workload", required=True)
    rec.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    rec.set_defaults(fn=record)
    spr = sub.add_parser("spread", help="run-to-run spread of one set")
    spr.add_argument("runs")
    spr.set_defaults(fn=spread)
    dif = sub.add_parser("diff", help="compare two sets of runs")
    dif.add_argument("parent")
    dif.add_argument("change")
    dif.set_defaults(fn=diff)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
