#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
caches and temporary files live under ``.perfbench-tmp/`` in the checkout
and are removed on exit.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.

Every set-up and every round runs in a fresh interpreter (this script with
``--child``), so each starts with the program's in-process caches empty and
a repeated round cannot reuse the work of an earlier one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
WORKLOADS = ("paper-grid", "dac-sweep", "certify-corpus")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 15
#: Bounds on cProfile's total self time as a share of the wall time the
#: profiler was on.
PROFILE_COVERAGE = (0.9, 1.0)
#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 170

#: Spans every workload enters, reported in self seconds.
SECONDS_SPANS = ("workloads.launch", "workloads.round_launch",
                 "compiler.decouple", "compiler.verify", "analysis.certify")
#: Spans some workload never enters, reported as a share of the round.
SHARE_SPANS = ("sim.gpu_init", "sim.run", "harness.cache_store",
               "harness.cache_load")
CALL_NAMES = {"harness.cache_store": "harness.cache_stores",
              "harness.cache_load": "harness.cache_loads"}
MODEL_COUNTS = ("model.cycles", "model.warp_instructions",
                "model.affine_warp_instructions", "model.l1_accesses",
                "model.l1_misses", "model.l2_accesses", "model.dram_reads",
                "model.dac_records", "compiler.affine_insts",
                "compiler.nonaffine_insts")

#: Environment that would route cells elsewhere or inject faults.
_REPRO_ENV = ("REPRO_JOBS", "REPRO_CHAOS",
              "REPRO_CHAOS_DIR", "REPRO_CHAOS_LOG", "REPRO_SERVICE_STATE")


def _isolate(scratch: Path) -> None:
    """Keep the program's disk cache and daemon socket inside the run's
    own directory, and drop settings that change how cells run."""
    for key in _REPRO_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    os.environ["REPRO_SERVICE_SOCKET"] = str(scratch / "no-daemon.sock")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Child: one set-up or one round in this interpreter.

def child(name, seed, mode, scratch) -> dict:
    """``mode`` is ``setup`` (time import + input building), ``plain`` (one
    round), ``spans`` (one round under span wrappers) or ``profile`` (one
    round under cProfile, which also covers import and set-up)."""
    start = perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    profiler = None
    if mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiled_from = perf_counter()
        profiler.enable()
    import perf_workloads as bw
    workload = bw.WORKLOADS[name](seed, scratch, _nproc())
    spans = None
    if mode == "spans":
        import perf_trace as bt
        spans = bt.Spans()
        spans.install()
    workload.setup()
    if mode == "setup":
        return {"setup_s": perf_counter() - start}
    if spans is not None:
        spans.in_round = True
    clock = bw.Clock(profiler, spans)
    rnd = workload.run_round(clock, traced=mode != "plain")
    if profiler is not None:
        profiler.disable()
        # Wall time the profiler was on: it is off while outputs are checked.
        rnd.extra["profiled_s"] = (perf_counter() - profiled_from
                                   - clock.check_s)
    rnd.wall_s, rnd.check_s = clock.timed_s, clock.check_s
    out = dict(vars(rnd), counts=dict(rnd.counts))
    # A forked pool worker's maximum includes the pages it shares with this
    # process, so the two maxima are not added: the larger one is reported.
    out["peak_rss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if spans is not None:
        spans.uninstall()
        out["spans"] = {"self_s": spans.self_s, "calls": spans.calls,
                        "cache_hits": spans.cache_hits}
    if profiler is not None:
        import perf_trace as bt
        out["buckets"], out["total_s"] = bt.profile_buckets(profiler)
    return out


def _spawn(name, seed, mode, scratch) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--child", mode, "--scratch", str(scratch)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: the end-to-end run and the traced run.

def untraced(name, seed, seconds, scratch):
    setup_s = statistics.median(
        _spawn(name, seed, "setup", scratch)["setup_s"]
        for _ in range(SETUP_REPS))
    rounds, spent = [], 0.0
    while True:                 # whole rounds; at least one
        rnd = _spawn(name, seed, "plain", scratch)
        rounds.append(rnd)
        spent += rnd["wall_s"]
        if spent + rnd["wall_s"] > seconds:
            break
    latencies = [lat for rnd in rounds for lat in rnd["latencies"]]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds),
                          "s"),
        "op_geomean_ms": _metric(
            1000.0 * statistics.geometric_mean(latencies), "ms"),
        "peak_rss_mb": _metric(
            max(r["peak_rss_kib"] for r in rounds) / 1024.0, "MB"),
    }
    return rounds, metrics


def traced(name, seed, seconds, scratch):
    """One round under spans, then one under cProfile, each in its own
    interpreter; ``trace.overhead_s`` is the profiled round's extra wall."""
    ref = _spawn(name, seed, "spans", scratch)
    prof = _spawn(name, seed, "profile", scratch)
    if prof["counts"] != ref["counts"]:
        ref["wrong"].append("model/IR counts differ between the two rounds")
    # The buckets sum to prof.total_s by construction; what is checked is
    # that the profile accounts for the wall time the profiler was on.
    buckets, total = prof["buckets"], prof["total_s"]
    profiled = prof["extra"]["profiled_s"]
    lo, hi = PROFILE_COVERAGE
    if not lo * profiled <= total <= hi * profiled:
        ref["wrong"].append(f"profile total {total:.2f} s is not within "
                            f"{lo:.0%}-{hi:.0%} of the {profiled:.2f} s "
                            "the profiler was on")

    self_s, calls = ref["spans"]["self_s"], ref["spans"]["calls"]
    counts, extra = ref["counts"], ref["extra"]
    m = {}
    for span in SECONDS_SPANS:
        m[f"{span}_s"] = _metric(self_s.get(span, 0.0), "s")
    for span in SECONDS_SPANS + ("sim.functional",) + SHARE_SPANS:
        m[CALL_NAMES.get(span, f"{span}_calls")] = _metric(
            calls.get(span, 0), "count")
    hits = ref["spans"]["cache_hits"]
    m["harness.cache_hits"] = _metric(hits, "count")
    for span in SHARE_SPANS:
        m[f"{span}_pct"] = _metric(
            100.0 * self_s.get(span, 0.0) / ref["wall_s"], "%")
    loads = calls.get("harness.cache_load", 0)
    m["harness.cache_hit_ratio"] = _metric(hits / loads if loads else 0.0,
                                           "ratio")
    cold = extra.get("cold_s")
    m["harness.warm_pass_pct"] = _metric(
        100.0 * extra["warm_s"] / cold if cold else 0.0, "%")
    sim_s = self_s.get("sim.gpu_init", 0.0) + self_s.get("sim.run", 0.0)
    insts = (counts.get("model.warp_instructions", 0)
             + counts.get("model.affine_warp_instructions", 0))
    m["sim.warp_insts_per_s"] = _metric(insts / sim_s if sim_s else 0.0,
                                        "1/s")
    m["bench.check_s"] = _metric(ref["check_s"], "s")
    m["trace.overhead_s"] = _metric(prof["wall_s"] - ref["wall_s"], "s")
    for key in MODEL_COUNTS:
        m[key] = _metric(counts.get(key, 0), "count")
    m["model.dac_speedup_geomean"] = _metric(
        extra.get("model.dac_speedup_geomean", 0.0), "x")
    for bucket, value in buckets.items():
        m[bucket] = _metric(value, "s")
    m["prof.total_s"] = _metric(total, "s")
    m["prof.wall_s"] = _metric(profiled, "s")
    return [ref, prof], m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS,
                        choices=("setup", "plain", "spans", "profile"))
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args.workload, args.seed, args.child,
                               Path(args.scratch))))
        return 0

    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        _isolate(scratch)
        run = traced if args.trace else untraced
        rounds, metrics = run(args.workload, args.seed, args.seconds,
                              scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass                # another run still owns a directory there
    messages = [m for rnd in rounds for m in rnd["errors"] + rnd["wrong"]]
    for msg in messages[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(rnd["wrong"] for rnd in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
