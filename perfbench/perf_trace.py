"""Layer attribution measured from outside the program.

Two instruments, both driven from the benchmark's own files:

* :class:`Spans` wraps public entry points of each layer (the wrappers are
  swapped into every ``repro`` module that bound the original) and keeps,
  per span name, the self seconds (duration minus the time covered by
  nested spans) and the call count.
* :func:`profile_buckets` folds a ``cProfile`` run into self seconds per
  module group, so that every profiled function lands in exactly one bucket
  and the buckets sum to the profile's total.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(HERE), "src", "repro") + os.sep

#: (span name, module, attribute): plain functions, rebound wherever a
#: ``repro`` or ``perf_`` module imported them by name.
FUNCTION_SPANS = (
    ("workloads.launch", "repro.workloads.fuzz", "build_fuzz_launch"),
    ("compiler.decouple", "repro.compiler.decouple", "decouple"),
    ("compiler.verify", "repro.compiler.verifier", "verify"),
    ("analysis.certify", "repro.analysis.certify", "certify_program"),
    ("sim.functional", "repro.sim.functional", "run_functional"),
)

#: (span name, module, class, method): methods patched on the class.
METHOD_SPANS = (
    ("workloads.launch", "repro.workloads.base", "Benchmark", "launch"),
    ("sim.gpu_init", "repro.sim.gpu", "GPU", "__init__"),
    ("sim.run", "repro.sim.gpu", "GPU", "run"),
    ("harness.cache_store", "repro.harness.diskcache", "DiskCache", "store"),
    ("harness.cache_load", "repro.harness.diskcache", "DiskCache", "load"),
)

#: The oracle is counted even while the benchmark checks outputs.
_COUNTED_IN_CHECKS = {"sim.functional"}
#: Spans reported under another name once the round has started, so that
#: set-up launches stay apart from the launches the program builds itself.
_ROUND_NAMES = {"workloads.launch": "workloads.round_launch"}


class Spans:
    """Nested self-time spans around calls into the program's layers."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.cache_hits = 0
        self.paused = False
        self.in_round = False
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spans.paused and name not in _COUNTED_IN_CHECKS:
                return fn(*args, **kwargs)
            key = _ROUND_NAMES.get(name, name) if spans.in_round else name
            frame = [0.0]
            spans._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                spans._stack.pop()
                spans.self_s[key] += duration - frame[0]
                spans.calls[key] += 1
                if spans._stack:
                    spans._stack[-1][0] += duration
            if name == "harness.cache_load" and result is not None:
                spans.cache_hits += 1
            return result
        return wrapper

    def install(self):
        """Swap the wrappers in; :meth:`uninstall` restores the originals."""
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if not (mod_name.startswith("repro")
                        or mod_name.startswith("perf_")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for name, module, cls_name, attr in METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Profile buckets.

#: Source path under ``src/repro`` (prefix match, first hit wins) -> bucket.
PROFILE_BUCKETS = (
    ("sim/sm.py", "prof.sim.sm_s"),
    ("sim/executor.py", "prof.sim.executor_s"),
    ("sim/warp.py", "prof.sim.warp_s"),
    ("sim/scheduler.py", "prof.sim.scheduler_s"),
    ("sim/simt_stack.py", "prof.sim.simt_stack_s"),
    ("sim/gpu.py", "prof.sim.gpu_s"),
    ("sim/issue_engine.py", "prof.sim.issue_engine_s"),
    ("sim/vector.py", "prof.sim.vector_s"),
    ("sim/", "prof.sim.other_s"),
    ("core/dac_sm.py", "prof.core.dac_sm_s"),
    ("core/expansion.py", "prof.core.expansion_s"),
    ("core/affine_warp.py", "prof.core.affine_warp_s"),
    ("core/queues.py", "prof.core.queues_s"),
    ("core/", "prof.core.other_s"),
    ("memory/cache.py", "prof.memory.cache_s"),
    ("memory/dram.py", "prof.memory.dram_s"),
    ("memory/coalescer.py", "prof.memory.coalescer_s"),
    ("memory/hierarchy.py", "prof.memory.hierarchy_s"),
    ("memory/", "prof.memory.other_s"),
    ("baselines/", "prof.baselines_s"),
    ("events.py", "prof.events_s"),
    ("stats.py", "prof.stats_s"),
    ("isa/", "prof.isa_s"),
    ("affine/", "prof.affine_s"),
    ("compiler/", "prof.compiler_s"),
    ("analysis/symexec.py", "prof.analysis.symexec_s"),
    ("analysis/certify.py", "prof.analysis.certify_s"),
    ("analysis/", "prof.analysis.other_s"),
    ("workloads/", "prof.workloads_s"),
    ("harness/", "prof.harness_s"),
    ("", "prof.repro_other_s"),
)
BUCKET_NAMES = tuple(dict.fromkeys(b for _, b in PROFILE_BUCKETS)) + (
    "prof.bench_s", "prof.external_s")


def bucket_of(filename: str) -> str:
    if filename.startswith(REPRO_DIR):
        rel = filename[len(REPRO_DIR):].replace(os.sep, "/")
        for prefix, bucket in PROFILE_BUCKETS:
            if rel.startswith(prefix):
                return bucket
    if filename.startswith(HERE + os.sep):
        return "prof.bench_s"
    return "prof.external_s"        # numpy, the standard library, builtins


def profile_buckets(profiler) -> tuple[dict, float]:
    """Self seconds per bucket, and the profile's own total self time."""
    import pstats
    stats = pstats.Stats(profiler)
    buckets = dict.fromkeys(BUCKET_NAMES, 0.0)
    for (filename, _line, _func), row in stats.stats.items():
        buckets[bucket_of(filename)] += row[2]
    return buckets, stats.total_tt
