"""The benchmark's three workloads, driven through the program's public
entry points.

Each workload builds its inputs in :meth:`setup` and runs one *round* of
identical operations in :meth:`run_round`.  Only the program's calls are
timed (``clock.timed``); the benchmark's own output checks run under
``clock.check`` and are excluded from every reported time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import statistics
import tempfile
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


import repro.analysis.mutate as mutate
import repro.baselines.cae  # noqa: F401  (loaded lazily by GPU otherwise)
import repro.baselines.mta  # noqa: F401
import repro.sim.issue_engine  # noqa: F401
from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.harness import (TECHNIQUES, clear_cache, configure_cache,
                           experiment_config, run_one, sweep)
from repro.harness.sweeps import override
from repro.sim.functional import run_functional
from repro.workloads import ALL_BENCHMARKS, get
from repro.workloads.fuzz import build_fuzz_launch

from perf_refs import CLOSED_FORMS

#: Stats counters summed into the ``model.*`` per-layer counts.
MODEL_COUNTERS = {
    "model.warp_instructions": "warp_instructions",
    "model.affine_warp_instructions": "affine_warp_instructions",
    "model.l1_accesses": "l1.accesses",
    "model.l1_misses": "l1.misses",
    "model.l2_accesses": "l2.accesses",
    "model.dram_reads": "dram.reads",
    "model.dac_records": "dac.records",
}


class Clock:
    """Accumulates timed program work and check time for one round."""

    def __init__(self, profiler=None, spans=None):
        self.timed_s = 0.0
        self.check_s = 0.0
        self._profiler = profiler
        self._spans = spans

    @contextmanager
    def timed(self):
        lap = [0.0]
        start = perf_counter()
        try:
            yield lap
        finally:
            lap[0] = perf_counter() - start
            self.timed_s += lap[0]

    @contextmanager
    def check(self):
        if self._profiler is not None:
            self._profiler.disable()
        if self._spans is not None:
            self._spans.paused = True
        start = perf_counter()
        try:
            yield
        finally:
            self.check_s += perf_counter() - start
            if self._spans is not None:
                self._spans.paused = False
            if self._profiler is not None:
                self._profiler.enable()


@dataclasses.dataclass
class Round:
    """What one round did: operation latencies, outcome counts, and the
    exact model/IR counts of its results."""

    wall_s: float = 0.0
    check_s: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)  # failed ops
    wrong: list = dataclasses.field(default_factory=list)   # wrong outputs
    counts: Counter = dataclasses.field(default_factory=Counter)
    extra: dict = dataclasses.field(default_factory=dict)


def _add_model_counts(counts, result):
    counts["model.cycles"] += int(result.cycles)
    for name, key in MODEL_COUNTERS.items():
        counts[name] += int(result.stats[key])


def _add_program_counts(counts, program):
    counts["compiler.affine_insts"] += (
        len(program.affine.instructions) if program.is_decoupled else 0)
    counts["compiler.nonaffine_insts"] += len(program.nonaffine.instructions)


class _TableKernels:
    """A workload over fixed Table-2 kernels at one scale, with a digest of
    the functional oracle's image of each computed once, outside any
    timing."""

    KERNELS: tuple = ()
    SCALE = "tiny"
    #: Whether checks read ``self.launches`` after the oracle has run.
    KEEP_LAUNCHES = False

    def __init__(self, seed, scratch, jobs):
        self.config = experiment_config()
        self.scratch = scratch
        self.jobs = jobs
        self._oracles = {}

    def setup(self):
        self.launches = {abbr: get(abbr).launch(self.SCALE)
                         for abbr in self.KERNELS}

    def _oracle(self, abbr):
        """SHA-256 of the functional oracle's final image of a kernel."""
        if abbr not in self._oracles:
            # run_functional writes the launch's memory, so a workload whose
            # checks read the initial image runs the oracle on a new launch.
            launch = (get(abbr).launch(self.SCALE) if self.KEEP_LAUNCHES
                      else self.launches.pop(abbr))
            run_functional(launch)
            self._oracles[abbr] = _digest(launch.memory.words)
        return self._oracles[abbr]


def _digest(words):
    # Hashing the array's own buffer leaves its untouched pages unmapped;
    # ``tobytes()`` would make a resident copy of the whole image.
    return hashlib.sha256(words).hexdigest()


class PaperGrid(_TableKernels):
    """The paper's evaluation grid at ``paper`` scale on the experiment
    machine, cell by cell through ``run_one`` as the experiment script
    runs it: the seven kernels with closed-form references, under all
    four techniques.  The seed does not change these inputs."""

    KERNELS = ("LUD", "SP", "KM", "SC", "IMG", "CS", "BFS")
    SCALE = "paper"
    KEEP_LAUNCHES = True        # the closed forms read the initial images

    def run_round(self, clock, traced=False):
        rnd = Round()
        configure_cache(enabled=False)
        clear_cache()
        speedups = []
        for abbr in self.KERNELS:
            cycles = {}
            for technique in TECHNIQUES:
                rnd.attempted += 1
                try:
                    with clock.timed() as lap:
                        result = run_one(abbr, technique, self.SCALE,
                                         self.config)
                except Exception as exc:            # counted, not fatal
                    rnd.failed += 1
                    rnd.errors.append(f"{abbr}/{technique} raised "
                                     f"{type(exc).__name__}: {exc}")
                    continue
                rnd.latencies.append(lap[0])
                cycles[technique] = result.cycles
                with clock.check():
                    image = result.extra["memory_words"]
                    if _digest(image) != self._oracle(abbr):
                        rnd.wrong.append(f"{abbr}/{technique}: memory "
                                         "image differs from the oracle")
                    reason = CLOSED_FORMS[abbr](self.launches[abbr], image)
                    if reason:
                        rnd.wrong.append(f"{abbr}/{technique}: {reason}")
                    _add_model_counts(rnd.counts, result)
                    if technique == "dac":
                        _add_program_counts(rnd.counts,
                                            result.extra["program"])
            if "baseline" in cycles and "dac" in cycles:
                speedups.append(cycles["baseline"] / cycles["dac"])
        clear_cache()
        if speedups:
            rnd.extra["model.dac_speedup_geomean"] = math.exp(
                statistics.fmean(math.log(s) for s in speedups))
        return rnd


class DACSweep(_TableKernels):
    """A DAC structure-size sweep (ATQ and PWAQ entries) through
    ``harness.sweep`` at ``tiny`` scale, over kernels whose certification
    ranges from tens of milliseconds (LIB, SG) through KM to seconds (BS).
    A cold pass runs on a fresh disk cache with one pool worker per core;
    the identical warm pass follows after the in-process memo is cleared.
    The seed does not change these inputs."""

    KERNELS = ("LIB", "SG", "KM", "BS")
    KNOBS = (("dac.atq_entries", (8, 48)), ("dac.pwaq_entries", (96, 384)))

    def _points(self, abbr):
        """(technique, config) of every result a kernel's sweeps produce."""
        yield "baseline", self.config
        for knob, values in self.KNOBS:
            for value in values:
                yield "dac", override(self.config, knob, value)

    def _pass(self, clock, rnd, jobs):
        """Run every sweep once.  Returns, per result, ``(cycles, counters,
        memory-image digest)`` read back from the memo outside the timed
        region (``None`` if a sweep raised), and the pass's timed seconds."""
        wall = 0.0
        for abbr in self.KERNELS:
            for knob, values in self.KNOBS:
                try:
                    with clock.timed() as lap:
                        sweep(abbr, knob, values, self.config,
                              scale=self.SCALE, jobs=jobs)
                except Exception as exc:            # counted, not fatal
                    rnd.errors.append(f"sweep {abbr} {knob} raised "
                                      f"{type(exc).__name__}: {exc}")
                    return None, wall + lap[0]
                wall += lap[0]
                rnd.latencies.append(lap[0] / len(values))
        digests = {}
        with clock.check():
            for abbr in self.KERNELS:
                for technique, config in self._points(abbr):
                    result = run_one(abbr, technique, self.SCALE, config)
                    digest = _digest(result.extra["memory_words"])
                    digests[abbr, technique, config] = (
                        result.cycles, result.stats.as_dict(), digest)
                    if digest != self._oracle(abbr):
                        rnd.wrong.append(f"{abbr}/{technique}: memory image "
                                         "differs from the oracle")
                    _add_model_counts(rnd.counts, result)
                # Every point of a kernel runs the same decoupled program.
                _add_program_counts(rnd.counts, result.extra["program"])
        return digests, wall

    def run_round(self, clock, traced=False):
        rnd = Round()
        jobs = 1 if traced else self.jobs    # profiled cells run in-process
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            configure_cache(cache_dir)
            clear_cache()
            cold, cold_s = self._pass(clock, rnd, jobs)
            clear_cache()
            latencies, counts = list(rnd.latencies), Counter(rnd.counts)
            warm, warm_s = self._pass(clock, rnd, jobs)
            # A point's latency and the model counts are the cold pass's.
            rnd.latencies, rnd.counts = latencies, counts
        finally:
            configure_cache(enabled=False)
            clear_cache()
            shutil.rmtree(cache_dir, ignore_errors=True)
        rnd.extra["cold_s"], rnd.extra["warm_s"] = cold_s, warm_s
        rnd.attempted = sum(1 for abbr in self.KERNELS
                            for _ in self._points(abbr))
        if cold is None or warm is None:
            rnd.failed = rnd.attempted
            return rnd
        with clock.check():
            for key, digest in cold.items():
                if warm[key] != digest:
                    rnd.wrong.append(f"{key[0]}/{key[1]}: warm result "
                                     "differs from cold")
        return rnd


class CertifyCorpus:
    """``decouple`` + ``verify`` of distinct kernels -- the 29 Table-2
    kernels and a seeded window of fuzz kernels -- then the decoupler
    mutation campaign with a seeded site draw.  No timing model runs."""

    FUZZ_WINDOW = 5
    #: The campaign's synthetic all-features kernel, one Table-2 target and
    #: its two fuzz targets.  Its ST/SP/HS targets cost 12 s together,
    #: longer than a whole round.
    CAMPAIGN_TARGETS = ("SYNTH", "BP", "FUZZ-3", "FUZZ-11")

    def __init__(self, seed, scratch, jobs):
        self.seed = seed
        start = (seed % 100_000) * self.FUZZ_WINDOW
        self.fuzz_seeds = range(start, start + self.FUZZ_WINDOW)

    def setup(self):
        self.kernels = [(b.abbr, b.launch("tiny").kernel)
                        for b in ALL_BENCHMARKS]
        self.kernels += [(f"fuzz{s}", build_fuzz_launch(s).kernel)
                         for s in self.fuzz_seeds]

    def run_round(self, clock, traced=False):
        rnd = Round()
        for name, kernel in self.kernels:
            rnd.attempted += 1
            try:
                with clock.timed() as lap:
                    program = decouple(kernel)
                    report = verify(program)
            except Exception as exc:                # counted, not fatal
                rnd.failed += 1
                rnd.errors.append(f"{name} raised {type(exc).__name__}: "
                                  f"{exc}")
                continue
            if not name.startswith("fuzz"):
                # The median is over the fixed Table-2 kernels alone: the
                # seeded window is too small to leave it seed-independent.
                rnd.latencies.append(lap[0])
            with clock.check():
                if not report.ok:
                    rnd.wrong.append(f"{name}: certification reported "
                                     f"{len(report.errors)} error(s)")
                _add_program_counts(rnd.counts, program)
        targets = [t for t in mutate.default_targets()
                   if t.name in self.CAMPAIGN_TARGETS]
        try:
            with clock.timed():
                campaign = mutate.run_mutation_campaign(targets,
                                                        seed=self.seed)
        except Exception as exc:                    # counted, not fatal
            rnd.attempted += 1
            rnd.failed += 1
            rnd.errors.append(f"campaign raised {type(exc).__name__}: {exc}")
            return rnd
        with clock.check():
            rnd.attempted += sum(1 for c in campaign.cases
                                 if c.outcome != "skipped")
            for case in campaign.escapes:
                rnd.wrong.append(f"mutant {case.target}/{case.klass} "
                                 "escaped silently")
            for klass in campaign.unexercised():
                rnd.wrong.append(f"mutation class {klass} never applied")
            for note in campaign.notes:
                rnd.wrong.append(f"campaign: {note}")
        return rnd


WORKLOADS = {"paper-grid": PaperGrid, "dac-sweep": DACSweep,
             "certify-corpus": CertifyCorpus}
