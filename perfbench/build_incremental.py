"""Workload ``build-incremental``: the batch driver at ``-j2``.

Why: many distinct translation units whose invocations do not
repeat, so per-file package load, lexing, parsing and macro-body
execution on cache misses, the process pool, and the disk snapshot
cache do the work: snapshot writes in the cold build, snapshot reads
in the rebuilds.  Expansion-cache replay does little here, which
makes it the workload on which a cache change should show no change.

A run makes COLD cold builds of the corpus, each into a fresh
snapshot cache, then edit-and-rebuild rounds until its time is up:
each round edits a seeded tenth of the units and rebuilds all of
them through a new ``BuildSession`` on the last cache, as a rerun of
``repro build`` would.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from statistics import mean, median

from common import (
    Context,
    HostSpeed,
    Outcome,
    coverage,
    layer_metrics,
    percentile,
    self_rss_mb,
    setup_probes,
)
from gen import PACKAGES, corpus, edit_rounds, revision_line
from oracle import Oracle, reference

UNITS = 200
JOBS = 2
COLD = 5
#: Fixed tail percentile of rebuild-round time.
TAIL = 80
#: Upper bound on rounds a run can reach (edits are drawn up front).
MAX_ROUNDS = 5000
#: Seconds a finished build's pool worker gets to exit.
WORKER_EXIT_S = 10.0
#: Record key under which a build worker returns its resident set.
RSS_KEY = "perfbench_rss_mb"


def _rss_mb() -> float:
    """This process's resident set now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class _WorkerRss:
    """The largest resident set of any process that expanded a unit.

    The pool workers do the lexing, parsing and expansion, and they
    are shut down without a wait, so neither this process's peak nor
    ``RUSAGE_CHILDREN`` sees them.  While installed, a wrapper around
    the worker entry point adds the worker's resident set after each
    unit to the result record (a ``/proc`` read of a few microseconds
    against milliseconds per unit), and a wrapper around
    ``_expand_pending`` in this process takes it out again.  Use as a
    context manager; the originals are put back on exit."""

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def __enter__(self) -> "_WorkerRss":
        import repro.driver.scheduler as scheduler

        build_one = scheduler._build_one
        expand_pending = scheduler.BuildSession._expand_pending

        @functools.wraps(build_one)
        def build_one_rss(task, config=None):
            record = build_one(task, config)
            record[RSS_KEY] = _rss_mb()
            return record

        @functools.wraps(expand_pending)
        def expand_pending_rss(session, pending):
            out = expand_pending(session, pending)
            for _, _, record in out:
                self.peak_mb = max(self.peak_mb, record.pop(RSS_KEY, 0.0))
            return out

        self._saved = (scheduler, build_one, expand_pending)
        scheduler._build_one = build_one_rss
        scheduler.BuildSession._expand_pending = expand_pending_rss
        return self

    def __exit__(self, *exc_info) -> None:
        scheduler, build_one, expand_pending = self._saved
        scheduler._build_one = build_one
        scheduler.BuildSession._expand_pending = expand_pending


class _Tree:
    """The corpus as edited so far."""

    def __init__(self, base: list[tuple[str, str]]) -> None:
        self.base = base
        self.revision = [0] * len(base)

    def edit(self, units: list[int]) -> None:
        for unit in units:
            self.revision[unit] += 1

    def sources(self) -> list[tuple[str, str]]:
        return [
            (name, source.replace(
                revision_line(unit, 0),
                revision_line(unit, self.revision[unit]), 1))
            for unit, (name, source) in enumerate(self.base)
        ]


def _build(cache_dir, sources):
    """One build; returns (seconds, report)."""
    from repro.driver import BuildSession, CacheConfig
    from repro.options import Ms2Options

    start = time.perf_counter()
    with BuildSession(
        Ms2Options(), package_names=PACKAGES, jobs=JOBS,
        cache=CacheConfig(local_dir=str(cache_dir)),
    ) as session:
        report = session.build_sources(sources)
    return time.perf_counter() - start, report


class _Session:
    """Builds in sequence; each build is checked against the reference
    path and followed by calibration, both outside the timed section.
    Only times and counters are kept, so memory does not grow with
    the number of rounds.

    An edit only rewrites a unit's revision line, which sits outside
    every invocation, so an edited unit's expected output is its base
    reference output with that line substituted."""

    def __init__(self, base, references, oracle: Oracle) -> None:
        self.base = base
        self.references = references
        self.oracle = oracle
        # The pool's workers run on every CPU, so each build is scaled
        # by the mean speed of all of them, each calibrated on its own.
        self.speeds = [HostSpeed(cpu)
                       for cpu in sorted(os.sched_getaffinity(0))]
        #: (seconds, calibration mark) of each build.
        self.cold: list[tuple[float, int]] = []
        self.rebuilds: list[tuple[float, int]] = []
        #: Snapshot cache hits and loads over the rebuild rounds.
        self.hits = self.loads = 0
        self.output_bytes = 0
        self.pipeline: dict[str, float] = {}

    def _build(self, tree, cache_dir, times, calibration) -> None:
        seconds, report = _build(cache_dir, tree.sources())
        times.append((seconds, self.speeds[0].mark()))
        # The pool is shut down without a wait; its workers must be
        # gone before a sample, or they share its CPU.
        for worker in multiprocessing.active_children():
            worker.join(WORKER_EXIT_S)
        for speed in self.speeds:
            speed.sample(calibration)
        self._verify(report, tree.revision)
        if times is self.rebuilds:
            self.hits += report.cache.get("hits", 0)
            self.loads += report.cache.get("loads", 0)
        for result in report.results:
            if not result.from_cache:
                self.output_bytes += len(result.output)
            for key, value in result.stats.items():
                if isinstance(value, (int, float)):
                    self.pipeline[key] = self.pipeline.get(key, 0) + value

    def _verify(self, report, revisions) -> None:
        for unit, result in enumerate(report.results):
            name = self.base[unit][0]
            if result.status != "ok":
                self.oracle.fail(name, f"status {result.status}: "
                                 f"{result.error}")
                continue
            expected = self.references[unit].replace(
                revision_line(unit, 0), revision_line(unit, revisions[unit]),
                1)
            if result.output == expected:
                self.oracle.checked += 1
            else:
                self.oracle.fail(name, f"revision {revisions[unit]} output "
                                 "differs from the reference path")

    def run(self, cold_dirs, edits, deadline=None, rounds=None) -> "_Session":
        """Cold builds into ``cold_dirs``, then rounds on the last one
        until ``deadline`` or ``rounds``."""
        tree = _Tree(self.base)
        for cache_dir in cold_dirs:
            self._build(tree, cache_dir, self.cold, 3)
        edits = iter(edits)
        while True:
            if rounds is not None:
                if len(self.rebuilds) >= rounds:
                    break
            elif self.rebuilds and time.perf_counter() >= deadline:
                break  # a short run still makes one round
            tree.edit(next(edits))
            self._build(tree, cold_dirs[-1], self.rebuilds, 1)
        return self

    def wall(self) -> float:
        return sum(seconds for seconds, _ in self.cold + self.rebuilds)

    def scaled(self, builds: list[tuple[float, int]]) -> list[float]:
        return [seconds * mean(s.scale(1.0, mark) for s in self.speeds)
                for seconds, mark in builds]

    def factor(self) -> float:
        return mean(s.factor() for s in self.speeds)


def _references(base, oracle: Oracle) -> list[str]:
    refs = []
    for unit, (name, source) in enumerate(base):
        ref = reference(source, name)
        if ref.count(revision_line(unit, 0)) != 1:
            oracle.fail(name, "revision line not found once in output")
        refs.append(ref)
    return refs


def run(ctx: Context) -> Outcome:
    base = corpus(ctx.seed, UNITS)
    edits = edit_rounds(ctx.seed, UNITS, MAX_ROUNDS)
    oracle = Oracle()
    info = {
        "units": UNITS,
        "jobs": JOBS,
        "cold_builds": COLD,
        "edited_per_round": len(edits[0]),
        "lines_per_unit": round(
            sum(s.count("\n") + 1 for _, s in base) / UNITS, 1),
    }
    references = _references(base, oracle)
    probes = setup_probes(ctx)
    if ctx.trace:
        return _traced(ctx, base, references, edits, probes, oracle, info)

    with _WorkerRss() as workers:
        session = _Session(base, references, oracle).run(
            [ctx.workdir / f"cache{i}" for i in range(COLD)], edits,
            deadline=time.perf_counter() + ctx.seconds)
    driver_mb = self_rss_mb()
    # The larger of this process (the driver) and the pool workers.
    rss = max(driver_mb, workers.peak_mb)
    oracle.golden(ctx.root)
    cold = session.scaled(session.cold)
    rebuilds = session.scaled(session.rebuilds)
    lines = sum(s.count("\n") + 1 for _, s in base)
    info.update(
        rounds=len(rebuilds),
        tail_percentile=TAIL,
        rebuild_snapshot_hit_ratio=round(
            session.hits / session.loads, 4) if session.loads else 0.0,
        host_speed=round(session.factor(), 4),
        driver_rss_mb=round(driver_mb, 1),
        worker_rss_mb=round(workers.peak_mb, 1),
    )
    setup_s = median([p["setup_s"] for p in probes])
    info["cold_build_s"] = median(cold)
    metrics = {
        "setup_s": (setup_s, "s"),
        # A fresh ``repro build`` pays set-up, then the cold build.
        "cold_s": (setup_s + median(cold), "s"),
        "p50_ms": (percentile(rebuilds, 50) * 1000.0, "ms"),
        "tail_ms": (percentile(rebuilds, TAIL) * 1000.0, "ms"),
        "throughput_per_s": (lines * len(rebuilds) / sum(rebuilds), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(metrics, oracle, info)


def _traced(ctx, base, references, edits, probes, oracle, info) -> Outcome:
    """One cold build and rounds for half the time untraced, then the
    same builds traced (into a fresh cache, so they miss alike)."""
    from spans import Patches, SpanRecorder

    plain = _Session(base, references, oracle).run(
        [ctx.workdir / "plain"], edits,
        deadline=time.perf_counter() + ctx.seconds / 2)
    recorder = SpanRecorder()
    with Patches(recorder):
        traced = _Session(base, references, oracle).run(
            [ctx.workdir / "traced"], edits, rounds=len(plain.rebuilds))
    oracle.golden(ctx.root)
    builds = len(traced.cold) + len(traced.rebuilds)
    totals = recorder.snapshot()
    plain_wall = sum(plain.scaled(plain.cold + plain.rebuilds))
    traced_wall = sum(traced.scaled(traced.cold + traced.rebuilds))
    extra = {
        "driver.snapshot_hit_ratio": (
            traced.hits / traced.loads if traced.loads else 0.0),
        "import.ms": median([p["import_s"] for p in probes]) * 1000.0,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
        "trace.coverage_share": coverage(totals["root_s"], traced.wall()),
    }
    info.update(traced_builds=builds, unit="build",
                worker_spans="returned by each pool worker with its "
                "file's result and summed per layer")
    metrics = layer_metrics([totals, recorder.worker], traced.pipeline,
                            builds, traced.output_bytes, extra)
    return Outcome(metrics, oracle, info)
