"""Workload ``repeat-expand``: in-process library expansion.

Why: large programs whose invocations mostly repeat an earlier one in
the same program, so the expansion cache's key, replay and store,
parser dispatch and the printer do most of the work, while the
driver, the server and package loading do little.  A seeded quarter
of the programs run hygienic, which turns the cache off; they are the
in-workload contrast for any cache change.

Each unit of work is what ``repro.api.expand`` does for one program:
a fresh ``MacroProcessor`` with the packages loaded, then ``expand``.
A run cycles through a seeded pool of programs until its time is up.
"""

from __future__ import annotations

import statistics
import time
from statistics import median

from common import (
    Context,
    HostSpeed,
    Outcome,
    coverage,
    layer_metrics,
    percentile,
    pin_to_one_cpu,
    self_rss_mb,
    setup_probes,
)
from gen import PACKAGES, repeat_programs
from oracle import Oracle, digest, reference

#: Distinct programs per run (the pool the timed loop cycles through).
POOL = 24
#: Fixed tail percentile of per-program expand time.
TAIL = 90


def _expand(program):
    from repro.engine import MacroProcessor
    from repro.options import Ms2Options
    from repro.packages import register_named

    mp = MacroProcessor(options=Ms2Options(hygienic=program.hygienic))
    for name in PACKAGES:
        register_named(mp, name)
    result = mp.expand(program.source, program.name)
    return result.output, mp.stats


class _Loop:
    """Expands programs in pool order; each expansion is checked
    against its reference digest and followed by a calibration sample,
    both outside the timed section.  Only times and counters are
    kept, so memory does not grow with the run."""

    def __init__(self, programs, expected, oracle: Oracle) -> None:
        self.programs = programs
        self.expected = expected
        self.oracle = oracle
        self.speed = HostSpeed()
        self.seconds: list[float] = []
        #: Where each program's following calibration samples start.
        self.marks: list[int] = []
        self.lines = 0
        self.output_bytes = 0
        self.pipeline: dict[str, float] = {}

    def run(self, deadline=None, count=None) -> "_Loop":
        while (count is None or len(self.seconds) < count) and (
            deadline is None or time.perf_counter() < deadline
        ):
            program = self.programs[len(self.seconds) % len(self.programs)]
            start = time.perf_counter()
            try:
                output, stats = _expand(program)
            except Exception as exc:  # counted as a failed operation
                self.seconds.append(time.perf_counter() - start)
                self.marks.append(self.speed.mark())
                self.oracle.fail(program.name, f"{type(exc).__name__}: {exc}")
                continue
            self.seconds.append(time.perf_counter() - start)
            self.marks.append(self.speed.mark())
            if digest(output) == self.expected[program.name]:
                self.oracle.checked += 1
            else:
                self.oracle.fail(program.name, "output differs from the "
                                 "reference path")
            self.lines += program.source.count("\n") + 1
            self.output_bytes += len(output)
            for key, value in stats.to_json().items():
                if isinstance(value, (int, float)):
                    self.pipeline[key] = self.pipeline.get(key, 0) + value
            self.speed.sample()
        return self

    def scaled(self) -> list[float]:
        return [self.speed.scale(seconds, mark)
                for seconds, mark in zip(self.seconds, self.marks)]


def run(ctx: Context) -> Outcome:
    pin_to_one_cpu()
    programs = repeat_programs(ctx.seed, POOL)
    oracle = Oracle()
    info = {
        "programs": POOL,
        "invocations_per_program": programs[0].invocations,
        "lines_per_program": round(statistics.mean(
            p.source.count("\n") + 1 for p in programs), 1),
        "repeat_share": round(
            sum(p.repeats for p in programs)
            / sum(p.invocations for p in programs), 4),
        "hygienic_share": round(
            sum(p.hygienic for p in programs) / POOL, 4),
    }
    references = {
        p.name: reference(p.source, p.name, p.hygienic) for p in programs
    }
    expected = {name: digest(text) for name, text in references.items()}
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    # The cold program is always a cached (non-hygienic) one, so each
    # seed times the same kind of first unit of work.
    first = next(p for p in programs if not p.hygienic)
    probe_src = ctx.workdir / first.name
    probe_src.write_text(first.source)
    probes = setup_probes(ctx, probe_src)
    for probe in probes:
        oracle.check(f"{first.name} (fresh interpreter)",
                     probe["output"], references[first.name])
    del references
    if ctx.trace:
        return _traced(ctx, programs, expected, probes, oracle, info)

    loop = _Loop(programs, expected, oracle).run(
        deadline=time.perf_counter() + ctx.seconds)
    rss = self_rss_mb()
    oracle.golden(ctx.root)
    times = loop.scaled()
    hits = loop.pipeline.get("cache_hits", 0)
    lookups = hits + loop.pipeline.get("cache_misses", 0)
    info.update(
        expanded=len(times),
        tail_percentile=TAIL,
        cache_hit_ratio=round(hits / lookups, 4) if lookups else 0.0,
        host_speed=round(loop.speed.factor(), 4),
    )
    metrics = {
        "setup_s": (median([p["setup_s"] for p in probes]), "s"),
        "cold_s": (median([p["cold_s"] for p in probes]), "s"),
        "p50_ms": (percentile(times, 50) * 1000.0, "ms"),
        "tail_ms": (percentile(times, TAIL) * 1000.0, "ms"),
        "throughput_per_s": (loop.lines / sum(times), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(metrics, oracle, info)


def _traced(ctx, programs, expected, probes, oracle, info) -> Outcome:
    """Untraced for half the time, then the same programs traced."""
    from spans import Patches, SpanRecorder

    plain = _Loop(programs, expected, oracle).run(
        deadline=time.perf_counter() + ctx.seconds / 2)
    recorder = SpanRecorder()
    with Patches(recorder):
        traced = _Loop(programs, expected, oracle).run(
            count=len(plain.seconds))
    totals = recorder.snapshot()
    oracle.golden(ctx.root)
    plain_wall = sum(plain.scaled())
    traced_wall = sum(traced.scaled())
    extra = {
        "import.ms": median([p["import_s"] for p in probes]) * 1000.0,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
        "trace.coverage_share": coverage(
            totals["root_s"], sum(traced.seconds)),
    }
    info.update(traced_programs=len(traced.seconds), unit="program")
    metrics = layer_metrics([totals], traced.pipeline, len(traced.seconds),
                            traced.output_bytes, extra)
    return Outcome(metrics, oracle, info)
