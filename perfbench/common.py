"""Shared pieces: run context, percentiles, set-up probes, stamps and
the per-layer metric table."""

from __future__ import annotations

import ast
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Fresh interpreters spawned per run to time set-up; the median is
#: reported.
SETUP_PROBES = 21
#: Host-speed calibration samples taken right before and again right
#: after each set-up spawn (of a probe here, of a daemon in
#: ``daemon-closed-loop``); each spawn is scaled by its own samples.
SPAWN_CAL_SAMPLES = 4


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def bytecode(self) -> Path:
        """The run's bytecode cache, see :func:`compile_bytecode`."""
        return self.workdir / "bytecode"


@dataclass
class Outcome:
    """What one workload run reports: its metrics, the oracle holding
    every operation's verdict, and sizes and measured input properties
    for the stamp."""

    metrics: dict[str, tuple[float, str]]
    oracle: Any
    info: dict[str, Any]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank, 0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------

#: Seconds one calibration sample takes on the nominal host: the unit
#: every reported time is expressed in.
CAL_NOMINAL_S = 0.010
#: Calibration samples nearest a unit of work whose median scales it.
LOCAL_SAMPLES = 7


def _calibration_source(functions: int) -> str:
    parts = []
    for i in range(functions):
        parts.append(f"""
def f{i}(items, limit={i}):
    total = 0
    for k, item in enumerate(items):
        if item.kind == "leaf" and k < limit:
            total += len(item.text) * {i % 7 + 1}
        elif isinstance(item, dict):
            total -= item.get("v{i}", 0)
        else:
            total = max(total, helper_{i % 5}(item, [k, k + 1], name="n{i}"))
    return {{"total": total, "name": "f{i}", "items": [x for x in items if x]}}
""")
    return "".join(parts)


_CAL_SOURCE = _calibration_source(24)
_CAL_DATA = {
    "units": [
        {"name": f"u{i}", "lines": [f"int x{j} = {j};" for j in range(12)],
         "n": i, "ok": i % 3 == 0}
        for i in range(150)
    ]
}


def _calibration_work() -> None:
    """A fixed piece of work that imports nothing from the program, so
    no change to the program moves it: parse and compile a generated
    Python module, and round-trip a JSON document.  Of the loops
    tried (pure-Python object trees and string building among them),
    this one tracked the host's slow phases best: its ratio to
    repeat-expand programs and to single-unit builds varied 4-7%
    between 10-second windows, against 12-27% for the raw times."""
    compile(ast.parse(_CAL_SOURCE), "<calibration>", "exec")
    for _ in range(2):
        json.loads(json.dumps(_CAL_DATA))


class HostSpeed:
    """Host-speed calibration.

    On a shared 2-core x86-64 host (Linux, Python 3.11) the same
    Python work was measured running up to a quarter slower or faster
    from one ten-second stretch to the next, in CPU time as much as in
    wall time, which no run length averages away.  So a run
    interleaves calibration samples with its work, and every duration
    it reports is scaled by
    ``CAL_NOMINAL_S / median calibration time``: the time the work
    would take on a host that runs the calibration in CAL_NOMINAL_S.

    The host's speed also changes within seconds, so :meth:`scale`
    takes the median of the LOCAL_SAMPLES samples nearest each unit of
    work.  Over six 30-second repeat-expand runs on that host, the
    per-run medians of program time so scaled spread 1% (IQR/median),
    against 10% with one factor per run and 18% unscaled.  The run's
    overall :meth:`factor` goes into the stamp line as ``host_speed``.
    """

    def __init__(self, cpu: int | None = None) -> None:
        self.samples: list[float] = []
        #: The CPU the samples run on, if not the caller's.
        self.cpu = cpu

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples with the cyclic collector off, so the
        garbage the program left is collected in the next timed unit,
        as it would be in use, and never counts as host slowness."""
        enabled = gc.isenabled()
        gc.disable()
        allowed = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            for _ in range(count):
                start = time.perf_counter()
                _calibration_work()
                self.samples.append(time.perf_counter() - start)
        finally:
            if self.cpu is not None:
                os.sched_setaffinity(0, allowed)
            if enabled:
                gc.enable()

    def factor(self) -> float:
        if not self.samples:
            raise RuntimeError("no calibration samples taken")
        return CAL_NOMINAL_S / statistics.median(self.samples)

    def mark(self) -> int:
        """Call as a unit of work ends: where its following samples
        start."""
        return len(self.samples)

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` of a unit of work that ended at ``mark``, scaled
        by the median of the LOCAL_SAMPLES samples nearest it."""
        if not self.samples:
            raise RuntimeError("no calibration samples taken")
        width = min(LOCAL_SAMPLES, len(self.samples))
        lo = min(max(0, mark - width // 2), len(self.samples) - width)
        nearest = self.samples[lo:lo + width]
        return seconds * CAL_NOMINAL_S / statistics.median(nearest)


def pin_to_one_cpu() -> None:
    """Run this thread, the threads it starts and every process they
    start on one CPU.  Calibration tracks the speed of the CPU it runs
    on only: on a 2-vCPU host, with the daemon and its clients free to
    use both, the scaled p50 latency of four runs of one seed ranged
    over 12%; pinned, over 4%.  Call before any thread or process is
    started."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env(root: Path, bytecode: Path | None = None) -> dict[str, str]:
    """Environment of a spawned interpreter; with ``bytecode`` it reads
    and writes the modules' bytecode in that directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    if bytecode is not None:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(bytecode)
    return env


def compile_bytecode(ctx: Context) -> None:
    """Byte-compile the program and the benchmark into ``ctx.bytecode``
    before any spawn is timed.  An installed package ships its
    bytecode, so a fresh interpreter's set-up is importing and loading
    packages, not CPython compiling the source.  Compiling was also
    the noisiest part of a spawn: it took a third of a cold start,
    and without it the medians of 11 unscaled spawns spread 11%
    between runs instead of 17% (shared 2-core x86-64 host)."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         str(ctx.root / "src" / "repro"), str(HERE)],
        cwd=ctx.root, env=child_env(ctx.root, ctx.bytecode),
        capture_output=True, check=True, timeout=120,
    )


def setup_probes(
    ctx: Context, program: Path | None = None
) -> list[dict[str, Any]]:
    """Spawn SETUP_PROBES fresh interpreters one after another; each
    result carries ``setup_s`` (spawn until ``ready``), ``import_s``
    and, with a program, ``cold_s`` (spawn until that program is
    expanded) and ``output``.  ``setup_s`` and ``cold_s`` are scaled by
    the host-speed factor of calibration samples taken right before
    and right after that probe: the host's speed changes within
    seconds, and a per-probe factor followed it better than one factor
    for all probes (on a shared 2-core x86-64 host, medians of 21
    probes spread 4.6% between runs, against 6.6%)."""
    command = [sys.executable, str(HERE / "setup_probe.py")]
    if program is not None:
        command.append(str(program))
    results = []
    for _ in range(SETUP_PROBES):
        speed = HostSpeed()
        speed.sample(SPAWN_CAL_SAMPLES)
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ctx.root, env=child_env(ctx.root, ctx.bytecode),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            if program is not None:
                done = proc.stdout.readline()
                cold_s = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"set-up probe failed (exit {code}): {ready!r}"
            )
        result = json.loads(rest)
        result["setup_s"] = setup_s
        if program is not None:
            if done.strip() != "done":
                raise RuntimeError(f"set-up probe failed: {done!r}")
            result["cold_s"] = cold_s
        speed.sample(SPAWN_CAL_SAMPLES)
        scale = speed.factor()
        for key in ("setup_s", "cold_s"):
            if key in result:
                result[key] *= scale
        results.append(result)
    return results


def self_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def stamp(ctx: Context, workload: str) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.trace,
        "git_sha": git_sha(ctx.root),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metric names and units, in report order.  Every traced
#: run prints all of them; a layer a workload does not reach reads 0.
PER_LAYER = {
    "lexer.self_ms": "ms",
    "lexer.tokens_per_s": "1/s",
    "parser.self_ms": "ms",
    "parser.dispatch_probes": "count",
    "expander.self_ms": "ms",
    "expander.expansions": "count",
    "cache.key_ms": "ms",
    "cache.replay_ms": "ms",
    "cache.store_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.cacheable_share": "ratio",
    "meta.body_ms": "ms",
    "codegen.compile_ms": "ms",
    "codegen.bodies_compiled": "count",
    "packages.load_ms": "ms",
    "packages.loads": "count",
    "printer.self_ms": "ms",
    "printer.bytes_per_s": "B/s",
    "engine.other_ms": "ms",
    "driver.key_ms": "ms",
    "driver.snapshot_load_ms": "ms",
    "driver.snapshot_store_ms": "ms",
    "driver.snapshot_hit_ratio": "ratio",
    "driver.pool_ms": "ms",
    "server.latency_mean_ms": "ms",
    "server.work_ms": "ms",
    "server.handoff_ms": "ms",
    "server.warm_ratio": "ratio",
    "server.replenish_ms_per_req": "ms",
    "server.busy_share": "ratio",
    "client.ndjson_p50_ms": "ms",
    "client.http_p50_ms": "ms",
    "client.overhead_ms": "ms",
    "metrics_http.scrape_ms": "ms",
    "server.stats_op_ms": "ms",
    "import.ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.coverage_share": "ratio",
}

#: Span layer -> per-layer self-time metric.
SELF_TIME = {
    "lexer": "lexer.self_ms",
    "parser": "parser.self_ms",
    "expander": "expander.self_ms",
    "cache.key": "cache.key_ms",
    "cache.replay": "cache.replay_ms",
    "cache.store": "cache.store_ms",
    "meta.body": "meta.body_ms",
    "codegen.compile": "codegen.compile_ms",
    "printer": "printer.self_ms",
    "engine": "engine.other_ms",
    "driver.key": "driver.key_ms",
    "driver.snapshot_load": "driver.snapshot_load_ms",
    "driver.snapshot_store": "driver.snapshot_store_ms",
    "driver.pool": "driver.pool_ms",
    "server.work": "server.work_ms",
    "server.handoff": "server.handoff_ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    totals: list[dict[str, Any]],
    pipeline: dict[str, Any],
    units: int,
    output_bytes: int,
    extra: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """The per-layer table from span ``totals`` (one snapshot per
    process), summed pipeline counters and the bytes printed; ``extra``
    gives the metrics measured elsewhere.  Times and counts are per
    unit of work (``units``), ratios and rates are not."""
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for part in totals:
        for name, value in part["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in part["incl_s"].items():
            incl_s[name] = incl_s.get(name, 0.0) + value
        for name, value in part["calls"].items():
            calls[name] = calls.get(name, 0) + value
    per = max(1, units)
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer, metric in SELF_TIME.items():
        out[metric] = self_s.get(layer, 0.0) * 1000.0 / per
    # A package load's own cost includes lexing and parsing the
    # package source, so it is reported inclusive.
    out["packages.load_ms"] = incl_s.get("packages", 0.0) * 1000.0 / per
    out["packages.loads"] = calls.get("packages", 0) / per
    p = pipeline
    out["lexer.tokens_per_s"] = _ratio(
        p.get("tokens_scanned", 0), self_s.get("lexer", 0.0)
    )
    out["parser.dispatch_probes"] = (
        p.get("dispatch_hits", 0) + p.get("dispatch_misses", 0)
    ) / per
    out["expander.expansions"] = p.get("expansions", 0) / per
    hits, misses = p.get("cache_hits", 0), p.get("cache_misses", 0)
    uncacheable = p.get("cache_uncacheable", 0)
    out["cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["cache.cacheable_share"] = _ratio(
        hits + misses, hits + misses + uncacheable
    )
    out["codegen.bodies_compiled"] = p.get("bodies_compiled", 0) / per
    out["printer.bytes_per_s"] = _ratio(
        output_bytes, self_s.get("printer", 0.0)
    )
    out.update(extra)
    return {name: (float(out[name]), PER_LAYER[name]) for name in PER_LAYER}


def coverage(root_s: float, wall_s: float) -> float:
    """Share of the traced wall time that falls under a root span."""
    return _ratio(root_s, wall_s)
