"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import build_incremental
import common
import daemon_loop
import gen
import spans
import daemon as daemon_mod
from daemon import Daemon
from oracle import Oracle, reference

ROOT = Path(__file__).resolve().parents[2]


# -- generators ---------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    assert gen.repeat_programs(3, 8) == gen.repeat_programs(3, 8)
    assert gen.corpus(3, 20) == gen.corpus(3, 20)
    assert gen.edit_rounds(3, 20, 5) == gen.edit_rounds(3, 20, 5)
    assert gen.zipf_requests(3, 20, 50) == gen.zipf_requests(3, 20, 50)
    assert gen.repeat_programs(3, 8) != gen.repeat_programs(4, 8)
    assert gen.corpus(3, 20) != gen.corpus(4, 20)
    assert gen.edit_rounds(3, 20, 5) != gen.edit_rounds(4, 20, 5)
    assert gen.zipf_requests(3, 20, 50) != gen.zipf_requests(4, 20, 50)


def test_repeat_programs_have_the_stated_shape():
    programs = gen.repeat_programs(5, 24)
    assert sum(p.hygienic for p in programs) == 6
    for p in programs:
        assert p.invocations == gen.FUNCTIONS * gen.USES_PER_FUNCTION
        assert p.repeats == p.invocations - 12 * gen.BATCHES


def test_corpus_units_do_not_repeat_invocations():
    for _, source in gen.corpus(2, 10):
        body = [line.strip() for line in source.splitlines()
                if line.startswith("    ") and "return" not in line]
        uses = gen.UNIT_FUNCTIONS * gen.UNIT_USES
        assert len(body) == len(set(body)) == uses


def test_edit_rounds_touch_a_tenth():
    for units in gen.edit_rounds(1, 200, 10):
        assert len(units) == len(set(units)) == 20


# -- span wrappers ------------------------------------------------------------


def _originals():
    import repro.driver.scheduler as scheduler

    found = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in spans._targets()]
    found.append((scheduler, "_build_one", scheduler._build_one))
    found.append((scheduler.BuildSession, "_expand_pending",
                  scheduler.BuildSession.__dict__["_expand_pending"]))
    found.append((asyncio.BaseEventLoop, "run_in_executor",
                  asyncio.BaseEventLoop.__dict__["run_in_executor"]))
    return found


def test_wrappers_restore_the_original_functions():
    before = _originals()
    recorder = spans.SpanRecorder()
    with spans.Patches(recorder):
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
        from repro.api import expand

        expand("void f(void) { unroll (2) { g(); } }", packages=("loops",))
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
    assert recorder.snapshot()["calls"]["lexer"] >= 2


def test_wrappers_are_restored_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Patches(spans.SpanRecorder()):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_self_times_add_up_to_root_time():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = recorder.snapshot()
    assert totals["calls"] == {"inner": 3, "outer": 1}
    assert sum(totals["self_s"].values()) == pytest.approx(totals["root_s"])
    assert totals["incl_s"]["outer"] == pytest.approx(totals["root_s"])


def test_traced_build_collects_worker_spans():
    from repro.driver import BuildSession

    recorder = spans.SpanRecorder()
    sources = gen.corpus(1, 4)
    with spans.Patches(recorder):
        with BuildSession(package_names=gen.PACKAGES, jobs=2,
                          cache=None) as session:
            report = session.build_sources(sources)
    assert report.ok
    assert all(spans.WORKER_KEY not in r.stats for r in report.results)
    assert recorder.worker["calls"]["packages"] == 2 * len(sources)
    assert recorder.snapshot()["calls"]["driver.pool"] >= 1


def test_handoff_spans_only_the_work_requests():
    def _run_work(x):
        return x + 1

    def other(x):
        return x - 1

    async def serve():
        loop = asyncio.get_running_loop()
        return (await loop.run_in_executor(None, _run_work, 1),
                await loop.run_in_executor(None, other, 1))

    recorder = spans.SpanRecorder()
    with spans.Patches(recorder):
        assert asyncio.run(serve()) == (2, 0)
    totals = recorder.snapshot()
    assert totals["calls"] == {"server.handoff": 1}
    assert totals["root_s"] == totals["self_s"]["server.handoff"] > 0


def test_worker_rss_sees_the_pool_workers_and_restores():
    import repro.driver.scheduler as scheduler
    from repro.driver import BuildSession

    originals = (scheduler._build_one,
                 scheduler.BuildSession.__dict__["_expand_pending"])
    with build_incremental._WorkerRss() as workers:
        with BuildSession(package_names=gen.PACKAGES, jobs=2,
                          cache=None) as session:
            report = session.build_sources(gen.corpus(1, 4))
    assert report.ok
    assert workers.peak_mb > 1.0
    assert (scheduler._build_one,
            scheduler.BuildSession.__dict__["_expand_pending"]) == originals


# -- oracle -------------------------------------------------------------------


def test_oracle_flags_a_corrupted_output():
    name, source = gen.corpus(1, 1)[0]
    expected = reference(source, name)
    oracle = Oracle()
    assert oracle.check(name, expected, expected)
    corrupted = expected.replace("longjmp", "longjump", 1)
    assert not oracle.check(name, corrupted, expected)
    assert (oracle.checked, oracle.failed) == (2, 1)
    assert oracle.mismatches and name in oracle.mismatches[0]


def test_build_oracle_flags_a_corrupted_output():
    from types import SimpleNamespace

    from repro.driver import FileResult

    base = gen.corpus(1, 2)
    oracle = Oracle()
    refs = build_incremental._references(base, oracle)
    session = build_incremental._Session(base, refs, oracle)
    edited = refs[1].replace(gen.revision_line(1, 0), gen.revision_line(1, 3))
    good = [FileResult(path=base[0][0], status="ok", output=refs[0]),
            FileResult(path=base[1][0], status="ok", output=edited)]
    session._verify(SimpleNamespace(results=good), [0, 3])
    bad = [good[0], FileResult(path=base[1][0], status="ok",
                               output=edited.replace("longjmp", "longjump"))]
    session._verify(SimpleNamespace(results=bad), [0, 3])
    assert (oracle.checked, oracle.failed) == (4, 1)
    assert base[1][0] in oracle.mismatches[0]


def test_edited_unit_expectation_matches_the_reference_path():
    for unit, (name, source) in enumerate(gen.corpus(7, 3)):
        edited = source.replace(gen.revision_line(unit, 0),
                                gen.revision_line(unit, 12))
        derived = reference(source, name).replace(
            gen.revision_line(unit, 0), gen.revision_line(unit, 12))
        assert reference(edited, name) == derived


def test_golden_files_pass_the_oracle():
    oracle = Oracle()
    oracle.golden(ROOT)
    assert oracle.failed == 0 and oracle.checked >= 6


# -- daemon lifecycle ---------------------------------------------------------


def test_a_daemon_that_dies_mid_run_fails_requests_without_hanging(
        tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the daemon's socket path is relative
    units = gen.corpus(1, 3)
    daemon = Daemon(ROOT, tmp_path / "d", gen.PACKAGES)
    try:
        daemon.wait_ready()
        ok = daemon_loop._Client(daemon, "unix", units, [0, 1])
        ok.run(time.perf_counter() + 30)
        ok.close()
        assert [error for _, _, _, error in ok.requests] == [None, None]
        start = time.perf_counter()
        daemon.wait_idle()
        assert time.perf_counter() - start < daemon_mod.IDLE_DEADLINE_S
        assert daemon.cpu_s() > 0
        daemon.kill()
        dead = daemon_loop._Client(daemon, "unix", units, [0, 1, 2] * 10)
        dead.run(time.perf_counter() + 30)
        dead.close()
    finally:
        daemon.kill()
    assert len(dead.requests) == 1 and dead.requests[0][3] is not None
    assert dead.dead
    assert not daemon.alive()


# -- runner -------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(common.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(
        common.PER_LAYER.values())


def test_durations_are_scaled_by_the_nearest_samples():
    speed = common.HostSpeed()
    nominal = common.CAL_NOMINAL_S
    speed.samples = [nominal] * 10 + [2 * nominal] * 10
    assert speed.scale(1.0, 0) == 1.0
    assert speed.scale(1.0, 5) == 1.0
    assert speed.scale(1.0, 15) == 0.5
    assert speed.scale(1.0, 20) == 0.5  # a unit after the last sample
    speed.samples = [nominal, 2 * nominal]  # fewer than LOCAL_SAMPLES
    assert speed.scale(1.0, 1) == pytest.approx(1.0 / 1.5)


def test_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert common.percentile(values, 50) == 50.0
    assert common.percentile(values, 90) == 90.0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repeat-expand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
