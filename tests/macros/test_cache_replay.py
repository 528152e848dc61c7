"""The expansion cache's pickled blobs and their replay.

Stored blobs externalize every location and hygiene mark through the
store pickler's dispatch table; replay resolves them from a per-thread
context.  These tests pin what that must guarantee: blobs carry no
location objects, a replayed tree sits wholly at the replay site, and
concurrent replays on different threads never see each other's site
or mark counter.
"""

from __future__ import annotations

import pickletools
import sys
import threading

from repro import MacroProcessor, Ms2Options
from repro.cast.base import walk
from repro.macros.cache import _HEADER
from repro.packages import exceptions, loops
from repro.provenance import strip_expansion

UNROLL = "unroll (3) { work(i); }"
CATCH = "catch E1 { recover(1); } { risky(x, 1); }"


def _processor(**options) -> MacroProcessor:
    mp = MacroProcessor(options=Ms2Options(**options))
    loops.register(mp)
    exceptions.register(mp)
    return mp


def _body_statements(mp: MacroProcessor, source: str, filename: str):
    tree = mp.expand_to_ast(source, filename)
    return tree.items[0].body.stmts


def _program(invocation: str, count: int) -> str:
    """``count`` copies of ``invocation``, copy k on line k + 2."""
    lines = "".join(f"  {invocation}\n" for _ in range(count))
    return "void f(void) {\n" + lines + "}\n"


def test_blob_names_no_location_class():
    mp = _processor()
    mp.expand_to_c(_program(CATCH, 1))
    blobs = list(mp.cache._entries.values())
    assert blobs
    for blob in blobs:
        names = {
            arg
            for _, arg, _ in pickletools.genops(blob[len(_HEADER):])
            if isinstance(arg, str)
        }
        assert not any(
            "SourceLocation" in name or "ExpandedLocation" in name
            for name in names
        )
        # The site resolver stands in for them.
        assert "_site" in names


def test_replayed_nested_result_sits_at_replay_site():
    mp = _processor()
    stmts = _body_statements(mp, _program(CATCH, 2), "nested.c")
    assert mp.stats.cache_hits == 1
    replayed = stmts[1]
    # ``catch`` expands into ``throw``, whose expansion is part of the
    # stored (and so of the replayed) result.
    assert any(
        getattr(node, "name", None) == "longjmp" for node in walk(replayed)
    )
    locs = {node.loc for node in walk(replayed)}
    assert len(locs) == 1
    (site,) = locs
    assert (site.filename, site.line, site.column) == ("nested.c", 3, 3)
    assert site.expanded_from[0].macro == "catch"
    assert site.expanded_from[0].location == strip_expansion(site)


def test_profiled_repeating_program_reports_cache_phases():
    mp = _processor(profile=True)
    mp.expand_to_c(_program(UNROLL, 3))
    assert mp.stats.cache_hits == 2
    calls = mp.stats.phase_calls
    assert calls["cache-key"] == 3
    assert calls["cache-store"] == 1
    assert calls["cache-replay"] == 2
    for name in ("cache-key", "cache-store", "cache-replay"):
        assert mp.stats.phase_seconds[name] >= 0.0


def test_concurrent_replays_keep_their_own_site_and_marks():
    threads = 8
    count = 40
    barrier = threading.Barrier(threads)
    failures: list[str] = []

    def run(index: int) -> None:
        try:
            filename = f"thread{index}.c"
            mp = _processor()
            before = mp.expander._mark_counter
            barrier.wait(timeout=60)
            stmts = _body_statements(mp, _program(UNROLL, count), filename)
            assert mp.stats.cache_hits == count - 1
            marks = []
            for k, stmt in enumerate(stmts):
                stmt_marks = {
                    node.mark for node in walk(stmt)
                } - {None}
                assert len(stmt_marks) == 1, stmt_marks
                marks.extend(stmt_marks)
                if k == 0:
                    continue  # the expansion that filled the cache
                for node in walk(stmt):
                    assert node.loc.filename == filename
                    assert node.loc.line == k + 2
            # Every replay drew its mark from this processor's
            # counter, in order, and from no other.
            assert marks == list(range(before + 1, before + count + 1))
            assert mp.expander._mark_counter == before + count
        except Exception as exc:  # reported by the main thread
            failures.append(f"thread {index}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=run, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
