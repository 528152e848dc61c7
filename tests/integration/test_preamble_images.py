"""Preamble images: a processor copied from an image behaves exactly
like one that parsed its packages cold.

The first load of a package chain in a process runs cold and captures
an image; later fresh processors with the same chain and options copy
it.  Every test here starts from an empty image cache, so its first
processor is cold.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import MacroProcessor, Ms2Options, engine
from repro.analysis import PurityReport
from repro.api import expand
from repro.errors import Ms2Error
from repro.lexer.scanner import tokenize
from repro.packages import PACKAGE_REGISTRY, load_preamble
from tests.integration.test_fastpath_parity import PACKAGE_CASES, _example

OPTION_SETS = {
    "default": Ms2Options(),
    "interpreted-bodies": Ms2Options(compiled_bodies=False),
    "interpreted-patterns": Ms2Options(compiled_patterns=False),
    "hygienic": Ms2Options(hygienic=True),
    "no-cache": Ms2Options(cache=False),
}

#: A package whose metadcl initializer and macro both call gensym.
GENSYM_PACKAGE = (
    "metadcl @id seed = gensym();\n"
    "syntax exp fresh {| ( ) |} { @id t = gensym(); return(t); }\n"
)

#: A package with a typedef and a metadcl list a macro updates in place.
STATE_PACKAGE = (
    "typedef int handle_t;\n"
    "metadcl @exp last[] = list(`(0));\n"
    "syntax exp swap_last {| ( $$exp::e ) |}\n"
    "{ @exp old = last[0]; last[0] = e; return(old); }\n"
)

#: A package whose macro calls a meta-function.
META_FN_PACKAGE = (
    "@exp twice(@exp e) { return(`($e + $e)); }\n"
    "syntax exp dbl {| ( $$exp::e ) |} { return(twice(e)); }\n"
)


@pytest.fixture(autouse=True)
def images(monkeypatch):
    """An empty process-wide image cache for each test."""
    cache = engine.ImageCache()
    monkeypatch.setattr(engine, "PREAMBLE_IMAGES", cache)
    return cache


def _names(package: str) -> tuple[str, ...]:
    # The protected Painting macro expands into exceptions' macros.
    if package == "painting-protected":
        return ("exceptions", package)
    return (package,)


def _program(package: str) -> str:
    program = PACKAGE_CASES[package][1]
    return program() if callable(program) else program


def _processor(names=(), sources=(), options=None) -> MacroProcessor:
    return load_preamble(MacroProcessor(options=options), names, sources)


def _counters(mp: MacroProcessor) -> dict[str, int]:
    return {
        name: value
        for name, value in mp.stats.to_json().items()
        if isinstance(value, int)
    }


class TestParity:
    @pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
    @pytest.mark.parametrize("package", sorted(PACKAGE_REGISTRY))
    def test_cold_and_image_output_byte_identical(
        self, package, option_set
    ):
        options = OPTION_SETS[option_set]
        names, program = _names(package), _program(package)
        outputs = []
        for _ in range(3):
            mp = _processor(names, options=options)
            outputs.append(mp.expand(program).output)
        assert outputs[0] == outputs[1] == outputs[2]
        info = engine.preamble_image_info()
        assert info["hits"] == 2 * len(names)
        assert info["misses"] == len(names)

    @pytest.mark.parametrize("package", sorted(PACKAGE_REGISTRY))
    def test_integer_stats_match_cold(self, package):
        names, program = _names(package), _program(package)
        # ``tokens_interned`` counts texts already interned (and still
        # alive) in the process: hold the program's tokens so both
        # expansions find the same ones.
        tokens = tokenize(program)
        cold, image = _processor(names), _processor(names)
        assert engine.preamble_image_info()["hits"] == len(names)
        assert _counters(image) == _counters(cold)
        cold.expand(program)
        image.expand(program)
        assert _counters(image) == _counters(cold)
        assert tokens

    def test_gensym_numbering_matches_cold(self):
        sources = [("gensym.ms2", GENSYM_PACKAGE)]
        program = "int a = fresh(); int b = fresh();\n"
        outputs = [
            _processor(["loops"], sources).expand(
                program + "void f(int x, int y) { swap (int, x, y); }"
            )
            for _ in range(2)
        ]
        assert engine.preamble_image_info()["hits"] == 2
        assert outputs[0].output == outputs[1].output
        assert "__g_2" in outputs[0].output
        assert (
            outputs[0].stats.gensym_calls == outputs[1].stats.gensym_calls
        )

    def test_window_dispatch_metadcl_arrays_start_empty(self):
        program = _example("window_dispatch").PROGRAM
        outputs = [
            expand(program, packages=["dispatch"]).output
            for _ in range(3)
        ]
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count("case WM_") == 3


class TestIsolation:
    def test_typedefs_and_metadcl_lists_are_per_processor(self):
        sources = [("state.ms2", STATE_PACKAGE)]
        program = (
            "handle_t h = swap_last(1);\n"
            "int k = (handle_t) swap_last(2);\n"
        )
        outputs = [
            _processor(sources=sources).expand(program).output
            for _ in range(3)
        ]
        assert engine.preamble_image_info()["hits"] == 2
        assert outputs[0] == outputs[1] == outputs[2]
        assert "handle_t h = 0;" in outputs[0]
        assert "(handle_t)1" in outputs[0]

    def test_meta_function_redefinition_stays_in_its_processor(self):
        sources = [("metafn.ms2", META_FN_PACKAGE)]
        reference = _processor(sources=sources).expand(
            "int x = dbl(1);"
        ).output
        first, sibling = (_processor(sources=sources) for _ in range(2))
        # Redefining the meta-function makes ``dbl`` impure here only.
        first.expand(
            "@exp twice(@exp e) { @id t = gensym(); return(`($e + $e)); }\n"
            "int x = dbl(1);"
        )
        assert not first.table.lookup("dbl").purity.cacheable
        assert sibling.table.lookup("dbl").purity.cacheable
        assert sibling.expand("int x = dbl(1);").output == reference
        later = _processor(sources=sources)
        assert later.table.lookup("dbl").purity.cacheable
        assert later.expand("int x = dbl(1);").output == reference

    def test_definition_fields_do_not_leak(self):
        first, sibling = _processor(["loops"]), _processor(["loops"])
        mine = first.table.lookup("unroll")
        mine.compiled_body = False
        mine.purity = PurityReport(cacheable=False, reasons=("test",))
        theirs = sibling.table.lookup("unroll")
        assert theirs is not mine
        assert theirs.compiled_body is None
        assert theirs.purity.cacheable
        assert _processor(["loops"]).table.lookup("unroll").purity.cacheable

    def test_nested_invocation_uses_this_processors_definition(self):
        # Painting's template invokes unwind_protect; the template is
        # shared with the cold processor that parsed it.
        names = ("exceptions", "painting-protected")
        program = "void f(void) { Painting { draw(); } }"
        sibling, mp = _processor(names), _processor(names)
        nested = mp.table.lookup("unwind_protect")
        assert nested.purity.cacheable
        nested.purity = PurityReport(cacheable=False, reasons=("test",))
        sibling.expand(program)
        mp.expand(program)
        assert mp.stats.cache_uncacheable == (
            sibling.stats.cache_uncacheable + 1
        )

    def test_bad_package_raises_identically_twice(self):
        errors = []
        for _ in range(2):
            with pytest.raises(Ms2Error) as caught:
                _processor(["painting-protected"])
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert engine.preamble_image_info()["entries"] == 0

    def test_eight_threads_instantiate_concurrently(self):
        names = ("loops", "exceptions")
        program = _program("loops") + "\n" + _program("exceptions")
        reference = _processor(names).expand(program).output
        results: list[str] = []
        lock = threading.Lock()

        def work() -> None:
            for _ in range(5):
                output = _processor(names).expand(program).output
                with lock:
                    results.append(output)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [reference] * 40


class TestCachePolicy:
    def test_lru_keeps_a_bounded_number_of_images(self):
        preambles = [
            [(f"k{i}.ms2",
              f"syntax exp k{i} {{| ( ) |}} {{ return(`({i})); }}")]
            for i in range(engine.MAX_IMAGES + 1)
        ]
        for sources in preambles:
            _processor(sources=sources)
        assert engine.preamble_image_info()["entries"] == engine.MAX_IMAGES
        _processor(sources=preambles[0])  # evicted first, so cold again
        assert engine.preamble_image_info()["hits"] == 0

    @pytest.mark.parametrize(
        "options", [Ms2Options(trace=True), Ms2Options(profile=True)]
    )
    def test_traced_or_profiled_loads_stay_cold(self, options):
        for _ in range(2):
            _processor(["loops"], options=options)
        info = engine.preamble_image_info()
        assert info["hits"] == info["misses"] == 0

    def test_load_after_other_work_stays_cold(self):
        mp = MacroProcessor()
        mp.expand("int x;")
        load_preamble(mp, ["loops"])
        assert engine.preamble_image_info()["misses"] == 0
