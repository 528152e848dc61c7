"""Ms2Options: the unified configuration surface.

Covers the three contracts the redesign introduced:

- **CLI/API parity** — for *every* option field, the value the CLI
  derives from its defaults equals ``Ms2Options()``, and each flag
  maps onto exactly the field it names;
- **no legacy spellings** — an unknown constructor keyword is a
  :class:`TypeError`, and the options API emits no deprecation
  warnings;
- **hash stability** — ``options_hash`` ignores observability knobs
  and moves with every semantic knob (it keys the persistent cache).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ExpandResult, MacroProcessor, Ms2Options, expand_source
from repro.cli import build_arg_parser, options_from_args
from repro.diagnostics import DEFAULT_MAX_ERRORS, ExpansionBudget
from repro.options import OPTION_FIELDS

PROGRAM = """
syntax stmt Twice {| $$stmt::body |}
{
  return(`{ $body; $body; });
}
void f(void) { Twice { step(); } }
"""

BROKEN = "void broken( {\n"


def parse(argv: list[str]):
    return build_arg_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# CLI/API parity — every option, both subcommands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", [["expand", "x.c"], ["build", "x.c"]])
@pytest.mark.parametrize("name", OPTION_FIELDS)
def test_cli_defaults_match_api_defaults(command, name) -> None:
    """`repro expand`/`repro build` with no flags must configure the
    pipeline exactly as `Ms2Options()` does — field by field, so a
    new option that misses the CLI mapping fails here by name."""
    options = options_from_args(parse(command))
    assert getattr(options, name) == getattr(Ms2Options(), name), name


FLAG_CASES = [
    (["--hygienic"], {"hygienic": True}),
    (["--keep-meta"], {"keep_meta": True}),
    (["--annotate"], {"annotate": True}),
    (["--no-compiled-patterns"], {"compiled_patterns": False}),
    (["--no-cache"], {"cache": False}),
    (["--recover"], {"recover": True}),
    (["--recover", "--max-errors", "3"],
     {"recover": True, "max_errors": 3}),
    (["--max-expansions", "7"], {"max_expansions": 7}),
    (["--max-output-nodes", "9000"], {"max_output_nodes": 9000}),
    (["--deadline-ms", "250"], {"deadline_s": 0.25}),
    (["--profile"], {"profile": True}),
]


@pytest.mark.parametrize("subcommand", ["expand", "build"])
@pytest.mark.parametrize("flags,expected", FLAG_CASES)
def test_each_flag_maps_to_its_field(subcommand, flags, expected) -> None:
    options = options_from_args(parse([subcommand, "x.c", *flags]))
    assert options == Ms2Options(**expected)


def test_trace_subcommand_shares_defaults() -> None:
    options = options_from_args(parse(["trace", "x.c"]))
    assert options == Ms2Options()


# ---------------------------------------------------------------------------
# The options value itself
# ---------------------------------------------------------------------------


def test_defaults() -> None:
    options = Ms2Options()
    assert options.hygienic is False
    assert options.compiled_patterns is True
    assert options.cache is True
    assert options.recover is False
    assert options.max_errors == DEFAULT_MAX_ERRORS
    assert options.max_expansions is None
    assert options.trace is False


def test_frozen() -> None:
    with pytest.raises(dataclasses.FrozenInstanceError):
        Ms2Options().hygienic = True  # type: ignore[misc]


def test_replace() -> None:
    base = Ms2Options()
    derived = base.replace(recover=True, max_errors=5)
    assert derived.recover and derived.max_errors == 5
    assert base.recover is False  # untouched


def test_make_budget() -> None:
    assert Ms2Options().make_budget() is None
    budget = Ms2Options(max_expansions=4).make_budget()
    assert isinstance(budget, ExpansionBudget)
    assert budget.max_expansions == 4
    # Fresh per call: budgets latch, so they must not be shared.
    assert budget is not Ms2Options(max_expansions=4).make_budget()


def test_hash_is_stable_and_ignores_observability() -> None:
    base = Ms2Options()
    assert base.options_hash() == Ms2Options().options_hash()
    noisy = base.replace(
        trace=True, profile=True,
        trace_hooks=(lambda event, span: None,),
    )
    assert noisy.options_hash() == base.options_hash()


@pytest.mark.parametrize(
    "change",
    [
        {"hygienic": True},
        {"keep_meta": True},
        {"annotate": True},
        {"compiled_patterns": False},
        {"cache": False},
        {"recover": True},
        {"max_errors": 3},
        {"max_expansions": 10},
        {"max_output_nodes": 10},
        {"deadline_s": 1.0},
    ],
)
def test_hash_moves_with_every_semantic_field(change) -> None:
    assert (
        Ms2Options(**change).options_hash() != Ms2Options().options_hash()
    )


def test_without_runtime_hooks_is_picklable() -> None:
    import pickle

    noisy = Ms2Options(trace_hooks=(lambda event, span: None,))
    clean = noisy.without_runtime_hooks()
    assert clean.trace_hooks == ()
    assert pickle.loads(pickle.dumps(clean)) == clean


# ---------------------------------------------------------------------------
# No legacy spellings
# ---------------------------------------------------------------------------


def test_unknown_constructor_kwarg_is_an_error() -> None:
    with pytest.raises(TypeError, match="hygenic"):
        MacroProcessor(hygenic=True)  # typo must not pass silently


def test_clean_api_emits_no_warnings(recwarn) -> None:
    mp = MacroProcessor(options=Ms2Options(recover=True))
    mp.expand(PROGRAM)
    expand_source(PROGRAM, options=Ms2Options())
    assert [w for w in recwarn if issubclass(
        w.category, DeprecationWarning
    )] == []


# ---------------------------------------------------------------------------
# ExpandResult
# ---------------------------------------------------------------------------


def test_expand_returns_result_object() -> None:
    mp = MacroProcessor(options=Ms2Options(trace=True))
    result = mp.expand(PROGRAM, "prog.c")
    assert isinstance(result, ExpandResult)
    assert result.ok
    assert "step" in result.output
    assert result.diagnostics == []
    assert result.stats is mp.stats
    assert result.spans, "tracing was on: top-level spans expected"
    record = result.as_dict()
    assert record["ok"] is True
    assert record["output"] == result.output
    assert record["spans"]


def test_expand_result_carries_diagnostics() -> None:
    mp = MacroProcessor(options=Ms2Options(recover=True))
    result = mp.expand(BROKEN)
    assert not result.ok
    assert any(d.severity == "error" for d in result.diagnostics)
    payload = result.as_dict()
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["severity"] == "error"
