"""Seeded input generators.

Every input the benchmark feeds the program is made here from a seed
and nothing else, so one seed always yields the same sources.  The
program under test only ever sees the generated text.

All three workloads use the standard ``loops`` and ``exceptions``
packages (preloaded into every processor, worker and daemon), because
between them they cover a cacheable pure macro (``unroll``), a
gensym macro the cache must refuse (``swap``), an optional-clause
pattern (``for_range ... step``) and templates that invoke other
macros (``catch`` expands into ``throw``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Packages every workload preloads.
PACKAGES = ("loops", "exceptions")

#: Shape of one ``repeat-expand`` program: FUNCTIONS functions, each
#: with USES_PER_FUNCTION invocation statements, drawn from a
#: vocabulary of BATCHES x 12 distinct invocations (each kind of
#: ``_kinds`` BATCHES times) each used the same number of times.  The
#: shape and the kind mix are fixed and only names, constants and
#: order vary with the seed, so two seeds give programs of like cost.
FUNCTIONS = 21
USES_PER_FUNCTION = 8
BATCHES = 2

#: Shape of one ``build-incremental`` translation unit.
UNIT_FUNCTIONS = 3
UNIT_USES = 3
#: Share of the units one ``build-incremental`` round edits.
EDIT_SHARE = 0.1
#: Zipf exponent of ``daemon-closed-loop`` request popularity.
ZIPF_S = 1.1


def _kinds(rng: random.Random, tag: str, n: int) -> list:
    """One distinct invocation statement of each kind, made unique by
    ``tag`` and seeded constants; ``n`` (an unroll count and loop
    step) sets the size of the expansions.  Each entry is (kind,
    text)."""
    lo = rng.randint(0, 3)
    hi = lo + rng.randint(3, 9)
    k = rng.randint(1, 999)
    return [
        ("unroll", f"unroll ({n}) {{ work_{tag}(i, {k}); }}"),
        (
            "for_range",
            f"for_range j = {lo} to {hi} {{ tick_{tag}(j); }}",
        ),
        (
            "for_range_step",
            f"for_range j = {lo} to {hi} step {n} "
            f"{{ tick_{tag}(j); tock_{tag}(j); }}",
        ),
        ("unless", f"unless (x > {k}) {{ fix_{tag}(x, {n}); }}"),
        (
            "with_resource",
            f"with_resource (lock(m_{tag}), unlock(m_{tag})) "
            f"{{ use_{tag}(m_{tag}, {k}); }}",
        ),
        ("swap", f"swap (int, a_{tag}, b_{tag});"),
        ("throw", f"throw code_{tag};"),
        ("throw_expr", f"throw code_{tag} + {k};"),
        (
            "catch",
            f"catch E{k} {{ recover_{tag}({n}); }} "
            f"{{ risky_{tag}(x, {k}); }}",
        ),
        (
            "unwind_protect",
            f"unwind_protect {{ open_{tag}({k}); }} "
            f"{{ close_{tag}({k}); }}",
        ),
        (
            "forever",
            f"forever {{ if (done_{tag}) break; step_{tag}({k}); }}",
        ),
        (
            "nested",
            f"unless (y < {n}) {{ unroll ({n}) {{ w_{tag}({k}); }} }}",
        ),
    ]


def _function(name: str, body: list[str]) -> str:
    lines = [f"int {name}(int x, int y)", "{"]
    lines += [f"    {stmt}" for stmt in body]
    lines += ["    return x + y;", "}", ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class Program:
    """One ``repeat-expand`` input."""

    name: str
    source: str
    hygienic: bool
    #: Top-level invocation statements in the program.
    invocations: int
    #: Of those, how many repeat an earlier one in the same program.
    repeats: int


def repeat_programs(seed: int, count: int) -> list[Program]:
    """``count`` large programs whose invocations mostly repeat.

    Each program makes BATCHES x 12 distinct invocations and uses each
    the same number of times, shuffled over FUNCTIONS functions, so
    the first use of each misses the expansion cache and the rest can
    hit it (``swap`` calls ``gensym``, so its uses are never cached).
    Exactly a quarter of the programs (rounded down, chosen by the
    seed) run hygienic, which turns the cache off.
    """
    rng = random.Random(seed * 7919 + 1)
    hygienic = set(rng.sample(range(count), count // 4))
    uses = FUNCTIONS * USES_PER_FUNCTION
    programs = []
    for index in range(count):
        vocab = [
            text
            for batch in range(BATCHES)
            for _, text in _kinds(rng, f"p{index}b{batch}", 3 + batch)
        ]
        stream = [vocab[i % len(vocab)] for i in range(uses)]
        rng.shuffle(stream)
        seen: set[str] = set()
        repeats = 0
        for text in stream:
            repeats += text in seen
            seen.add(text)
        parts = ["int done;", ""]
        for f in range(FUNCTIONS):
            body = stream[
                f * USES_PER_FUNCTION:(f + 1) * USES_PER_FUNCTION
            ]
            parts.append(_function(f"fn_{index}_{f}", body))
        programs.append(
            Program(
                name=f"prog{index}.c",
                source="\n".join(parts),
                hygienic=index in hygienic,
                invocations=uses,
                repeats=repeats,
            )
        )
    return programs


#: The line each corpus unit carries for edit rounds to rewrite.  It
#: sits outside every macro invocation, so it prints unchanged and an
#: edited unit's expected output is its base output with this one
#: line substituted (checked against the reference path by the tests).
def revision_line(unit: int, revision: int) -> str:
    return f"static int revision_{unit} = {revision};"


def corpus(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` distinct translation units, as (name, source) pairs,
    whose invocations do not repeat within a unit."""
    rng = random.Random(seed * 104729 + 2)
    units = []
    for index in range(count):
        pool = _kinds(rng, f"u{index}", 2 + index % 4)
        rng.shuffle(pool)
        parts = [revision_line(index, 0), "int done;", ""]
        for f in range(UNIT_FUNCTIONS):
            body = [
                text
                for _, text in pool[f * UNIT_USES:(f + 1) * UNIT_USES]
            ]
            parts.append(_function(f"unit_{index}_{f}", body))
        units.append((f"src/unit{index:03d}.c", "\n".join(parts)))
    return units


def edit_rounds(seed: int, units: int, rounds: int) -> list[list[int]]:
    """For each round, the units it edits: a seeded EDIT_SHARE of them.
    Every edit bumps that unit's revision, so each edited source is
    new to the snapshot cache."""
    rng = random.Random(seed * 15485863 + 3)
    per_round = max(1, int(units * EDIT_SHARE))
    return [
        sorted(rng.sample(range(units), per_round)) for _ in range(rounds)
    ]


def zipf_requests(seed: int, units: int, count: int) -> list[int]:
    """``count`` unit indices drawn with Zipf(ZIPF_S) popularity over a
    seeded ranking of the units."""
    rng = random.Random(seed * 32452843 + 4)
    ranking = list(range(units))
    rng.shuffle(ranking)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(units)]
    return [ranking[i] for i in rng.choices(range(units), weights, k=count)]
