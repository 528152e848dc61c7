"""Output oracle, kept out of every timed section.

Expected outputs come from the paper's reference path: a fresh
processor with the expansion cache, compiled patterns and compiled
bodies all off, so none of the fast paths under test produce the
answer they are checked against.  Once per run the hand-written
``tests/golden/*.expected.c`` files are checked as well.

A mismatch is counted and the first few are kept for the report; the
run goes on, and the counts end up in the result's ``failed``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from gen import PACKAGES

#: How many mismatch descriptions a run keeps for its report.
KEEP = 5


def _processor(options, packages=PACKAGES):
    from repro.engine import MacroProcessor
    from repro.packages import register_named

    mp = MacroProcessor(options=options)
    for name in packages:
        register_named(mp, name)
    return mp


def reference_options(hygienic: bool = False):
    from repro.options import Ms2Options

    return Ms2Options(
        cache=False,
        compiled_patterns=False,
        compiled_bodies=False,
        hygienic=hygienic,
    )


def digest(text: str) -> str:
    """What a run keeps of an output it checks later."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference(source: str, filename: str, hygienic: bool = False) -> str:
    """The reference-path expansion of ``source``."""
    return _processor(reference_options(hygienic)).expand(
        source, filename
    ).output


class Oracle:
    """Counts checked operations and the ones that failed; every
    operation a run attempts gets exactly one verdict here."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, what: str, actual: str | None, expected: str) -> bool:
        """One checked operation: its output against the expected."""
        if actual == expected:
            self.checked += 1
            return True
        self.fail(what, "output differs from the expected output")
        return False

    def fail(self, what: str, why: str) -> None:
        """One operation that failed or produced a wrong output."""
        self.checked += 1
        self.failed += 1
        if len(self.mismatches) < KEEP:
            self.mismatches.append(f"{what}: {why}")

    def golden(self, root: Path) -> None:
        """Check every hand-written golden case, on the default path
        and on the reference path."""
        from repro.options import Ms2Options
        from repro.packages import load_standard, semantic, statemachine

        loaders = {
            "paper_foo": load_standard,
            "dsl_and_serial": lambda mp: (
                statemachine.register(mp), load_standard(mp)
            ),
            "semantic": semantic.register,
        }
        golden = root / "tests" / "golden"
        cases = sorted(
            p.name[: -len(".expected.c")]
            for p in golden.glob("*.expected.c")
        )
        if not cases:
            self.fail("golden", f"no golden files under {golden}")
        for name in cases:
            loader = loaders.get(name)
            if loader is None:
                self.fail(f"golden {name}", "no package loader known")
                continue
            source = (golden / f"{name}.input.c").read_text()
            expected = (golden / f"{name}.expected.c").read_text()
            for options in (Ms2Options(), reference_options()):
                mp = _processor(options, packages=())
                loader(mp)
                self.check(
                    f"golden {name}", mp.expand(source).output, expected
                )
