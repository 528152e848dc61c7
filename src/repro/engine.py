"""The public facade: :class:`MacroProcessor`.

Ties the parser, the macro table, the meta-interpreter and the
expander together into the compiler-adjunct workflow of the paper:

.. code-block:: python

    from repro import MacroProcessor

    mp = MacroProcessor()
    c_source = mp.expand_to_c('''
        syntax stmt Painting {| $$stmt::body |}
        { return(`{BeginPaint(hDC, &ps); $body; EndPaint(hDC, &ps);}); }

        void redraw(void)
        {
            Painting { draw_line(); draw_text(); }
        }
    ''')

Meta-programming constructs and regular code "can either be located in
separate files, or mixed together into the same file"; use
:meth:`MacroProcessor.load` for macro-package files and
:meth:`MacroProcessor.expand_program` / :meth:`expand_to_c` for
programs.  "None of [the meta-program] exists at runtime": expanded
output contains no ``syntax`` / ``metadcl`` items.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.analysis import analyze_macro_purity
from repro.asttypes.env import TypeEnv
from repro.cast import decls, nodes
from repro.cast.base import Node
from repro.cast.printer import render_c
from repro.diagnostics import Diagnostic, DiagnosticSink
from repro.errors import ExpansionError, Ms2Error, ResourceLimitError
from repro.macros.cache import ExpansionCache
from repro.macros.compiled import compile_pattern
from repro.macros.definition import MacroDefinition, MacroTable
from repro.macros.expander import Expander
from repro.meta.frames import Frame, NullValue
from repro.meta.interp import Interpreter
from repro.meta.values import Closure
from repro.options import ExpandResult, Ms2Options
from repro.parser.core import Parser
from repro.stats import PipelineStats
from repro.trace import PhaseProfiler, Tracer


class MacroProcessor:
    """A complete MS2 macro-processing pipeline.

    Configured by one :class:`~repro.options.Ms2Options` value::

        mp = MacroProcessor(options=Ms2Options(hygienic=True))
        result = mp.expand(source)          # -> ExpandResult

    ``options`` is the single source of defaults for the whole
    pipeline — the CLI, the batch driver (:mod:`repro.driver`) and
    the library all construct one, and its
    :meth:`~repro.options.Ms2Options.options_hash` keys the driver's
    incremental rebuilds.  Options are the only configuration: the
    historical keyword arguments (``hygienic=``, ``cache=``,
    ``budget=``, ...) raise :class:`TypeError`.
    """

    def __init__(self, options: Ms2Options | None = None) -> None:
        if options is None:
            options = Ms2Options()
        #: The session's frozen configuration.
        self.options = options
        #: Fast-path hit/miss counters for this session.
        self.stats = PipelineStats()
        #: Expansion-span recorder, or None when tracing is off.
        self.tracer: Tracer | None = (
            Tracer(
                hooks=list(options.trace_hooks) or None,
                jsonl=options.trace_jsonl,
            )
            if options.wants_tracer()
            else None
        )
        #: Phase-timer aggregator, or None when profiling is off.
        self.profiler: PhaseProfiler | None = (
            PhaseProfiler(self.stats) if options.profile else None
        )
        self.table = MacroTable()
        self.interpreter = Interpreter()
        self.interpreter.stats = self.stats
        self.interpreter.profiler = self.profiler
        # Hygienic renaming is a whole-program analysis whose
        # decisions depend on the code *surrounding* each invocation,
        # so its results cannot be replayed at other sites: the
        # expansion cache is forced off.
        use_cache = options.cache and not options.hygienic
        self.cache = ExpansionCache(self.stats) if use_cache else None
        #: Optional resource budget shared by every expansion run,
        #: built from the options' budget fields.
        self.budget = options.make_budget()
        self.expander = Expander(
            self.table,
            self.interpreter,
            hygienic=options.hygienic,
            cache=self.cache,
            stats=self.stats,
            tracer=self.tracer,
            profiler=self.profiler,
            budget=self.budget,
            compiled_bodies=options.compiled_bodies,
        )
        self.compiled_patterns = options.compiled_patterns
        self._parser: Parser | None = None
        #: Typedef names and the global meta type environment, shared
        #: by every file this processor parses (None before the first).
        self._typedef_scopes: list[set[str]] | None = None
        self._meta_env: TypeEnv | None = None
        #: The ``(filename, source)`` files loaded while this processor
        #: has done nothing but load: its preamble-image key.  None
        #: once anything else has run (:meth:`load`).
        self._preamble: tuple[tuple[str, str], ...] | None = ()
        #: The active :class:`~repro.diagnostics.DiagnosticSink`
        #: during a ``recover=True`` run; None in fail-fast mode.
        self.diagnostics: DiagnosticSink | None = None

    # ==================================================================
    # Parser-host protocol
    # ==================================================================

    def lookup_macro(self, name: str) -> MacroDefinition | None:
        return self.table.lookup(name)

    def dispatch_macro(self, name: str, position: str) -> MacroDefinition | None:
        """Single-probe keyword dispatch (the parser's hot path)."""
        return self.table.dispatch(name, position)

    def handle_macro_def(
        self, macro: decls.MacroDef, parser: Parser
    ) -> MacroDefinition:
        definition = MacroDefinition.from_node(macro)
        if self.compiled_patterns:
            definition.compiled_matcher = compile_pattern(
                definition.pattern, definition.name
            )
        self.table.define(definition)
        definition.purity = analyze_macro_purity(
            definition, self.interpreter.globals
        )
        return definition

    def handle_meta_decl(self, meta: decls.MetaDecl, parser: Parser) -> None:
        inner = meta.inner
        if isinstance(inner, decls.Declaration):
            self.interpreter.run_meta_declaration(inner)

    def handle_meta_function(
        self, fn: decls.FunctionDef, parser: Parser
    ) -> None:
        self.interpreter.define_meta_function(fn)
        # A (re)defined meta-function can change the behaviour — and
        # the purity — of macros analyzed earlier: drop stale memo
        # state and re-analyze lazily at the next definition pass.
        self._invalidate_purity()

    def _invalidate_purity(self) -> None:
        if self.cache is not None:
            self.cache.clear()
        for name in self.table.defined_names():
            definition = self.table.lookup(name)
            definition.purity = analyze_macro_purity(
                definition, self.interpreter.globals
            )

    def expand_invocation(
        self, invocation: nodes.MacroInvocation, position: str
    ) -> Node | list[Node]:
        # Semantic macros (§5): expose the C scope live at the
        # invocation site to type_of()/has_type().
        saved_scope = self.interpreter.semantic_scope
        if self._parser is not None:
            self.interpreter.semantic_scope = self._parser.c_scope
        try:
            result = self.expander.expand_invocation(invocation)
            self._check_position(invocation, result, position)
        except Ms2Error as exc:
            poisoned = self._recover_expansion(exc, invocation, position)
            if poisoned is None:
                raise
            return poisoned
        finally:
            self.interpreter.semantic_scope = saved_scope
        return result

    def _recover_expansion(
        self,
        exc: Ms2Error,
        invocation: nodes.MacroInvocation,
        position: str,
    ) -> Node | None:
        """Expansion-failure isolation (recovery mode): record the
        error — whose location already carries the
        ``ExpandedLocation`` backtrace for nested failures — and
        degrade the invocation to a poisoned node so parsing
        continues.  Returns None in fail-fast mode, when the sink is
        saturated, or while parsing meta-code (a failing expansion
        inside a macro body must still reject the definition)."""
        sink = self.diagnostics
        parser = self._parser
        if (
            sink is None
            or parser is None
            or parser.meta_mode
            or parser.template_mode
        ):
            return None
        if sink.saturated or not sink.emit_error(exc):
            return None
        self.stats.expansion_recoveries += 1
        if position == "exp":
            return nodes.ErrorExpr(message=exc.message, loc=invocation.loc)
        if position == "stmt":
            return nodes.ErrorStmt(message=exc.message, loc=invocation.loc)
        return nodes.ErrorDecl(message=exc.message, loc=invocation.loc)

    @staticmethod
    def _check_position(
        invocation: nodes.MacroInvocation,
        result: Node | list[Node],
        position: str,
    ) -> None:
        if position == "exp" and isinstance(result, list):
            raise ExpansionError(
                f"macro {invocation.name!r} produced a list at an "
                "expression position",
                invocation.loc,
            )

    # ==================================================================
    # Public API
    # ==================================================================

    def make_parser(
        self,
        source: str,
        filename: str = "<string>",
        diagnostics: DiagnosticSink | None = None,
    ) -> Parser:
        parser = Parser(
            source, host=self, expand_inline=True, filename=filename,
            stats=self.stats, profiler=self.profiler,
            diagnostics=diagnostics,
        )
        if self._meta_env is None:
            self._typedef_scopes = parser.typedef_scopes
            self._meta_env = parser.global_type_env
        else:
            # Later files see typedefs and meta bindings of earlier ones.
            parser.typedef_scopes = self._typedef_scopes
            parser.global_type_env = self._meta_env
            parser.type_env = self._meta_env
            parser.inferencer.env = self._meta_env
        self._parser = parser
        self._preamble = None
        return parser

    @staticmethod
    def _parse_guarded(parser: Parser) -> decls.TranslationUnit:
        """Run a parse, converting the host interpreter's own stack
        limit into an :class:`Ms2Error` subclass — the pipeline never
        lets a raw :class:`RecursionError` escape."""
        try:
            return parser.parse_program()
        except RecursionError:
            raise ResourceLimitError(
                "input nests too deeply for the macro processor "
                "(host recursion limit exceeded while parsing)"
            ) from None

    def load(self, source: str, filename: str = "<package>") -> None:
        """Process a macro-package file: definitions are registered,
        any plain C in the file is discarded.

        While this processor has done nothing but load, the chain of
        files loaded so far and the options key a process-wide
        preamble image (:class:`PreambleImage`): a chain loaded before
        is copied from its image instead of being parsed again."""
        chain = self._preamble
        if (
            chain is None
            or self.tracer is not None
            or self.profiler is not None
        ):
            self._parse_guarded(self.make_parser(source, filename))
            return
        chain += ((filename, source),)
        key = (options_fingerprint(self.options), chain)
        image = PREAMBLE_IMAGES.get(key)
        if image is not None:
            image.instantiate(self)
        else:
            self._parse_guarded(self.make_parser(source, filename))
            image = PreambleImage.capture(self)
            if image is None:
                return
            PREAMBLE_IMAGES.put(key, image)
        self._preamble = chain

    # -- internal, options-driven pipeline stages ----------------------

    def _run_program(
        self, source: str, filename: str
    ) -> tuple[decls.TranslationUnit, list[Diagnostic] | None]:
        """Parse-and-expand under the session options; ``(unit,
        diagnostics)`` with diagnostics None in fail-fast mode (which
        raises)."""
        opts = self.options
        if not opts.recover:
            parser = self.make_parser(source, filename)
            return self._parse_guarded(parser), None
        sink = DiagnosticSink(max_errors=opts.max_errors)
        self.diagnostics = sink
        try:
            # Tokenization happens eagerly in the Parser constructor,
            # so a LexError must be inside the backstop too.
            parser = self.make_parser(source, filename, diagnostics=sink)
            unit = self._parse_guarded(parser)
        except Ms2Error as exc:
            # Backstop: a fault that escaped every recovery point
            # (e.g. raised after saturation) still ends as a
            # diagnostic, never as an exception from a recover run.
            sink.emit_error(exc)
            unit = decls.TranslationUnit([])
        finally:
            self.diagnostics = None
        return unit, list(sink.diagnostics)

    @staticmethod
    def _strip_meta(unit: decls.TranslationUnit) -> decls.TranslationUnit:
        """Drop macro definitions and metadcls — "none of [the
        meta-program] exists at runtime"."""
        items = [
            item
            for item in unit.items
            if not isinstance(item, (decls.MacroDef, decls.MetaDecl))
        ]
        return decls.TranslationUnit(items, loc=unit.loc)

    def _render(self, unit: decls.TranslationUnit) -> str:
        annotate = self.options.annotate
        prof = self.profiler
        if prof is None:
            return render_c(unit, annotate=annotate)
        with prof.phase("print"):
            return render_c(unit, annotate=annotate)

    # -- the unified entry point ---------------------------------------

    def expand(
        self, source: str, filename: str = "<string>"
    ) -> ExpandResult:
        """Run the full pipeline under this session's options and
        return an :class:`~repro.options.ExpandResult` carrying the
        expanded C text, the (meta-stripped unless ``keep_meta``)
        unit, any recovery diagnostics, the session stats and the
        trace spans recorded for this source.

        In fail-fast mode (``options.recover`` unset) errors raise
        :class:`~repro.errors.Ms2Error` exactly like the legacy
        methods; with recovery enabled the result's ``diagnostics``
        carry every fault.
        """
        span_start = len(self.tracer.roots) if self.tracer else 0
        unit, diagnostics = self._run_program(source, filename)
        out_unit = (
            unit if self.options.keep_meta else self._strip_meta(unit)
        )
        text = self._render(out_unit)
        spans = self.tracer.roots[span_start:] if self.tracer else []
        return ExpandResult(
            output=text,
            unit=out_unit,
            diagnostics=diagnostics or [],
            stats=self.stats,
            spans=spans,
        )

    # -- legacy-shaped methods: X, or (X, diagnostics) when recovering -

    def expand_program(
        self, source: str, filename: str = "<string>"
    ) -> decls.TranslationUnit | tuple[
        decls.TranslationUnit, list[Diagnostic]
    ]:
        """Parse-and-expand a program; returns the expanded AST
        including meta items (macro definitions, metadcls).

        With ``options.recover`` the run collects up to
        ``options.max_errors`` diagnostics instead of raising on the
        first fault: failed regions become poisoned ``Error*`` nodes
        and the result is a ``(unit, diagnostics)`` pair.
        """
        unit, diagnostics = self._run_program(source, filename)
        if diagnostics is not None:
            return unit, diagnostics
        return unit

    def expand_to_ast(
        self, source: str, filename: str = "<string>"
    ) -> decls.TranslationUnit | tuple[
        decls.TranslationUnit, list[Diagnostic]
    ]:
        """Like :meth:`expand_program` but with all meta-program items
        stripped — the translation unit a downstream C compiler sees."""
        unit, diagnostics = self._run_program(source, filename)
        stripped = self._strip_meta(unit)
        if diagnostics is not None:
            return stripped, diagnostics
        return stripped

    def expand_to_c(
        self, source: str, filename: str = "<string>"
    ) -> str | tuple[str, list[Diagnostic]]:
        """Full pipeline: source with macros in, plain C text out.

        With ``options.annotate`` the printer emits provenance
        comments (``/* <- Macro @ file:line */``) on macro-generated
        code and ``#line`` directives mapping the output back to user
        source.  With ``options.recover`` returns ``(text,
        diagnostics)``; recovered faults render as
        ``/* <error: ...> */`` comments.
        """
        unit, diagnostics = self._run_program(source, filename)
        text = self._render(self._strip_meta(unit))
        if diagnostics is not None:
            return text, diagnostics
        return text

    # ------------------------------------------------------------------

    def define_macros(self, source: str) -> list[str]:
        """Register the macros defined in ``source``; returns their
        names in definition order (convenience for building macro
        packages)."""
        before = set(self.table.defined_names())
        self.load(source)
        return [
            n for n in self.table.defined_names() if n not in before
        ]

    @property
    def expansion_count(self) -> int:
        return self.expander.expansion_count


# ======================================================================
# Preamble images
# ======================================================================

#: Images kept per process; the least recently used is evicted.
MAX_IMAGES = 8

#: The integer :class:`PipelineStats` fields a load can advance.
_COUNTERS = tuple(
    name
    for name in PipelineStats.__dataclass_fields__
    if type(getattr(PipelineStats(), name)) is int
)


def options_fingerprint(options: Ms2Options) -> str:
    """Every serializable field of ``options`` as canonical JSON: the
    options part of preamble-image and warm-pool keys.  Not
    :meth:`~repro.options.Ms2Options.options_hash`, which ignores
    fields (tracing, ``compiled_bodies``) that change what a processor
    built from these options does."""
    return json.dumps(options.to_json(), sort_keys=True)


class _Uncapturable(Exception):
    """A meta value an image cannot copy faithfully."""


def _copy_value(value: Any, old: Frame | None, new: Frame | None) -> Any:
    """``value`` with its mutable parts copied and closures over the
    globals frame ``old`` re-bound to ``new``.  AST nodes are shared:
    meta-code cannot mutate them (component accessors return copies)."""
    if isinstance(value, list):
        return [_copy_value(item, old, new) for item in value]
    if isinstance(value, nodes.TupleValue):
        return dataclasses.replace(value, fields=[
            dataclasses.replace(f, value=_copy_value(f.value, old, new))
            for f in value.fields
        ])
    if isinstance(value, Closure):
        if value.frame is not old:
            raise _Uncapturable(value.name)
        return dataclasses.replace(value, frame=new)
    if value is None or isinstance(
        value, (int, float, str, NullValue, Node)
    ):
        return value
    raise _Uncapturable(type(value).__name__)


class PreambleImage:
    """A processor's state right after its package loads, built once
    per process and copied into every later processor that loads the
    same ``(filename, source)`` chain under the same options.

    In the paper a macro is parsed, type-checked and compiled once, at
    definition time; without images every fresh processor (each
    :func:`repro.api.expand` call, batch-driver file and daemon
    worker) would redo that for the same package sources.

    The isolation boundary is unchanged.  Each processor gets its own
    definition copies and dispatch trie, its own globals frame
    (closures re-bound to it, list and tuple values copied) and its
    own meta type environment.  Patterns, bodies, compiled matchers
    and purity reports are immutable and shared.  Compiled bodies
    stay lazy and are memoized on the image's prototype definitions.
    Integer :class:`PipelineStats` counters read exactly as after a
    cold load; only time fields show the saving.
    """

    __slots__ = (
        "definitions", "generation", "globals", "gensym_counter",
        "steps", "warnings", "typedef_scopes", "meta_types", "counters",
    )

    @classmethod
    def capture(cls, mp: MacroProcessor) -> "PreambleImage | None":
        """The image of ``mp``, which has done nothing but load; None
        when a load expanded a macro or left a value that cannot be
        copied (the caller then simply stays cold)."""
        interp = mp.interpreter
        if mp.expander.expansion_count:
            return None
        try:
            meta_globals = {
                name: _copy_value(value, interp.globals, None)
                for name, value in interp.globals.values.items()
            }
        except _Uncapturable:
            return None
        image = cls()
        prototypes = []
        for name in mp.table.defined_names():
            original = mp.table.lookup(name)
            prototype = copy.copy(original)
            prototype.prototype = None
            # The cold processor's own compiles fill the image too.
            original.prototype = prototype
            prototypes.append(prototype)
        image.definitions = tuple(prototypes)
        image.generation = mp.table.generation
        image.globals = meta_globals
        image.gensym_counter = interp._gensym_counter
        image.steps = interp._steps
        image.warnings = tuple(interp.warnings)
        image.typedef_scopes = tuple(
            frozenset(scope) for scope in mp._typedef_scopes
        )
        image.meta_types = dict(mp._meta_env.bindings)
        image.counters = {
            name: getattr(mp.stats, name) for name in _COUNTERS
        }
        return image

    def instantiate(self, mp: MacroProcessor) -> None:
        """Give ``mp`` its own copy of this image's state."""
        table = MacroTable()
        for prototype in self.definitions:
            table.define(prototype.instance())
        table.generation = self.generation
        mp.table = mp.expander.table = table
        interp = mp.interpreter
        frame = Frame()
        for name, value in self.globals.items():
            frame.values[name] = _copy_value(value, None, frame)
        interp.globals = frame
        interp._gensym_counter = self.gensym_counter
        interp._steps = self.steps
        interp.warnings = list(self.warnings)
        mp._typedef_scopes = [set(scope) for scope in self.typedef_scopes]
        mp._meta_env = TypeEnv()
        mp._meta_env.bindings.update(self.meta_types)
        for name, value in self.counters.items():
            setattr(mp.stats, name, value)


class ImageCache:
    """A thread-safe LRU of :class:`PreambleImage` values."""

    def __init__(self) -> None:
        self._images: OrderedDict[Hashable, PreambleImage] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> PreambleImage | None:
        """The image under ``key`` (now most recently used), or None."""
        with self._lock:
            image = self._images.get(key)
            if image is None:
                self.misses += 1
                return None
            self._images.move_to_end(key)
            self.hits += 1
            return image

    def put(self, key: Hashable, image: PreambleImage) -> None:
        """Keep ``image`` under ``key``, evicting beyond capacity."""
        with self._lock:
            self._images[key] = image
            self._images.move_to_end(key)
            while len(self._images) > MAX_IMAGES:
                self._images.popitem(last=False)

    def info(self) -> dict[str, int]:
        """Lookup hits and misses, and images held."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._images),
            }


#: The process-wide image cache :meth:`MacroProcessor.load` consults.
PREAMBLE_IMAGES = ImageCache()


def preamble_image_info() -> dict[str, int]:
    """``{"hits", "misses", "entries"}`` of this process's preamble
    images."""
    return PREAMBLE_IMAGES.info()


def expand_source(
    source: str,
    *,
    packages: list[str] | None = None,
    options: Ms2Options | None = None,
) -> str:
    """One-shot convenience: expand ``source`` (optionally after
    loading macro-package sources) and return C text.

    Accepts the same :class:`~repro.options.Ms2Options` as
    :class:`MacroProcessor`, so the one-shot path and the session path
    share every default (recovery, budgets, hygiene) by construction.
    """
    mp = MacroProcessor(options=options)
    for pkg in packages or []:
        mp.load(pkg)
    return mp.expand(source).output
