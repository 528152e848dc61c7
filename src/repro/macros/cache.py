"""Memoization of macro expansions.

The paper's expansion model re-runs a macro's meta-program on every
invocation.  For the (common) macros whose bodies are pure functions
of their parsed arguments, that work is repeated verbatim: the same
argument ASTs produce the same replacement AST every time.
:class:`ExpansionCache` exploits this — it maps

    (macro name, definition generation, structural key of the actuals)

to the fully-expanded result of a previous invocation.  A hit is
*replayed*: a fresh deep copy of the stored tree whose source
locations all point at the new invocation site and whose hygiene
marks are consistently replaced by fresh ones, so the copy is
indistinguishable from a re-expansion to every downstream consumer
(hygiene renaming, capture detection, unparser).

Replay is the hot path, so entries are stored *pickled*: the byte
blob is an immutable snapshot (later in-place passes on the spliced
original cannot corrupt it) and a plain C ``pickle.loads`` rebuilds
the whole tree, an order of magnitude faster than a field-by-field
Python copy.  The replay-variant parts of a tree are externalized by
the store pickler's ``dispatch_table``: every node class reduces to
``(copyreg.__newobj__, (cls,), (None, slot_state))``, where the slot
state's ``loc`` is one site sentinel and each distinct hygiene mark is
one token for this store.  The sentinel (and any other
:class:`~repro.errors.SourceLocation` or
:class:`~repro.provenance.ExpandedLocation` in the tree) reduces to
``_site()``, each token to ``_mark()``; both read a per-thread replay
context holding the replaying invocation's location and the
expander's mark counter.  Pickle memoizes the sentinel and each token,
so a replay calls into Python once for the site and once per distinct
mark, never per node, and re-stamps the entire tree as a side effect
of loading it.

Blobs start with ``MS2C`` plus ``CACHE_FORMAT_VERSION`` (``\\x02``).
The batch driver's JSON disk snapshots share the magic but carry
their own ``SNAPSHOT_FORMAT_VERSION`` (``\\x01``), so changing the
pickle layout invalidates no snapshot file and no file key.

Whether a macro is safe to cache at all is decided once, at
definition time, by :func:`repro.analysis.analyze_macro_purity` —
macros that touch ``metadcl`` state, call ``gensym``-like or semantic
builtins, or call impure meta-functions are never cached, which keeps
the paper's non-local-transformation examples (the window-procedure
accumulator) working bit-for-bit with the cache enabled.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import threading
from typing import TYPE_CHECKING, Callable, Hashable

from repro.cast.base import Node, _init_field_names
from repro.cast.struct_hash import Unhashable, structural_key
from repro.errors import SourceLocation
from repro.provenance import ExpandedLocation

if TYPE_CHECKING:
    from repro.cast import nodes
    from repro.macros.definition import MacroDefinition
    from repro.stats import PipelineStats

__all__ = [
    "ExpansionCache",
    "replay_result",
    "CACHE_FORMAT_VERSION",
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_HEADER",
    "frame_snapshot",
    "unframe_snapshot",
]

#: In-memory blob format version.  Bumped whenever the externalization
#: scheme (reducers, replay resolvers) changes; entries carrying any
#: other version are treated as stale and re-expanded.
CACHE_FORMAT_VERSION = 2

#: Magic prefix identifying a well-formed snapshot blob.
_MAGIC = b"MS2C"
_HEADER = _MAGIC + bytes([CACHE_FORMAT_VERSION])

#: Format version of the batch driver's on-disk JSON snapshots
#: (:mod:`repro.driver.diskcache`).  Independent of the in-memory
#: pickle layout: it stamps every snapshot file and enters every file
#: key, so bumping it invalidates all local and remote snapshots.
SNAPSHOT_FORMAT_VERSION = 1

#: The version-stamped disk snapshot header (``MS2C`` + format byte).
SNAPSHOT_HEADER = _MAGIC + bytes([SNAPSHOT_FORMAT_VERSION])


def frame_snapshot(payload: bytes) -> bytes:
    """Prefix ``payload`` with the version-stamped snapshot header."""
    return SNAPSHOT_HEADER + payload


def unframe_snapshot(blob: bytes) -> bytes | None:
    """Strip and validate the snapshot header; ``None`` when the blob
    is truncated, garbled, or stamped with another format version —
    the caller treats all three as a miss and re-expands."""
    if blob[: len(SNAPSHOT_HEADER)] != SNAPSHOT_HEADER:
        return None
    return blob[len(SNAPSHOT_HEADER):]


#: Per-thread store and replay state: the daemon replays on executor
#: threads, each for its own processor.
_context = threading.local()


def _site() -> SourceLocation:
    return _context.site


def _mark() -> int:
    return _context.fresh_mark()


class _MarkToken:
    """Stands for one distinct hygiene mark inside a stored blob."""

    __slots__ = ()


#: The ``loc`` of every stored node: one object, so pickled once.
_SITE = SourceLocation(filename="<replay site>")

#: A slotted node's fields as ``(None, {name: value})``, built in C
#: on Python 3.11+.
_node_state = getattr(
    object,
    "__getstate__",
    lambda node: (
        None, {name: getattr(node, name) for name in _init_field_names(node)}
    ),
)


def _reduce_node(node: Node):
    state = _node_state(node)[1]
    state["loc"] = _SITE
    mark = state["mark"]
    if mark is not None:
        tokens = _context.tokens
        token = tokens.get(mark)
        if token is None:
            token = tokens[mark] = _MarkToken()
        state["mark"] = token
    return copyreg.__newobj__, (type(node),), (None, state)


class _Reducers(dict):
    """The store pickler's ``dispatch_table``: both location classes,
    the mark token, and every node class, registered on first use."""

    def __missing__(self, cls: type):
        if not issubclass(cls, Node):
            raise KeyError(cls)
        self[cls] = _reduce_node
        return _reduce_node


_REDUCERS = _Reducers(
    {
        SourceLocation: lambda loc: (_site, ()),
        ExpandedLocation: lambda loc: (_site, ()),
        _MarkToken: lambda token: (_mark, ()),
    }
)


class ExpansionCache:
    """A per-session memo table of completed expansions."""

    def __init__(self, stats: "PipelineStats | None" = None) -> None:
        self._entries: dict[Hashable, bytes] = {}
        self.stats = stats

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(
        self,
        definition: "MacroDefinition",
        invocation: "nodes.MacroInvocation",
    ) -> Hashable | None:
        """The cache key for this invocation, or ``None`` when an
        actual parameter has no structural key (unhashable payload)."""
        try:
            arg_key = structural_key(invocation.args)
        except Unhashable:
            return None
        return (definition.name, definition.generation, arg_key)

    def lookup(self, key: Hashable) -> bytes | None:
        return self._entries.get(key)

    def store(self, key: Hashable, result: Node | list[Node]) -> None:
        buffer = io.BytesIO()
        buffer.write(_HEADER)
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = _REDUCERS
        _context.tokens = {}
        try:
            pickler.dump(result)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Result embeds something unpicklable (a closure, a live
            # definition reference): leave the invocation uncached.
            return
        self._entries[key] = buffer.getvalue()

    def replay(
        self,
        key: Hashable,
        cached: bytes,
        loc: SourceLocation,
        fresh_mark: Callable[[], int],
    ) -> Node | list[Node] | None:
        """Replay a stored snapshot, or ``None`` when it cannot be
        trusted (wrong version header, truncated or corrupt blob).

        A failed replay evicts the entry and counts as a
        ``cache_replay_failure`` in :class:`PipelineStats`; the caller
        falls back to re-running the meta-program, so corruption of
        memo state can never surface as a raw unpickling exception.
        """
        if cached[: len(_HEADER)] == _HEADER:
            try:
                result = replay_result(
                    cached[len(_HEADER):], loc, fresh_mark
                )
                # Shape check: a corrupt blob can unpickle "cleanly"
                # into something that is not an expansion result at
                # all, which would blow up far away in the printer.
                if isinstance(result, Node) or (
                    isinstance(result, list)
                    and all(isinstance(item, Node) for item in result)
                ):
                    return result
            except Exception:
                # pickle raises a menagerie on corrupt input
                # (UnpicklingError, EOFError, ValueError, TypeError,
                # AttributeError, ...); all of them mean the same
                # thing here: the snapshot is unusable.
                pass
        self._entries.pop(key, None)
        if self.stats is not None:
            self.stats.cache_replay_failures += 1
        return None

    def clear(self) -> None:
        """Drop every entry (meta-function redefinition, tests)."""
        self._entries.clear()


def replay_result(
    cached: bytes,
    loc: SourceLocation,
    fresh_mark: Callable[[], int],
) -> Node | list[Node]:
    """A fresh instance of a cached expansion, located at ``loc``,
    with every distinct stored mark consistently replaced by a fresh
    one drawn from ``fresh_mark``."""
    _context.site = loc
    _context.fresh_mark = fresh_mark
    try:
        return pickle.loads(cached)
    finally:
        _context.site = _context.fresh_mark = None
