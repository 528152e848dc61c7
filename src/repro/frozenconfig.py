"""One base for the pipeline's frozen configuration values.

:class:`~repro.options.Ms2Options`, :class:`~repro.serveconfig.ServeConfig`
and :class:`~repro.driver.cacheconfig.CacheConfig` are frozen, slotted
dataclasses that cross process and network boundaries as JSON.
:class:`FrozenConfig` gives all three one :meth:`~FrozenConfig.replace`,
one wire format (:meth:`~FrozenConfig.to_json` /
:meth:`~FrozenConfig.from_json`) and one type check per field.  The
checks are derived from the field annotations once, when the class is
defined — the way a macro's types are checked once, at definition
time, and never again during expansion.

Supported wire annotations are ``bool``, ``int``, ``float`` (finite
only), ``str``, ``X | None`` of those, ``tuple[str, ...]`` (a JSON list
of strings) and ``tuple[tuple[str, str], ...]`` (a JSON list of
``[filename, source]`` pairs).  Fields named in ``_runtime_fields``
(process-local handles) never reach the wire and are not checked.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from typing import Any, Callable, TypeVar

__all__ = ["FrozenConfig", "checker"]

_Config = TypeVar("_Config", bound="FrozenConfig")

#: Annotation -> (noun for messages, accepts(value), wire -> field
#: conversion or None when the wire value is the field value).
_KINDS: dict[Any, tuple[str, Callable, Callable | None]] = {
    bool: ("a boolean", lambda v: isinstance(v, bool), None),
    int: (
        "an integer",
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        None,
    ),
    float: (
        "a finite number",
        lambda v: (
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and math.isfinite(v)
        ),
        float,
    ),
    str: ("a string", lambda v: isinstance(v, str), None),
    tuple[str, ...]: (
        "a list of strings",
        lambda v: (
            isinstance(v, list) and all(isinstance(i, str) for i in v)
        ),
        tuple,
    ),
    tuple[tuple[str, str], ...]: (
        "[filename, source] pairs",
        lambda v: isinstance(v, list) and all(
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(part, str) for part in pair)
            for pair in v
        ),
        lambda v: tuple(map(tuple, v)),
    ),
}


def checker(subject: str, annotation: Any) -> Callable[[Any], Any]:
    """The wire check for one value of type ``annotation``: returns the
    field value, or raises :class:`ValueError` saying ``subject`` must
    be of that type.  :class:`TypeError` for an unsupported
    annotation."""
    args = typing.get_args(annotation)
    nullable = (
        isinstance(annotation, types.UnionType)
        and len(args) == 2
        and types.NoneType in args
    )
    if nullable:
        annotation = args[0] if args[1] is types.NoneType else args[1]
    if annotation not in _KINDS:
        raise TypeError(
            f"{subject}: unsupported wire type {annotation!r}"
        )
    noun, accepts, convert = _KINDS[annotation]
    message = f"{subject} must be {noun}" + (" or null" if nullable else "")

    def check(value: Any) -> Any:
        if value is None and nullable:
            return None
        if not accepts(value):
            raise ValueError(message)
        return value if convert is None else convert(value)

    return check


def _listify(value: tuple) -> list:
    """A tuple field (of strings, or of pairs) as JSON lists."""
    return [
        list(item) if isinstance(item, tuple) else item for item in value
    ]


class FrozenConfig:
    """Base of the frozen, slotted configuration dataclasses.

    Subclasses are ``@dataclass(frozen=True, slots=True)`` and may set
    two class attributes: ``_label``, the prefix of wrong-type
    messages (``"option"`` gives ``option 'x' must be a boolean``),
    and ``_runtime_fields``, the fields that never cross the wire.
    """

    __slots__ = ()

    _label = "option"
    _runtime_fields: frozenset[str] = frozenset()

    #: Every field name, declaration order (set per subclass).
    field_names: tuple[str, ...] = ()
    #: ``(name, check)`` for each wire field (set per subclass).
    _wire: tuple[tuple[str, Callable[[Any], Any]], ...] = ()
    _wire_names: tuple[str, ...] = ()
    #: Wire fields holding tuples, which JSON spells as lists.
    _list_fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # Runs for the class body and again for the slotted copy that
        # ``@dataclass(slots=True)`` creates; both carry the same
        # annotations, so both get the same tables.
        super().__init_subclass__(**kwargs)
        hints = typing.get_type_hints(cls)
        cls.field_names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._wire = tuple(
            (name, checker(f"{cls._label} {name!r}", hints[name]))
            for name in cls.field_names
            if name not in cls._runtime_fields
        )
        cls._wire_names = tuple(name for name, _ in cls._wire)
        cls._list_fields = tuple(
            name
            for name in cls._wire_names
            if typing.get_origin(hints[name]) is tuple
        )

    def replace(self: _Config, **changes: Any) -> _Config:
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_json(self) -> dict[str, Any]:
        """Every wire field as JSON-able values (tuples as lists);
        :meth:`from_json` round-trips it exactly."""
        payload = {name: getattr(self, name) for name in self._wire_names}
        for name in self._list_fields:
            payload[name] = _listify(payload[name])
        return payload

    @classmethod
    def from_json(
        cls: type[_Config], data: dict[str, Any] | None
    ) -> _Config:
        """Rebuild a value from a :meth:`to_json` payload.

        ``None`` gives the defaults.  Unknown keys are ignored
        (payloads written by newer versions still load) and
        runtime-only fields cannot cross the wire.  A value of the
        wrong JSON type, or a non-finite number, raises
        :class:`ValueError` naming the field — the expansion server
        turns that into a ``bad_request`` response.
        """
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ValueError(
                f"{cls.__name__} payload must be a JSON object"
            )
        return cls(**{
            name: check(data[name])
            for name, check in cls._wire
            if name in data
        })
