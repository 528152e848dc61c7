"""The unified configuration surface of the expansion daemon.

Historically every knob of ``repro serve`` travelled as its own
keyword argument — ``serve(socket_path=..., max_inflight=..., ...)``
with the CLI re-deriving its own argparse defaults for all of them.
:class:`ServeConfig` replaces that sprawl with one frozen value object
on the shared :class:`~repro.frozenconfig.FrozenConfig` base:

- the **single source of defaults** (the ``repro serve`` argparse
  defaults and the library's behaviour both come from
  ``ServeConfig()``),
- **JSON round-trippable** (:meth:`ServeConfig.to_json` /
  :meth:`ServeConfig.from_json`), which is how the sharding
  supervisor ships one configuration to every shard process,
- **validated once** (:meth:`ServeConfig.validate`), so an
  impossible combination (no listen address, a Unix socket with
  ``shards > 1``) fails before any process is spawned.

The legacy ``serve(...)`` keyword arguments keep working through a
thin shim (:meth:`ServeConfig.from_legacy_kwargs`) that emits
:class:`~repro.options.Ms2DeprecationWarning`; it is pinned as public
surface by the :mod:`repro.api` compatibility tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.frozenconfig import FrozenConfig
from repro.options import warn_legacy

__all__ = [
    "DEFAULT_DRAIN_S",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WARM_SPARES",
    "SERVE_FIELDS",
    "ServeConfig",
]

#: Hard cap on one request/response frame (bytes, including newline).
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Concurrent expansions (executor threads) per server process.
DEFAULT_MAX_INFLIGHT = 4

#: Admitted-but-waiting requests beyond ``max_inflight``.
DEFAULT_QUEUE_LIMIT = 16

#: Seconds SIGTERM waits for in-flight requests before forcing.
DEFAULT_DRAIN_S = 10.0

#: Warm spare workers kept per (options, preamble) pool key.
DEFAULT_WARM_SPARES = 2


@dataclass(frozen=True, slots=True)
class ServeConfig(FrozenConfig):
    """Every knob of one ``repro serve`` daemon, as a frozen value.

    Construct once, share freely: the object is immutable, comparable
    and JSON round-trippable (the shard supervisor ships it to every
    shard as :meth:`to_json`).  Derive variants with :meth:`replace`.
    :class:`~repro.options.Ms2Options` stays a *separate* value — it
    configures expansion semantics, this configures the serving
    process around them.
    """

    _label = "serve option"

    # -- listen address -------------------------------------------------
    #: Unix domain socket path (exactly one of ``socket`` / ``port``).
    socket: str | None = None
    #: TCP bind address for ``port`` mode.
    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral).  Required for ``shards > 1``.
    port: int | None = None
    #: Pre-forked acceptor processes sharing the port via
    #: ``SO_REUSEPORT`` (1 = classic single-process daemon).
    shards: int = 1

    # -- preamble -------------------------------------------------------
    #: Standard macro packages pre-loaded into every warm worker.
    packages: tuple[str, ...] = ()
    #: ``(filename, source)`` pairs loaded after the packages.
    package_sources: tuple[tuple[str, str], ...] = ()

    # -- capacity -------------------------------------------------------
    #: Concurrent expansions per shard.
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Admitted requests waiting beyond ``max_inflight``.
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    #: Hard cap on one request/response frame, bytes.
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Pre-built workers kept per options/preamble pool key.
    warm_spares: int = DEFAULT_WARM_SPARES
    #: Build the default worker pool before accepting traffic.
    prewarm: bool = True

    # -- budgets / shutdown ---------------------------------------------
    #: Server-side wall-clock budget (milliseconds) for requests whose
    #: options set no deadline of their own (None = unbounded).
    request_deadline_ms: float | None = None
    #: Seconds SIGTERM waits for in-flight requests.
    drain_s: float = DEFAULT_DRAIN_S

    # -- caching --------------------------------------------------------
    #: Persistent snapshot cache root shared with ``repro build``
    #: (``expand_file`` requests); None disables it.
    cache_dir: str | None = None

    # -- observability --------------------------------------------------
    #: HTTP telemetry port (0 = ephemeral; None = no sidecar).  With
    #: ``shards > 1`` this is the fleet gateway's port.
    metrics_port: int | None = None
    #: Bind address for ``metrics_port``.
    metrics_host: str = "127.0.0.1"
    #: JSONL event-log path (each shard appends ``.shard-N``).
    event_log: str | None = None

    # -- chaos ----------------------------------------------------------
    #: ``repro.faults`` specs armed in the daemon and exported to
    #: every shard process.
    fault_specs: tuple[str, ...] = ()
    #: Seed for the fault-injection RNG (None = random).
    fault_seed: int | None = None

    # ------------------------------------------------------------------

    def validate(self) -> "ServeConfig":
        """``self`` if the configuration is serveable; raises
        :class:`ValueError` naming the first impossibility."""
        if (self.socket is None) == (self.port is None):
            raise ValueError(
                "exactly one of socket or port must be given"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > 1 and self.socket is not None:
            raise ValueError(
                "sharded serving requires TCP (port=...): shards "
                "share one port via SO_REUSEPORT, which Unix sockets "
                "cannot do"
            )
        for name in ("port", "metrics_port"):
            port = getattr(self, name)
            if port is not None and not 0 <= port <= 65535:
                raise ValueError(f"{name} must be in 0-65535")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
        if self.warm_spares < 0:
            raise ValueError("warm_spares must be >= 0")
        if (
            self.request_deadline_ms is not None
            and not self.request_deadline_ms > 0
        ):
            raise ValueError("request_deadline_ms must be > 0")
        if not self.drain_s >= 0:
            raise ValueError("drain_s must be >= 0")
        return self

    @property
    def default_deadline_s(self) -> float | None:
        """``request_deadline_ms`` in the seconds the server core
        speaks (None = unbounded)."""
        if self.request_deadline_ms is None:
            return None
        return self.request_deadline_ms / 1000.0

    # ------------------------------------------------------------------
    # Legacy-kwargs shim
    # ------------------------------------------------------------------

    @classmethod
    def from_legacy_kwargs(cls, **legacy: Any) -> "ServeConfig":
        """Fold the legacy ``serve(...)`` keyword arguments into a
        config value, emitting one
        :class:`~repro.options.Ms2DeprecationWarning` per call.

        The legacy spellings — ``socket_path``, ``package_names``,
        ``default_deadline_s`` — map onto the new field names;
        everything else shares its name.  Legacy defaults are
        preserved (``cache_dir=None`` disabled the persistent cache).
        """
        unknown = set(legacy) - _LEGACY_FIELDS
        if unknown:
            raise TypeError(
                f"unknown serve() option(s): {sorted(unknown)}"
            )
        warn_legacy(
            f"passing {', '.join(sorted(legacy))} as serve() keyword "
            "argument(s)",
            "ServeConfig",
        )
        kwargs: dict[str, Any] = {}
        if "socket_path" in legacy:
            value = legacy.pop("socket_path")
            kwargs["socket"] = str(value) if value is not None else None
        if "package_names" in legacy:
            kwargs["packages"] = tuple(legacy.pop("package_names"))
        if "default_deadline_s" in legacy:
            value = legacy.pop("default_deadline_s")
            kwargs["request_deadline_ms"] = (
                value * 1000.0 if value is not None else None
            )
        for name, value in legacy.items():
            if name in ("cache_dir", "event_log") and value is not None:
                value = str(value)
            elif name == "package_sources":
                value = tuple(
                    (str(filename), source) for filename, source in value
                )
            kwargs[name] = value
        return cls(**kwargs)


#: Every field name of :class:`ServeConfig`, declaration order.
SERVE_FIELDS: tuple[str, ...] = ServeConfig.field_names

#: The keyword arguments the legacy ``serve(...)`` signature took.
_LEGACY_FIELDS = frozenset(
    {
        "socket_path",
        "host",
        "port",
        "package_names",
        "package_sources",
        "cache_dir",
        "max_inflight",
        "queue_limit",
        "max_frame_bytes",
        "warm_spares",
        "default_deadline_s",
        "drain_s",
        "metrics_port",
        "metrics_host",
        "event_log",
    }
)
