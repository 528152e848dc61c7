"""The unified configuration surface of the snapshot cache.

Historically the persistent cache was configured with a lone
``BuildSession(cache_dir=...)`` keyword; a distributed cache needs
more knobs (the remote authority's address, the write-behind queue
depth, the remote timeout, the fail-open switch), and scattering them
as keyword arguments would repeat the sprawl
:class:`~repro.options.Ms2Options` and
:class:`~repro.serveconfig.ServeConfig` were built to end.
:class:`CacheConfig` is their sibling for the cache layer, on the same
:class:`~repro.frozenconfig.FrozenConfig` base:

- the **single source of defaults** — ``repro build``'s
  ``--cache-dir`` / ``--remote-cache`` argparse defaults and the
  library's behaviour both come from ``CacheConfig()``,
- **JSON round-trippable** (:meth:`CacheConfig.to_json` /
  :meth:`CacheConfig.from_json`), so a build farm can ship one cache
  policy to every runner the way the shard supervisor ships a
  :class:`~repro.serveconfig.ServeConfig`,
- **validated once** (:meth:`CacheConfig.validate`), so a bad remote
  address or a negative queue depth fails before the first build,
- the **backend factory** (:meth:`CacheConfig.build_backend`): the
  one place the local / remote / tiered composition is decided.

The legacy ``BuildSession(cache_dir=..., use_disk_cache=...)``
keyword arguments were removed on the schedule in
``docs/LANGUAGE.md`` §11 and now raise :class:`TypeError`; spell them
``cache=CacheConfig(local_dir=...)`` and ``cache=None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.driver.diskcache import DEFAULT_CACHE_DIR
from repro.frozenconfig import FrozenConfig

__all__ = [
    "CACHE_FIELDS",
    "CacheConfig",
    "DEFAULT_REMOTE_TIMEOUT_S",
    "DEFAULT_WRITE_BEHIND",
]

#: Client-side budget for one remote cache operation, seconds.  A
#: remote answer that arrives later than this is treated as a miss —
#: slower than re-expanding is worse than useless.
DEFAULT_REMOTE_TIMEOUT_S = 2.0

#: Bounded depth of the asynchronous write-behind queue (snapshot
#: publishes waiting for the background uploader).  0 publishes
#: synchronously; overflow drops the write and counts it.
DEFAULT_WRITE_BEHIND = 64


@dataclass(frozen=True, slots=True)
class CacheConfig(FrozenConfig):
    """Every knob of the persistent snapshot cache, as a frozen value.

    Construct once, share freely: the object is immutable, comparable
    and JSON round-trippable.  Derive variants with :meth:`replace`.
    ``CacheConfig()`` is today's behaviour exactly — a local
    ``.ms2-cache/`` directory, no remote.
    """

    _label = "cache option"

    #: Local snapshot-directory root; None disables the local tier.
    local_dir: str | None = DEFAULT_CACHE_DIR
    #: Address of a ``repro serve`` daemon doubling as the cache
    #: authority (any :func:`~repro.client.parse_server_address`
    #: form); None disables the remote tier.
    remote: str | None = None
    #: Write-behind queue depth for remote publishes (0 = publish
    #: synchronously on the build path).
    write_behind: int = DEFAULT_WRITE_BEHIND
    #: Client-side budget for one remote cache op, seconds.
    remote_timeout_s: float = DEFAULT_REMOTE_TIMEOUT_S
    #: When True (default), every remote failure — daemon down,
    #: connection reset, corrupt payload, timeout — degrades to a
    #: cache miss and the build expands locally.  False turns remote
    #: failures into exceptions (CI setups that must notice a
    #: misconfigured authority).
    fail_open: bool = True

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any cache tier is configured at all."""
        return self.local_dir is not None or self.remote is not None

    def validate(self) -> "CacheConfig":
        """``self`` if the configuration is usable; raises
        :class:`ValueError` naming the first impossibility."""
        if self.write_behind < 0:
            raise ValueError("write_behind must be >= 0")
        if not 0 < self.remote_timeout_s < math.inf:
            raise ValueError("remote_timeout_s must be finite and > 0")
        if self.remote is not None:
            from repro.client import parse_server_address

            parse_server_address(self.remote)  # raises ValueError
        return self

    def build_backend(self) -> Any:
        """The :class:`~repro.driver.cachebackend.CacheBackend` this
        configuration describes, or None when both tiers are off:

        - local only — the classic
          :class:`~repro.driver.diskcache.PersistentCache`;
        - remote only — a bare
          :class:`~repro.driver.cachebackend.RemoteCacheBackend`;
        - both — a :class:`~repro.driver.cachebackend.TieredBackend`
          (read-through local first, async write-behind to remote).
        """
        from repro.driver.cachebackend import (
            RemoteCacheBackend,
            TieredBackend,
        )
        from repro.driver.diskcache import PersistentCache

        self.validate()
        local = (
            PersistentCache(self.local_dir)
            if self.local_dir is not None
            else None
        )
        if self.remote is None:
            return local
        remote = RemoteCacheBackend(
            self.remote,
            timeout_s=self.remote_timeout_s,
            fail_open=self.fail_open,
        )
        if local is None:
            return remote
        return TieredBackend(
            local, remote, write_behind=self.write_behind
        )


#: Every field name of :class:`CacheConfig`, declaration order.
CACHE_FIELDS: tuple[str, ...] = CacheConfig.field_names
