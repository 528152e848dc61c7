"""The shared frozen-config base under Ms2Options, ServeConfig and
CacheConfig.

Pins what the base must never change — the golden wire forms (the
options hash is one third of every on-disk snapshot key, and
``ServeConfig`` JSON is how shards bootstrap) — checks that every wire
field of all three classes rejects a value of the wrong type by name,
and that the retired legacy keyword spellings are errors.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import MacroProcessor, Ms2Options, expand_source
from repro.diagnostics import ExpansionBudget
from repro.driver import BuildSession, CacheConfig
from repro.serveconfig import ServeConfig

CONFIGS = (Ms2Options, ServeConfig, CacheConfig)

#: ``json.dumps(cls().to_json())`` — byte for byte, key order included.
GOLDEN_JSON = {
    Ms2Options: (
        '{"hygienic": false, "keep_meta": false, "annotate": false, '
        '"compiled_patterns": true, "compiled_bodies": true, '
        '"cache": true, "recover": false, "max_errors": 20, '
        '"max_expansions": null, "max_output_nodes": null, '
        '"deadline_s": null, "trace": false, "profile": false}'
    ),
    ServeConfig: (
        '{"socket": null, "host": "127.0.0.1", "port": null, '
        '"shards": 1, "packages": [], "package_sources": [], '
        '"max_inflight": 4, "queue_limit": 16, '
        '"max_frame_bytes": 16777216, "warm_spares": 2, '
        '"prewarm": true, "request_deadline_ms": null, '
        '"drain_s": 10.0, "cache_dir": null, "metrics_port": null, '
        '"metrics_host": "127.0.0.1", "event_log": null, '
        '"fault_specs": [], "fault_seed": null}'
    ),
    CacheConfig: (
        '{"local_dir": ".ms2-cache", "remote": null, '
        '"write_behind": 64, "remote_timeout_s": 2.0, '
        '"fail_open": true}'
    ),
}

FIELD_COUNTS = {Ms2Options: 15, ServeConfig: 19, CacheConfig: 5}


def test_golden_wire_forms() -> None:
    assert Ms2Options().options_hash() == "c8b4b19ba3dbfe67"
    assert Ms2Options(hygienic=True).options_hash() == "1e19520ab1f25389"
    for cls in CONFIGS:
        assert json.dumps(cls().to_json()) == GOLDEN_JSON[cls], cls
        assert len(dataclasses.fields(cls)) == FIELD_COUNTS[cls], cls
        assert not hasattr(cls(), "__dict__"), f"{cls} lost its slots"


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in CONFIGS for name in cls().to_json()],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_every_wire_field_rejects_wrong_type(cls, name) -> None:
    payload = cls().to_json()
    payload[name] = {"not": "a value of any field type"}
    with pytest.raises(ValueError, match=repr(name)):
        cls.from_json(payload)


PROGRAM = "int x = 1;"


def _mp() -> MacroProcessor:
    return MacroProcessor()


REMOVED_SPELLINGS = {
    "MacroProcessor(hygienic=)": lambda tmp: MacroProcessor(hygienic=True),
    "MacroProcessor(budget=)": lambda tmp: MacroProcessor(
        budget=ExpansionBudget(max_expansions=5)
    ),
    "expand_program(recover=)": lambda tmp: _mp().expand_program(
        PROGRAM, recover=True
    ),
    "expand_to_ast(max_errors=)": lambda tmp: _mp().expand_to_ast(
        PROGRAM, max_errors=3
    ),
    "expand_to_c(annotate=)": lambda tmp: _mp().expand_to_c(
        PROGRAM, annotate=True
    ),
    "expand_source(hygienic=)": lambda tmp: expand_source(
        PROGRAM, hygienic=True
    ),
    "BuildSession(cache_dir=)": lambda tmp: BuildSession(cache_dir=tmp),
    "BuildSession(use_disk_cache=)": lambda tmp: BuildSession(
        use_disk_cache=False
    ),
}


@pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
def test_removed_legacy_spelling_is_a_type_error(spelling, tmp_path) -> None:
    with pytest.raises(TypeError):
        REMOVED_SPELLINGS[spelling](tmp_path)


def test_legacy_factories_are_gone_except_serves() -> None:
    assert not hasattr(Ms2Options, "from_legacy_kwargs")
    assert not hasattr(CacheConfig, "from_legacy_kwargs")
    # Pinned as public surface by test_api_surface.py.
    assert hasattr(ServeConfig, "from_legacy_kwargs")
