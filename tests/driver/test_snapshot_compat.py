"""Disk snapshots written before the in-memory blob format changed.

The in-memory replay blobs (``MS2C\\x02``) and the batch driver's JSON
disk snapshots (``MS2C\\x01``) are versioned apart, so a change to the
pickle layout must leave every snapshot file and every file key
valid.  ``PARENT_SNAPSHOT`` is a snapshot file, byte for byte, as the
driver wrote it while both formats still shared version 1.
"""

from __future__ import annotations

from pathlib import Path

from repro.driver.cacheconfig import CacheConfig
from repro.driver.diskcache import PersistentCache
from repro.driver.scheduler import BuildSession
from repro.macros.cache import _HEADER, SNAPSHOT_HEADER

SOURCE = "void f(void) { unroll (2) { work(i); } }\n"
KEY = "3949fd440a8802b0a84bf7d6bdc7c3a87fa5fbcf3f8d9393b217dd39aa3a4baf"
PARENT_SNAPSHOT = (
    b'MS2C\x01e\xdd\xa2Q2\x9f\xd6\\{"diagnostics":[],"format":1,"key":"3949fd4'
    b'40a8802b0a84bf7d6bdc7c3a87fa5fbcf3f8d9393b217dd39aa3a4ba'
    b'f","macro_hash":"7ab74d841c38836b","options_hash":"c8b4b'
    b'19ba3dbfe67","output":"void f(void)\\n{\\n    {\\n        {'
    b'\\n            work(i);\\n        }\\n        {\\n          '
    b'  work(i);\\n        }\\n    }\\n}\\n\\n","path":"unit.c","sp'
    b'ans":[],"stats":{"bodies_compiled":1,"cache_hit_rate":0.'
    b'0,"cache_hits":0,"cache_misses":1,"cache_replay_failures'
    b'":0,"cache_uncacheable":0,"compile_fallbacks":0,"compile'
    b'_time_ms":1.015,"compiled_parses":1,"dispatch_hits":1,"d'
    b'ispatch_misses":28,"expansion_recoveries":0,"expansions"'
    b':1,"gensym_calls":0,"hygiene_renames":0,"interpreted_par'
    b'ses":0,"parse_recoveries":0,"templates_compiled":1,"toke'
    b'ns_interned":160,"tokens_scanned":366}}'
)


def test_disk_and_memory_formats_are_versioned_apart():
    assert SNAPSHOT_HEADER == b"MS2C\x01"
    assert _HEADER == b"MS2C\x02"


def test_file_key_is_unchanged():
    session = BuildSession(package_names=("loops",), cache=None)
    assert session.file_key("unit.c", SOURCE) == KEY


def test_old_snapshot_file_loads_as_a_hit(tmp_path: Path):
    path = PersistentCache(tmp_path).path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_bytes(PARENT_SNAPSHOT)
    session = BuildSession(
        package_names=("loops",), cache=CacheConfig(local_dir=str(tmp_path))
    )
    report = session.build_sources([("unit.c", SOURCE)])
    session.close()
    assert report.files_from_cache == 1
    assert report.cache["hits"] == 1 and report.cache["failures"] == 0
    assert report.results[0].output.count("work(i);") == 2
