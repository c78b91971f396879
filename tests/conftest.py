"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.db import DB
from repro.keys import comparable_from_internal
from repro.options import (
    COMPACTION_BLOCK,
    COMPACTION_SELECTIVE,
    COMPACTION_TABLE,
    Options,
)
from repro.sstable.block_builder import BlockCutter
from repro.sstable.format import BLOCK_TRAILER_SIZE
from repro.storage.fs import SimulatedFS

#: Tiny geometry: enough structure to exercise multi-level behaviour while
#: keeping every test fast.  Values sized so blocks hold ~4 entries and
#: SSTables hold ~4 blocks.
TINY = dict(
    block_size=256,
    sstable_size=1024,
    memtable_size=1024,
    max_levels=5,
    level0_size_factor=4,
    level_size_multiplier=4,
    block_cache_capacity=64 * 1024,
    table_cache_capacity=100,
)


def tiny_options(**overrides) -> Options:
    params = dict(TINY)
    params.update(overrides)
    return Options(**params)


def make_db(style: str = COMPACTION_TABLE, fs: SimulatedFS | None = None, **overrides) -> DB:
    return DB(fs or SimulatedFS(), tiny_options(compaction_style=style, **overrides))


def flip_byte(fs: SimulatedFS, name: str, index: int) -> None:
    """Corrupt one stored byte of ``name`` behind the engine's back."""
    data = bytearray(fs.contents(name))
    data[index] ^= 0xFF
    fs.replace(name, data)


def encode_block(entries, restart_interval: int = 16) -> bytes:
    """The payload of one data block holding ``entries`` — (internal key,
    value) pairs in order — as the engine's run loop encodes it, with no
    size cut.  ``entries`` must not be empty."""
    blocks: list[bytes] = []
    cutter = BlockCutter(1 << 62, restart_interval, lambda raw, *_: blocks.append(raw))
    cutter.add_run((comparable_from_internal(key), value) for key, value in entries)
    cutter.cut()
    (raw,) = blocks
    return raw[:-BLOCK_TRAILER_SIZE]


def kv(i: int, *, width: int = 6) -> tuple[bytes, bytes]:
    key = f"key{i:0{width}d}".encode()
    return key, key + b"=" + b"v" * 40


@pytest.fixture
def fs() -> SimulatedFS:
    return SimulatedFS()


@pytest.fixture(params=[COMPACTION_TABLE, COMPACTION_BLOCK, COMPACTION_SELECTIVE])
def any_style(request) -> str:
    """Parametrizes a test over all three compaction styles."""
    return request.param


@pytest.fixture
def db(fs) -> DB:
    database = make_db(fs=fs)
    yield database
    database.close()
