"""Per-block compression tests (off by default — the paper's setting)."""

import random

import pytest

from conftest import kv, make_db, tiny_options
from repro.core.db import DB
from repro.errors import CorruptionError, InvalidArgumentError
from repro.options import Options
from repro.sstable.format import (
    COMPRESSION_NONE,
    COMPRESSION_ZLIB,
    unwrap_block,
    wrap_block,
)
from repro.storage.fs import SimulatedFS


class TestWrapUnwrap:
    def test_zlib_roundtrip(self):
        payload = b"abcabcabc" * 100  # highly compressible
        raw = wrap_block(payload, COMPRESSION_ZLIB)
        assert len(raw) < len(payload)
        assert raw[-5] == COMPRESSION_ZLIB
        assert unwrap_block(raw) == payload

    def test_incompressible_stored_raw(self):
        import hashlib

        # deterministic, incompressible: a chain of SHA-256 digests
        chunks, seed = [], b"seed"
        for _ in range(8):
            seed = hashlib.sha256(seed).digest()
            chunks.append(seed)
        payload = b"".join(chunks)
        raw = wrap_block(payload, COMPRESSION_ZLIB)
        assert raw[-5] == COMPRESSION_NONE  # didn't shrink -> stored raw
        assert unwrap_block(raw) == payload

    def test_corrupt_compressed_stream_detected(self):
        raw = bytearray(wrap_block(b"abcabcabc" * 100, COMPRESSION_ZLIB))
        raw[2] ^= 0xFF
        with pytest.raises(CorruptionError):
            unwrap_block(bytes(raw))  # checksum catches it first

    def test_corrupt_stream_without_checksum_still_contained(self):
        raw = bytearray(wrap_block(b"abcabcabc" * 100, COMPRESSION_ZLIB))
        raw[2] ^= 0xFF
        with pytest.raises(CorruptionError):
            unwrap_block(bytes(raw), verify_checksum=False)

    def test_unknown_codec_rejected(self):
        with pytest.raises(CorruptionError):
            wrap_block(b"x", 7)


class TestEngineWithCompression:
    def test_options_validation(self):
        Options(compression="zlib").validate()
        with pytest.raises(InvalidArgumentError):
            Options(compression="lz4").validate()

    def test_full_engine_roundtrip(self, any_style):
        db = make_db(any_style, compression="zlib")
        order = list(range(400))
        random.Random(2).shuffle(order)
        for i in order:
            db.put(kv(i)[0], b"repetitive-" * 8)
        db.delete(kv(7)[0])
        for i in range(0, 400, 11):
            expected = None if i == 7 else b"repetitive-" * 8
            assert db.get(kv(i)[0]) == expected
        assert len(db.scan()) == 399
        db.close()

    def test_compression_reduces_physical_writes(self):
        def load(compression):
            db = DB(SimulatedFS(), tiny_options(compression=compression))
            order = list(range(300))
            random.Random(3).shuffle(order)
            for i in order:
                db.put(kv(i)[0], b"compress-me-" * 6)
            written = db.io_stats.bytes_written
            db.close()
            return written

        assert load("zlib") < load("none") * 0.8

    def test_recovery_with_compression(self):
        fs = SimulatedFS()
        db = DB(fs, tiny_options(compression="zlib"))
        for i in range(200):
            db.put(kv(i)[0], b"zzz" * 20)
        db.close()
        db2 = DB(fs, tiny_options(compression="zlib"))
        assert db2.get(kv(123)[0]) == b"zzz" * 20
        db2.close()

    def test_paper_presets_keep_compression_off(self):
        from repro.baselines.presets import blockdb, l2sm_options, leveldb_like, rocksdb_like

        for factory in (leveldb_like, rocksdb_like, blockdb, l2sm_options):
            assert factory(sstable_size=1 << 20).compression == "none"
