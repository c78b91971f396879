"""Failure injection: corrupted stores, missing files, torn metadata.

A production-credible engine fails loudly and precisely on damaged input;
these tests pin down which error surfaces where.
"""

import random

import pytest

from conftest import flip_byte, kv, make_db, tiny_options
from repro.core.db import DB
from repro.errors import CorruptionError, FileSystemError
from repro.storage.fs import SimulatedFS


def build_store(fs, n=300):
    db = make_db(fs=fs)
    order = list(range(n))
    random.Random(1).shuffle(order)
    for i in order:
        db.put(*kv(i))
    db.flush()
    db.close()
    return db


def reopen(fs) -> DB:
    return DB(fs, tiny_options(), seed=1)


class TestManifestDamage:
    def test_missing_current_starts_fresh(self, fs):
        build_store(fs)
        fs.delete_file("CURRENT")
        db = reopen(fs)
        # No catalog: the store opens empty (files are orphaned, not read).
        assert db.scan() == []
        db.close()

    def test_corrupt_manifest_record_raises(self, fs):
        build_store(fs)
        from repro.core.manifest import CURRENT_FILE, read_pointer

        name = read_pointer(fs, CURRENT_FILE)
        # flip a byte inside the first record's payload
        flip_byte(fs, name, 7)
        with pytest.raises(CorruptionError):
            reopen(fs)

    def test_current_pointing_at_missing_manifest(self, fs):
        build_store(fs)
        from repro.core.manifest import CURRENT_FILE, read_pointer

        fs.delete_file(read_pointer(fs, CURRENT_FILE))
        with pytest.raises(FileSystemError):
            reopen(fs)

    def test_empty_current_rejected(self, fs):
        build_store(fs)
        fs.replace("CURRENT", b"")
        with pytest.raises(CorruptionError):
            reopen(fs)


class TestSSTableDamage:
    def test_missing_sstable_detected_on_open_path(self, fs):
        db_ref = build_store(fs)
        victim = next(m.file_name() for _l, m in db_ref.version.all_files())
        fs.delete_file(victim)
        db = reopen(fs)
        # the catalog references the file; first touch raises
        with pytest.raises(FileSystemError):
            for i in range(300):
                db.get(kv(i)[0])

    def test_corrupt_data_block_raises_on_read(self, fs):
        db_ref = build_store(fs)
        meta = next(m for _l, m in db_ref.version.all_files())
        # Flip one byte inside the first data block's payload.
        flip_byte(fs, meta.file_name(), 3)
        db = reopen(fs)
        with pytest.raises(CorruptionError):
            db.scan()

    def test_checksum_verification_can_be_disabled(self, fs):
        db_ref = build_store(fs)
        meta = next(m for _l, m in db_ref.version.all_files())
        flip_byte(fs, meta.file_name(), 3)
        db = DB(fs, tiny_options(verify_checksums=False), seed=1)
        # No checksum guard: reads may return garbage, but only parse
        # errors (if any) surface; the DB doesn't crash on open.
        try:
            db.scan()
        except CorruptionError:
            pass  # structural damage may still be caught by the parser
        db.close()

    def test_truncated_footer_raises(self, fs):
        db_ref = build_store(fs)
        meta = next(m for _l, m in db_ref.version.all_files())
        fs.replace(meta.file_name(), fs.contents(meta.file_name())[:-5])
        db = reopen(fs)
        with pytest.raises((CorruptionError, FileSystemError)):
            for i in range(300):
                db.get(kv(i)[0])


class TestWalDamage:
    def test_flipped_wal_byte_truncates_replay_at_tear(self, fs):
        """Tolerant WAL recovery: a corrupt frame stops replay at the tear
        instead of failing the open — records before it survive, the skipped
        byte count is surfaced via health()."""
        db = make_db(fs=fs)
        db.put(b"k1", b"v1")
        db.put(b"k2", b"v2")
        log = next(n for n in fs.list_dir() if n.endswith(".log"))
        log_size = fs.file_size(log)
        # Corrupt the SECOND record's frame: k1 replays, k2 is lost.
        frame1_end = log_size // 2
        flip_byte(fs, log, frame1_end + 6)
        db2 = reopen(fs)
        assert db2.get(b"k1") == b"v1"
        assert db2.get(b"k2") is None
        recovery = db2.health()["wal_recovery"]
        assert recovery["corrupt"]
        assert recovery["records"] == 1
        assert recovery["bytes_skipped"] > 0
        assert recovery["bytes_replayed"] + recovery["bytes_skipped"] == log_size
        db2.close()

    def test_flipped_first_wal_byte_loses_whole_log_but_opens(self, fs):
        db = make_db(fs=fs)
        db.put(b"k1", b"v1")
        db.put(b"k2", b"v2")
        log = next(n for n in fs.list_dir() if n.endswith(".log"))
        flip_byte(fs, log, 6)
        db2 = reopen(fs)
        assert db2.get(b"k1") is None
        assert db2.get(b"k2") is None
        recovery = db2.health()["wal_recovery"]
        assert recovery["corrupt"] and recovery["records"] == 0
        db2.close()

    def test_fully_truncated_wal_is_empty_recovery(self, fs):
        db = make_db(fs=fs)
        db.put(b"k1", b"v1")
        log = next(n for n in fs.list_dir() if n.endswith(".log"))
        fs.replace(log, b"")
        db2 = reopen(fs)
        assert db2.get(b"k1") is None  # lost with the log, but store opens
        db2.close()
