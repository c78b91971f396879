"""Key-value separation (DESIGN.md §13): codec, engine behaviour, GC,
recovery, and the default-mode do-no-harm guarantees."""

import pytest

from conftest import make_db, tiny_options
from repro.core.db import DB
from repro.errors import CorruptionError
from repro.memtable.memtable import ENTRY_OVERHEAD
from repro.options import COMPACTION_SELECTIVE
from repro.storage.fs import SimulatedFS
from repro.vlog import (
    POINTER_SIZE,
    TAG_INLINE,
    TAG_POINTER,
    ValuePointer,
    decode_pointer,
    decode_record,
    encode_pointer,
    encode_record,
    is_pointer,
    parse_vlog_file_name,
    salvage_scan,
    unwrap_inline,
    vlog_file_name,
    wrap_inline,
)

#: Threshold low enough that the 40+ byte values below are separated while
#: short control values stay inline; file size at the validation floor so
#: head rolls and GC happen within a few dozen writes.
KV = dict(
    kv_separation=True,
    kv_separation_threshold=32,
    vlog_file_size=1024,
    vlog_gc_ratio=0.3,
)


def kv_db(fs=None, **overrides):
    params = dict(KV)
    params.update(overrides)
    return make_db(COMPACTION_SELECTIVE, fs=fs, **params)


def big(i: int, size: int = 64) -> tuple[bytes, bytes]:
    key = f"key{i:06d}".encode()
    return key, (f"val{i:06d}.".encode() * (size // 10 + 1))[:size]


class TestCodec:
    def test_pointer_round_trip(self):
        encoded = encode_pointer(7, 4096, 123)
        assert len(encoded) == POINTER_SIZE
        assert encoded[0] == TAG_POINTER
        assert decode_pointer(encoded) == ValuePointer(7, 4096, 123)

    def test_inline_round_trip(self):
        stored = wrap_inline(b"payload")
        assert stored[0] == TAG_INLINE
        assert not is_pointer(stored)
        assert unwrap_inline(stored) == b"payload"

    def test_record_round_trip(self):
        frame = encode_record(b"k1", b"v" * 50)
        key, value, end = decode_record(frame)
        assert (key, value, end) == (b"k1", b"v" * 50, len(frame))

    def test_record_round_trip_at_offset(self):
        first = encode_record(b"a", b"x" * 10)
        second = encode_record(b"b", b"y" * 20)
        buffer = first + second
        key, value, end = decode_record(buffer, len(first))
        assert (key, value, end) == (b"b", b"y" * 20, len(buffer))

    def test_corrupt_record_rejected(self):
        frame = bytearray(encode_record(b"k", b"v" * 30))
        frame[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_record(bytes(frame))

    def test_salvage_stops_at_torn_tail(self):
        frames = [encode_record(*big(i)) for i in range(4)]
        intact_length = sum(len(f) for f in frames[:3])
        data = b"".join(frames[:3]) + frames[3][: len(frames[3]) // 2]
        records, intact = salvage_scan(data)
        assert intact == intact_length
        assert [key for _o, _l, key, _v in records] == [big(i)[0] for i in range(3)]

    def test_file_name_round_trip(self):
        assert vlog_file_name(42) == "VLOG-000042"
        assert parse_vlog_file_name("VLOG-000042") == 42
        assert parse_vlog_file_name("000042.sst") is None
        assert parse_vlog_file_name("VLOG-xyz") is None


class TestSeparatedEngine:
    def test_round_trip_and_files(self, fs):
        db = kv_db(fs)
        pairs = [big(i) for i in range(30)]
        for key, value in pairs:
            db.put(key, value)
        for key, value in pairs:
            assert db.get(key) == value
        assert db.stats.vlog_separated_values == 30
        assert any(n.startswith("VLOG-") for n in fs.list_dir())
        db.close()

    def test_threshold_boundary(self, fs):
        db = kv_db(fs, kv_separation_threshold=32)
        db.put(b"at", b"v" * 32)       # == threshold: separated
        db.put(b"under", b"v" * 31)    # < threshold: inline
        assert db.stats.vlog_separated_values == 1
        assert db.get(b"at") == b"v" * 32
        assert db.get(b"under") == b"v" * 31
        db.close()

    def test_multi_get_mixed(self, fs):
        db = kv_db(fs)
        db.put(b"large", b"L" * 100)
        db.put(b"small", b"s")
        db.delete(b"gone")
        out = db.multi_get([b"large", b"small", b"gone"])
        assert out == {b"large": b"L" * 100, b"small": b"s", b"gone": None}
        db.close()

    def test_scan_resolves_pointers(self, fs):
        db = kv_db(fs)
        pairs = [big(i) for i in range(20)]
        for key, value in pairs:
            db.put(key, value)
        db.flush()
        assert list(db.scan()) == pairs
        db.close()

    def test_deletes_and_overwrites(self, fs):
        db = kv_db(fs)
        for i in range(20):
            db.put(*big(i))
        for i in range(0, 20, 2):
            db.delete(big(i)[0])
        for i in range(1, 20, 2):
            key, _ = big(i)
            db.put(key, b"replaced" * 10)
        db.flush()
        for i in range(20):
            key, _ = big(i)
            expected = None if i % 2 == 0 else b"replaced" * 10
            assert db.get(key) == expected
        db.close()

    def test_recovery_round_trip(self, fs):
        db = kv_db(fs)
        pairs = [big(i) for i in range(25)]
        for key, value in pairs:
            db.put(key, value)
        db.close()
        db = kv_db(fs)
        for key, value in pairs:
            assert db.get(key) == value
        db.close()

    def test_recovery_salvages_torn_vlog_tail(self, fs):
        db = kv_db(fs)
        db.put(*big(0))
        db.close()
        head = max(n for n in fs.list_dir() if n.startswith("VLOG-"))
        fs._append(head, b"\x99" * 7)  # torn partial frame
        db = kv_db(fs)
        assert db.get(big(0)[0]) == big(0)[1]
        db.close()

    def test_unregistered_vlog_file_deleted_on_open(self, fs):
        db = kv_db(fs)
        db.put(*big(0))
        db.close()
        writer = fs.create_file("VLOG-999999")
        writer.append(encode_record(b"orphan", b"x" * 40))
        writer.close()
        db = kv_db(fs)
        assert "VLOG-999999" not in fs.list_dir()
        assert db.get(big(0)[0]) == big(0)[1]
        db.close()


class TestGarbageCollection:
    def _churn(self, db, passes=6, keys=30):
        pairs = None
        for generation in range(passes):
            pairs = [big(i, 64 + generation) for i in range(keys)]
            for key, value in pairs:
                db.put(key, value)
            db.flush()
        db.compact_all()
        return pairs

    def test_gc_runs_and_deletes(self, fs):
        db = kv_db(fs)
        pairs = self._churn(db)
        assert db.stats.vlog_dead_bytes_observed > 0
        assert db.stats.vlog_gc_runs >= 1
        assert db.stats.vlog_files_deleted >= 1
        # GC re-puts go through the same write core as user writes, as
        # engine traffic: the WA denominator counts the churn's puts only.
        assert db.stats.vlog_gc_rewritten_values > 0
        assert db.stats.user_writes == 6 * 30
        assert db.stats.user_deletes == 0
        assert db.stats.user_bytes_written == sum(
            len(big(i)[0]) + 64 + generation
            for generation in range(6)
            for i in range(30)
        )
        for key, value in pairs:
            assert db.get(key) == value
        db.close()

    def test_data_intact_after_gc_and_reopen(self, fs):
        db = kv_db(fs)
        pairs = self._churn(db)
        db.close()
        db = kv_db(fs)
        for key, value in pairs:
            assert db.get(key) == value
        db.close()

    def test_gc_respects_snapshots(self, fs):
        db = kv_db(fs)
        for i in range(20):
            db.put(*big(i))
        with db.snapshot() as snap:
            self._churn(db)
            # The snapshot still resolves the original generation.
            assert db.get(big(0)[0], snapshot=snap) == big(0)[1]
        db.close()

    def test_ledger_survives_in_manifest(self, fs):
        db = kv_db(fs)
        for i in range(30):
            db.put(*big(i))
        for i in range(30):
            db.put(big(i)[0], big(i)[1] + b"!")
        db.flush()
        db.compact_all()
        assert sum(db.version.vlog.values()) > 0
        ledger = dict(db.version.vlog)
        db.close()
        db = kv_db(fs)
        # Reopen replays the journaled dead-byte counts (new head aside).
        for number, dead in ledger.items():
            if number in db.version.vlog:
                assert db.version.vlog[number] >= min(dead, 1) or dead == 0
        db.close()


    @pytest.mark.parametrize("background", [False, True], ids=["sync", "lane"])
    def test_round_that_rolls_the_memtable_runs_once_per_victim(self, fs, background):
        """A GC round whose re-puts overflow the memtable several times
        flushes inline (``_gc_maybe_flush``) without re-entering GC: the
        re-puts go through ``_apply_locked``, which never rolls the
        memtable, and the inline drain only ever runs the pending flush —
        so no guard flag is needed, and each victim is collected by exactly
        one round in either driver.

        The flush bound comes from the round's own re-puts, whatever the
        memtable held when the round began: a round re-puts in chunks of
        at most 64 records and checks the memtable after each, so every
        chunk whose entries x memtable charge reach ``memtable_size``
        flushes once.  (A lane writer that waited out one of those flushes
        used to freeze the emptied memtable, and the next check drained
        that instead — see ``test_writer_that_waited_does_not_freeze_a_
        rolled_memtable``.)"""
        db = kv_db(fs, vlog_file_size=16 * 1024, background_compaction=background)
        charge = len(big(0)[0]) + POINTER_SIZE + ENTRY_OVERHEAD  # one re-put
        rounds: list[tuple[int, int, int]] = []  # (victim, flushes, chunks that fill)
        chunk_reputs: list[int] = []
        run_round = db._run_vlog_gc
        rewrite_chunk = db._gc_rewrite_chunk

        def spy(victim: int) -> None:
            flushes = db.stats.flush_count
            chunk_reputs.clear()
            run_round(victim)
            filling = sum(1 for n in chunk_reputs if n * charge >= db.options.memtable_size)
            rounds.append((victim, db.stats.flush_count - flushes, filling))

        def chunk_spy(victim: int, chunk) -> None:
            reputs = db.stats.vlog_gc_rewritten_values
            rewrite_chunk(victim, chunk)
            chunk_reputs.append(db.stats.vlog_gc_rewritten_values - reputs)

        db._run_vlog_gc = spy
        db._gc_rewrite_chunk = chunk_spy
        # ~190 records per 16 KiB vlog file; overwriting every other key
        # leaves each sealed file half dead (past the 0.3 ratio) with ~95
        # live records to re-put through a 1 KiB memtable.
        for i in range(400):
            db.put(*big(i))
        for i in range(0, 400, 2):
            db.put(*big(i, 70))
        db.flush()
        db.compact_all()
        for i in range(400, 460):  # roll the memtable: the driver runs its step
            db.put(*big(i))
        db.wait_for_background()

        victims = [victim for victim, _, _ in rounds]
        assert len(victims) >= 2 and len(set(victims)) == len(victims)
        assert db.stats.vlog_gc_runs == len(victims)
        assert all(filling >= 3 and flushes >= filling for _, flushes, filling in rounds)
        for i in range(400):
            assert db.get(big(i)[0]) == big(i, 70 if i % 2 == 0 else 64)[1]
        db.close()


class TestDefaultModeUnchanged:
    def test_no_vlog_artifacts(self, fs):
        db = make_db(COMPACTION_SELECTIVE, fs=fs)
        for i in range(40):
            db.put(*big(i))
        db.flush()
        db.compact_all()
        assert db.vlog is None
        assert db.version.vlog == {}
        assert not any(n.startswith("VLOG-") for n in fs.list_dir())
        assert db.stats.vlog_separated_values == 0
        assert db.stats.vlog_resolves == 0
        db.close()

    def test_separation_off_is_bit_identical(self):
        """The same workload produces byte-identical SSTables with the
        subsystem compiled out (kv_separation=False) as it always did —
        separation off must not even re-frame values."""
        images = []
        for _ in range(2):
            fs = SimulatedFS()
            db = make_db(COMPACTION_SELECTIVE, fs=fs)
            for i in range(30):
                db.put(*big(i))
            db.flush()
            db.compact_all()
            db.close()
            images.append(
                {
                    name: fs._read(name, 0, fs.file_size(name))
                    for name in sorted(fs.list_dir())
                    if name.endswith(".sst")
                }
            )
        assert images[0] == images[1]


class TestRepairWithVlog:
    def test_repair_preserves_separated_values(self, fs):
        from repro.tools.repair import repair_store

        db = kv_db(fs)
        pairs = [big(i) for i in range(25)]
        for key, value in pairs:
            db.put(key, value)
        db.flush()
        db.close()
        fs.delete_file("CURRENT")
        report = repair_store(fs, tiny_options(**KV))
        assert report.vlog_files_recovered >= 1
        db = kv_db(fs)
        for key, value in pairs:
            assert db.get(key) == value
        db.close()


class TestCrashConsistencySmoke:
    def test_kv_crash_points_hold(self):
        """A thin slice of the kv-separation crash sweep (the full sweep is
        the crash harness's --kv-separation leg)."""
        from oracle.crashtest import (
            KV_SEPARATION_VALUE_SIZE,
            kv_separation_overrides,
            run_crash_test,
        )

        report = run_crash_test(
            num_ops=40,
            max_points=10,
            seed=0,
            options_overrides=kv_separation_overrides(),
            value_size=KV_SEPARATION_VALUE_SIZE,
        )
        assert report.passed, report.failures
