"""Concurrency tests: concurrent readers with a writer (the paper's
multi-threaded client setup).

The engine uses one coarse reentrant lock plus internally-locked caches; a
writer and many readers may share a DB.  These tests hammer that contract
and assert no exceptions, no torn reads, and model-consistent results.
"""

import random
import sys
import threading
import time

import pytest

from conftest import kv, make_db, tiny_options
from repro.core.db import DB
from repro.storage.fs import SimulatedFS


class TestConcurrentReaders:
    def test_parallel_gets_while_writing(self):
        db = make_db("selective")
        for i in range(300):
            db.put(*kv(i))

        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    i = rng.randrange(300)
                    value = db.get(kv(i)[0])
                    # key 0..299 are never deleted: value must always be a
                    # complete, well-formed version
                    assert value is not None
                    assert value == kv(i)[1] or value.startswith(b"gen-")
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        try:
            rng = random.Random(99)
            for step in range(600):
                i = rng.randrange(300)
                db.put(kv(i)[0], b"gen-%d" % step)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert errors == []
        db.close()

    def test_parallel_scans_while_writing(self):
        db = make_db("table")
        for i in range(200):
            db.put(*kv(i))

        errors: list[BaseException] = []
        stop = threading.Event()

        def scanner(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    start = rng.randrange(150)
                    rows = db.scan(kv(start)[0], kv(start + 30)[0])
                    keys = [k for k, _ in rows]
                    # snapshot isolation: sorted, unique, within bounds
                    assert keys == sorted(set(keys))
                    assert all(kv(start)[0] <= k < kv(start + 30)[0] for k in keys)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=scanner, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        try:
            for i in range(200, 500):
                db.put(*kv(i))
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert errors == []
        db.close()

    def test_concurrent_snapshot_readers(self):
        db = make_db("selective")
        for i in range(150):
            db.put(*kv(i))
        snap = db.snapshot()

        errors: list[BaseException] = []

        def frozen_reader() -> None:
            try:
                for i in range(150):
                    assert db.get(kv(i)[0], snapshot=snap) == kv(i)[1]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=frozen_reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(150):
            db.put(kv(i)[0], b"NEW")
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        snap.close()
        db.close()

    @pytest.mark.parametrize("pipeline", [False, True], ids=["sync", "pipeline"])
    def test_no_reader_misses_a_write_its_sequence_covers(self, pipeline):
        """Readers race ``MemTable.add``: ``MemTable.get`` answers a miss
        from the memtable's key set without looking at the skiplist, so a
        key must be in the set by the time any reader can hold a sequence
        that covers its write.  A writer inserts fresh keys; each reader
        looks up keys whose put had returned before the lookup began (its
        sequence covers them: they must be found, through a snapshot too),
        and the key being inserted right now (absent or whole, and absent
        under a snapshot older than its write)."""
        options = tiny_options(compaction_style="selective")
        db = DB(SimulatedFS(), options.concurrent_pipeline() if pipeline else options, seed=1)
        total = 1500
        keys = [b"fresh%06d" % i for i in range(total)]
        #: sequences[i] is set once put(keys[i]) has returned (one writer:
        #: the engine's last sequence is then that put's).
        sequences: list[int | None] = [None] * total
        published = [-1]
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    done = published[0]
                    if done < 0:
                        continue
                    recent = done - rng.randrange(min(done + 1, 6))
                    snapshot = db.snapshot()
                    try:
                        assert sequences[recent] <= snapshot.sequence
                        assert db.get(keys[recent], snapshot=snapshot) == b"v" + keys[recent]
                        assert db.get(keys[recent]) == b"v" + keys[recent]
                        upcoming = min(done + 1, total - 1)
                        assert db.get(keys[upcoming]) in (None, b"v" + keys[upcoming])
                        value = db.get(keys[upcoming], snapshot=snapshot)
                        written_at = sequences[upcoming]
                        if written_at is not None and written_at > snapshot.sequence:
                            assert value is None
                    finally:
                        db.release_snapshot(snapshot)
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for i, key in enumerate(keys):
                db.put(key, b"v" + key)
                sequences[i] = db.last_sequence
                published[0] = i
                if errors or time.monotonic() > deadline:
                    break
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert published[0] == total - 1
        db.close()
