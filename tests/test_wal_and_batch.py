"""WAL record format, write-batch serialization, manifest edits."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import flip_byte

from repro.core.manifest import (
    decode_edit,
    encode_edit,
    CURRENT_FILE,
    manifest_file_name,
    read_pointer,
    replay_manifest,
    write_pointer,
    ManifestWriter,
)
from repro.core.version import FileMetadata, VersionEdit
from repro.core.write_batch import WriteBatch
from repro.errors import CorruptionError, InvalidArgumentError
from repro.keys import TYPE_DELETION, TYPE_VALUE, make_internal_key
from repro.memtable.wal import WalWriter, read_wal
from repro.storage.fs import SimulatedFS


class TestWal:
    def test_roundtrip_multiple_records(self, fs):
        w = WalWriter(fs, "000001.log")
        payloads = [b"first", b"", b"x" * 1000]
        for p in payloads:
            w.add_record(p)
        w.close()
        assert list(read_wal(fs, "000001.log")) == payloads

    def test_empty_log(self, fs):
        WalWriter(fs, "a.log").close()
        assert list(read_wal(fs, "a.log")) == []

    def test_torn_tail_stops_cleanly(self, fs):
        w = WalWriter(fs, "a.log")
        w.add_record(b"complete")
        w.add_record(b"will-be-torn")
        w.close()
        # chop bytes off the final record: simulated crash mid-append
        fs.replace("a.log", fs.contents("a.log")[:-4])
        assert list(read_wal(fs, "a.log")) == [b"complete"]

    def test_corruption_mid_stream_raises(self, fs):
        w = WalWriter(fs, "a.log")
        w.add_record(b"record-one!")
        w.add_record(b"record-two!")
        w.close()
        flip_byte(fs, "a.log", 6)  # flip payload byte of first record
        with pytest.raises(CorruptionError):
            list(read_wal(fs, "a.log"))

    @settings(max_examples=20)
    @given(st.lists(st.binary(max_size=200), max_size=10))
    def test_roundtrip_property(self, payloads):
        fs = SimulatedFS()
        w = WalWriter(fs, "p.log")
        for p in payloads:
            w.add_record(p)
        assert list(read_wal(fs, "p.log")) == payloads

    def test_group_of_one_is_byte_identical_to_a_single_record(self, fs):
        """The engine appends through ``add_records`` only; the manifest and
        these tests through ``add_record``.  Same frame, same bytes."""
        for payload in (b"", b"x", b"payload" * 300):
            single = WalWriter(fs, "single.log")
            single.add_record(payload)
            single.close()
            group = WalWriter(fs, "group.log")
            group.add_records([payload])
            group.close()
            assert fs.contents("group.log") == fs.contents("single.log")
            assert group.records_written == single.records_written == 1

    def test_group_replays_record_by_record_in_order(self, fs):
        w = WalWriter(fs, "a.log")
        w.add_records([b"a-record", b"b-record"])
        w.close()
        assert w.records_written == 2
        assert list(read_wal(fs, "a.log")) == [b"a-record", b"b-record"]

    def test_corruption_yields_the_good_records_first(self, fs):
        """The strict reader is lazy: records before the damage come out,
        then the raise."""
        w = WalWriter(fs, "a.log")
        w.add_records([b"record-one!", b"record-two!"])
        w.close()
        flip_byte(fs, "a.log", -1)  # last payload byte of the second record
        records = read_wal(fs, "a.log")
        assert next(records) == b"record-one!"
        with pytest.raises(CorruptionError):
            next(records)


class TestWriteBatch:
    def test_put_delete_roundtrip(self):
        batch = WriteBatch().put(b"k1", b"v1").delete(b"k2").put(b"k3", b"")
        clone, base = WriteBatch.deserialize(batch.serialize(77))
        assert base == 77
        assert list(clone) == [
            (TYPE_VALUE, b"k1", b"v1"),
            (TYPE_DELETION, b"k2", b""),
            (TYPE_VALUE, b"k3", b""),
        ]

    def test_byte_size(self):
        batch = WriteBatch().put(b"abc", b"12345").delete(b"xy")
        assert batch.byte_size() == 3 + 5 + 2

    def test_validation(self):
        batch = WriteBatch()
        with pytest.raises(InvalidArgumentError):
            batch.put("notbytes", b"v")
        with pytest.raises(InvalidArgumentError):
            batch.put(b"", b"v")
        with pytest.raises(InvalidArgumentError):
            batch.delete(b"")

    def test_clear(self):
        batch = WriteBatch().put(b"k", b"v")
        batch.clear()
        assert len(batch) == 0

    def test_corrupt_payload_rejected(self):
        blob = WriteBatch().put(b"k", b"v").serialize(1)
        with pytest.raises(CorruptionError):
            WriteBatch.deserialize(blob[:-1])
        with pytest.raises(CorruptionError):
            WriteBatch.deserialize(blob + b"extra")
        with pytest.raises(CorruptionError):
            WriteBatch.deserialize(b"short")

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.binary(min_size=1, max_size=20),
                st.binary(max_size=50),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, operations):
        batch = WriteBatch()
        for is_put, key, value in operations:
            if is_put:
                batch.put(key, value)
            else:
                batch.delete(key)
        clone, base = WriteBatch.deserialize(batch.serialize(5))
        assert list(clone) == list(batch)
        assert base == 5


def file_meta(number=7, level_hint=1):
    return FileMetadata(
        file_number=number,
        file_size=1234,
        valid_bytes=1000,
        num_entries=50,
        smallest=make_internal_key(b"aaa", 3, TYPE_VALUE),
        largest=make_internal_key(b"zzz", 9, TYPE_VALUE),
        allowed_seeks=77,
        append_count=2,
    )


class TestManifest:
    def test_edit_roundtrip_all_fields(self):
        edit = VersionEdit(
            log_number=5,
            next_file_number=42,
            last_sequence=1000,
            compact_pointers=[(1, b"ptr1"), (3, b"ptr3")],
            deleted_files=[(0, 2), (1, 3)],
            new_files=[(1, file_meta(7))],
            updated_files=[(2, file_meta(8))],
        )
        clone = decode_edit(encode_edit(edit))
        assert clone == edit

    def test_empty_edit(self):
        assert decode_edit(encode_edit(VersionEdit())) == VersionEdit()

    def test_unknown_tag_rejected(self):
        with pytest.raises(CorruptionError):
            decode_edit(b"\x63")

    def test_manifest_writer_and_replay(self, fs):
        writer = ManifestWriter(fs, 3)
        edits = [
            VersionEdit(next_file_number=10),
            VersionEdit(new_files=[(0, file_meta(4))]),
        ]
        for e in edits:
            writer.log_edit(e)
        writer.close()
        assert replay_manifest(fs, manifest_file_name(3)) == edits

    def test_current_pointer(self, fs):
        assert read_pointer(fs, CURRENT_FILE) is None
        write_pointer(fs, CURRENT_FILE, manifest_file_name(12))
        assert read_pointer(fs, CURRENT_FILE) == "MANIFEST-000012"
        write_pointer(fs, CURRENT_FILE, manifest_file_name(13))
        assert read_pointer(fs, CURRENT_FILE) == "MANIFEST-000013"
        assert not fs.exists("CURRENT.tmp")
