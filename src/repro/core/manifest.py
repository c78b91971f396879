"""Manifest: durable log of version edits.

The manifest is a WAL-format log (see :mod:`repro.memtable.wal`) whose
records are serialized :class:`~repro.core.version.VersionEdit` values.  On
open, the engine replays the manifest named by ``CURRENT`` (a pointer file:
:func:`write_pointer` / :func:`read_pointer`) to rebuild the version, then
replays the data WAL into a fresh memtable.
"""

from __future__ import annotations

from ..encoding import BufferWriter, decode_varint, get_length_prefixed
from ..errors import CorruptionError
from ..memtable.wal import WalWriter, read_wal
from ..storage.fs import FileSystem
from .version import FileMetadata, VersionEdit

_TAG_LOG_NUMBER = 1
_TAG_NEXT_FILE = 2
_TAG_LAST_SEQUENCE = 3
_TAG_COMPACT_POINTER = 4
_TAG_DELETED_FILE = 5
_TAG_NEW_FILE = 6
_TAG_UPDATED_FILE = 7
# Value-log garbage ledger (DESIGN.md §13): file registrations, dead-byte
# deltas observed by compactions, and GC deletions.
_TAG_VLOG_FILE = 8
_TAG_VLOG_DEAD = 9
_TAG_VLOG_DELETED = 10

CURRENT_FILE = "CURRENT"


def manifest_file_name(number: int) -> str:
    return f"MANIFEST-{number:06d}"


def _encode_file(out: BufferWriter, level: int, meta: FileMetadata) -> None:
    out.varint(level)
    out.varint(meta.file_number)
    out.varint(meta.file_size)
    out.varint(meta.valid_bytes)
    out.varint(meta.num_entries)
    out.length_prefixed(meta.smallest)
    out.length_prefixed(meta.largest)
    out.varint(meta.allowed_seeks)
    out.varint(meta.append_count)


def _decode_file(buf: bytes, offset: int) -> tuple[int, FileMetadata, int]:
    level, offset = decode_varint(buf, offset)
    number, offset = decode_varint(buf, offset)
    size, offset = decode_varint(buf, offset)
    valid, offset = decode_varint(buf, offset)
    entries, offset = decode_varint(buf, offset)
    smallest, offset = get_length_prefixed(buf, offset)
    largest, offset = get_length_prefixed(buf, offset)
    allowed_seeks, offset = decode_varint(buf, offset)
    append_count, offset = decode_varint(buf, offset)
    meta = FileMetadata(
        file_number=number,
        file_size=size,
        valid_bytes=valid,
        num_entries=entries,
        smallest=smallest,
        largest=largest,
        allowed_seeks=allowed_seeks,
        append_count=append_count,
    )
    return level, meta, offset


def encode_edit(edit: VersionEdit) -> bytes:
    """Serialize an edit as a tagged record."""
    out = BufferWriter()
    if edit.log_number is not None:
        out.varint(_TAG_LOG_NUMBER)
        out.varint(edit.log_number)
    if edit.next_file_number is not None:
        out.varint(_TAG_NEXT_FILE)
        out.varint(edit.next_file_number)
    if edit.last_sequence is not None:
        out.varint(_TAG_LAST_SEQUENCE)
        out.varint(edit.last_sequence)
    for level, key in edit.compact_pointers:
        out.varint(_TAG_COMPACT_POINTER)
        out.varint(level)
        out.length_prefixed(key)
    for level, number in edit.deleted_files:
        out.varint(_TAG_DELETED_FILE)
        out.varint(level)
        out.varint(number)
    for level, meta in edit.new_files:
        out.varint(_TAG_NEW_FILE)
        _encode_file(out, level, meta)
    for level, meta in edit.updated_files:
        out.varint(_TAG_UPDATED_FILE)
        _encode_file(out, level, meta)
    for number in edit.new_vlog_files:
        out.varint(_TAG_VLOG_FILE)
        out.varint(number)
    for number, dead_bytes in edit.vlog_dead:
        out.varint(_TAG_VLOG_DEAD)
        out.varint(number)
        out.varint(dead_bytes)
    for number in edit.deleted_vlog_files:
        out.varint(_TAG_VLOG_DELETED)
        out.varint(number)
    return out.getvalue()


def decode_edit(buf: bytes) -> VersionEdit:
    """Inverse of :func:`encode_edit`."""
    edit = VersionEdit()
    offset = 0
    while offset < len(buf):
        tag, offset = decode_varint(buf, offset)
        if tag == _TAG_LOG_NUMBER:
            edit.log_number, offset = decode_varint(buf, offset)
        elif tag == _TAG_NEXT_FILE:
            edit.next_file_number, offset = decode_varint(buf, offset)
        elif tag == _TAG_LAST_SEQUENCE:
            edit.last_sequence, offset = decode_varint(buf, offset)
        elif tag == _TAG_COMPACT_POINTER:
            level, offset = decode_varint(buf, offset)
            key, offset = get_length_prefixed(buf, offset)
            edit.compact_pointers.append((level, key))
        elif tag == _TAG_DELETED_FILE:
            level, offset = decode_varint(buf, offset)
            number, offset = decode_varint(buf, offset)
            edit.deleted_files.append((level, number))
        elif tag == _TAG_NEW_FILE:
            level, meta, offset = _decode_file(buf, offset)
            edit.new_files.append((level, meta))
        elif tag == _TAG_UPDATED_FILE:
            level, meta, offset = _decode_file(buf, offset)
            edit.updated_files.append((level, meta))
        elif tag == _TAG_VLOG_FILE:
            number, offset = decode_varint(buf, offset)
            edit.new_vlog_files.append(number)
        elif tag == _TAG_VLOG_DEAD:
            number, offset = decode_varint(buf, offset)
            dead_bytes, offset = decode_varint(buf, offset)
            edit.vlog_dead.append((number, dead_bytes))
        elif tag == _TAG_VLOG_DELETED:
            number, offset = decode_varint(buf, offset)
            edit.deleted_vlog_files.append(number)
        else:
            raise CorruptionError(f"unknown manifest tag {tag}")
    return edit


class ManifestWriter:
    """Appends edits to the live manifest file."""

    def __init__(self, fs: FileSystem, number: int):
        self.number = number
        self.name = manifest_file_name(number)
        self._wal = WalWriter(fs, self.name)
        self._fs = fs

    def log_edit(self, edit: VersionEdit) -> None:
        self._wal.add_record(encode_edit(edit))

    def close(self) -> None:
        self._wal.close()


def write_pointer(fs: FileSystem, name: str, target: str) -> None:
    """Atomically point the pointer file ``name`` (``CURRENT``, or the
    sharded catalog's ``ROUTER.CURRENT``) at ``target``: write a temp file,
    sync it, rename it over ``name``."""
    tmp = name + ".tmp"
    f = fs.create_file(tmp, category="manifest")
    f.append(target.encode() + b"\n", category="manifest")
    # Sync before the rename: renaming an un-synced file would leave a
    # pointer that a crash could empty (LevelDB's classic SetCurrentFile bug).
    f.sync()
    f.close()
    fs.rename(tmp, name)


def read_pointer(fs: FileSystem, name: str) -> str | None:
    """What the pointer file ``name`` names, or None when it does not exist
    (a fresh directory)."""
    if not fs.exists(name):
        return None
    handle = fs.open_random(name)
    try:
        data = handle.read(0, handle.size(), category="manifest", sequential=True)
    finally:
        handle.close()
    target = data.decode().strip()
    if not target:
        raise CorruptionError(f"{name} is empty")
    return target


def replay_manifest(fs: FileSystem, name: str) -> list[VersionEdit]:
    """All edits recorded in manifest ``name``, in order."""
    return [decode_edit(record) for record in read_wal(fs, name)]
