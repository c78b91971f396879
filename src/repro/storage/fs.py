"""Filesystem abstraction with byte-exact I/O accounting.

Two implementations share one interface:

* :class:`SimulatedFS` — in memory; a file is the list of ``bytes`` objects
  appended to it plus their cumulative offsets.  The default for tests,
  benchmarks, and experiments: deterministic, fast, and still byte-exact,
  because file contents are the same serialized bytes a real disk would see.
  An append never copies or regrows the file, and a read that coincides
  with one append — every data block, index, filter and footer read — is
  that object handed back.
* :class:`LocalFS` — real files under a directory, for users who want a
  persistent store.

Both charge every operation to an :class:`~repro.storage.io_stats.IOStats`
and a :class:`~repro.storage.device_model.DeviceModel`, so write/space
amplification and simulated running time are measured identically regardless
of backend.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right

from ..errors import FileSystemError
from ..obs.trace import NULL_TRACER
from .device_model import DeviceModel
from .io_stats import IOStats


class WritableFile:
    """Append-only handle.  All engine writes are sequential appends."""

    def __init__(self, fs: "FileSystem", name: str, category: str):
        self._fs = fs
        self._name = name
        self._category = category
        self._closed = False

    @property
    def name(self) -> str:
        return self._name

    def append(self, data: bytes, category: str | None = None) -> None:
        """Append ``data``, charging bytes and sequential-write time."""
        if self._closed:
            raise FileSystemError(f"append to closed file {self._name!r}")
        fs = self._fs
        nbytes = len(data)
        fs._append(self._name, data)
        cat = category or self._category
        fs.stats.record_write(nbytes, cat)
        cost = fs.device.sequential_write_cost(nbytes)
        fs.charge_time(cost, cat)
        if fs.tracer.enabled:
            fs.tracer.complete(
                "fs.write", "fs", sim_dur=cost,
                args={"file": self._name, "bytes": nbytes, "category": cat},
            )

    def sync(self) -> None:
        """Durability barrier: all bytes appended so far survive a crash.

        The WAL, manifest, and table build/append paths call this at their
        declared durability points.  On the plain backends it is free of
        device time (the analytic model folds persistence into the write
        cost); :class:`~repro.storage.faults.FaultInjectionFS` gives it
        teeth — un-synced bytes are exactly what a simulated crash drops.
        """
        if self._closed:
            raise FileSystemError(f"sync of closed file {self._name!r}")
        self._fs.sync_file(self._name)

    def size(self) -> int:
        return self._fs.file_size(self._name)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "WritableFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RandomAccessFile:
    """Positional-read handle."""

    def __init__(self, fs: "FileSystem", name: str):
        self._fs = fs
        self._name = name
        self._closed = False

    @property
    def name(self) -> str:
        return self._name

    def read(self, offset: int, nbytes: int, *, category: str, sequential: bool = False) -> bytes:
        """Read ``nbytes`` at ``offset``.

        ``sequential`` selects the cost model: block-by-block table scans are
        sequential; point lookups and dirty-block fetches are random.
        """
        if self._closed:
            raise FileSystemError(f"read from closed file {self._name!r}")
        data = self._fs._read(self._name, offset, nbytes)
        self._fs.stats.record_read(len(data), category, random=not sequential)
        if sequential:
            cost = self._fs.device.sequential_read_cost(len(data))
        else:
            cost = self._fs.device.random_read_cost(len(data))
        self._fs.charge_time(cost, category)
        tracer = self._fs.tracer
        if tracer.enabled:
            tracer.complete(
                "fs.read", "fs", sim_dur=cost,
                args={"file": self._name, "bytes": len(data), "category": category},
            )
        return data

    def read_many(
        self, spans: list[tuple[int, int]], *, category: str, concurrency: int = 1
    ) -> list[bytes]:
        """Read several ``(offset, nbytes)`` spans, charged as concurrent
        random reads (Algorithm 3 reads dirty blocks with multiple threads).
        """
        if self._closed:
            raise FileSystemError(f"read from closed file {self._name!r}")
        chunks = [self._fs._read(self._name, off, n) for off, n in spans]
        sizes = [len(c) for c in chunks]
        for n in sizes:
            self._fs.stats.record_read(n, category, random=True)
        cost = self._fs.device.parallel_random_read_cost(sizes, concurrency)
        self._fs.charge_time(cost, category)
        tracer = self._fs.tracer
        if tracer.enabled:
            tracer.complete(
                "fs.read", "fs", sim_dur=cost,
                args={
                    "file": self._name,
                    "bytes": sum(sizes),
                    "spans": len(spans),
                    "category": category,
                },
            )
        return chunks

    def size(self) -> int:
        return self._fs.file_size(self._name)

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "RandomAccessFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileSystem(ABC):
    """Common interface; see module docstring."""

    def __init__(
        self,
        device: DeviceModel | None = None,
        stats: IOStats | None = None,
        *,
        realtime: float = 0.0,
    ):
        self.device = device or DeviceModel()
        self.device.validate()
        self.stats = stats or IOStats()
        self._lock = threading.RLock()
        #: When > 0, every charged device-time second also *sleeps*
        #: ``realtime`` wall-clock seconds.  This turns the analytic device
        #: model into an emulated device: I/O takes real time and releases
        #: the GIL, so background flush/compaction genuinely overlaps
        #: foreground work — the setting the concurrency benchmark uses.
        #: Zero (the default) keeps the simulation instantaneous.
        self.realtime = realtime
        if realtime < 0:
            raise ValueError("realtime factor must be >= 0")
        #: Observability hook: the DB installs its tracer here when
        #: ``Options.tracing`` is on; every fs read/write then records one
        #: pre-timed ``fs.read``/``fs.write`` event.  The null default makes
        #: the un-traced cost one attribute load and a branch per I/O.
        self.tracer = NULL_TRACER

    @property
    def blocking(self) -> bool:
        """True when I/O takes wall-clock time: every ``wait=False`` engine
        call raises ``WouldBlock`` rather than risk touching the device."""
        return self.realtime > 0.0

    def charge_time(self, seconds: float, category: str) -> None:
        """Charge ``seconds`` of device time, sleeping it in realtime mode."""
        self.stats.charge_time(seconds, category)
        if self.realtime > 0.0 and seconds > 0.0:
            time.sleep(seconds * self.realtime)

    # -- lifecycle ---------------------------------------------------------

    def create_file(self, name: str, category: str = "flush") -> WritableFile:
        """Create (or truncate) ``name`` and return an append handle."""
        with self._lock:
            self._create(name)
            self.stats.files_created += 1
        return WritableFile(self, name, category)

    def open_append(self, name: str, category: str = "compaction") -> WritableFile:
        """Reopen an existing file for appending (Block Compaction's tail writes)."""
        if not self.exists(name):
            raise FileSystemError(f"cannot append to missing file {name!r}")
        return WritableFile(self, name, category)

    def open_random(self, name: str, category: str = "meta") -> RandomAccessFile:
        """Open ``name`` for positional reads, charging the open cost."""
        if not self.exists(name):
            raise FileSystemError(f"cannot open missing file {name!r}")
        self.charge_time(self.device.file_open_cost, category)
        return RandomAccessFile(self, name)

    def sync_file(self, name: str) -> None:
        """Make every byte of ``name`` durable (see ``WritableFile.sync``)."""
        with self._lock:
            if not self.exists(name):
                raise FileSystemError(f"sync of missing file {name!r}")
            self.stats.syncs += 1
            self._sync(name)

    def truncate_file(self, name: str, size: int) -> None:
        """Drop bytes past ``size`` — crash recovery's tool for discarding a
        torn tail (an in-place append whose commit never landed).  Charges
        nothing: it only runs on the recovery path, never in steady state."""
        with self._lock:
            if size < 0 or size > self.file_size(name):
                raise FileSystemError(
                    f"truncate of {name!r} to {size} outside [0, {self.file_size(name)}]"
                )
            self._truncate(name, size)

    def delete_file(self, name: str) -> None:
        with self._lock:
            self._delete(name)
            self.stats.files_deleted += 1
            self.charge_time(self.device.file_delete_cost, "meta")

    def scan_directory(self) -> list[str]:
        """List all files, charging the directory-scan cost Lazy Deletion
        exists to amortize (Section IV-C)."""
        with self._lock:
            names = self.list_dir()
            self.stats.dir_scans += 1
            self.stats.dir_scan_entries += len(names)
            self.charge_time(self.device.directory_scan_cost(len(names)), "meta")
            return names

    # -- abstract backend ops ------------------------------------------------

    @abstractmethod
    def _create(self, name: str) -> None: ...

    @abstractmethod
    def _append(self, name: str, data: bytes) -> None: ...

    @abstractmethod
    def _read(self, name: str, offset: int, nbytes: int) -> bytes: ...

    @abstractmethod
    def _delete(self, name: str) -> None: ...

    @abstractmethod
    def exists(self, name: str) -> bool: ...

    @abstractmethod
    def list_dir(self) -> list[str]: ...

    @abstractmethod
    def file_size(self, name: str) -> int: ...

    @abstractmethod
    def rename(self, old: str, new: str) -> None: ...

    def _sync(self, name: str) -> None:
        """Backend durability hook; a no-op for the plain backends (their
        bytes are 'durable' the moment they land)."""

    def _truncate(self, name: str, size: int) -> None:
        raise FileSystemError(f"{type(self).__name__} does not support truncate")

    # -- derived ----------------------------------------------------------

    def total_file_bytes(self) -> int:
        """Sum of all current file sizes (space-amplification numerator)."""
        with self._lock:
            return sum(self.file_size(n) for n in self.list_dir())

    def digest(self) -> str:
        """SHA-256 over every (name, content) pair — a bit-exact fingerprint
        of the store used by the no-fault equivalence tests.  Bypasses the
        accounting (``_read``), so digesting perturbs no metrics."""
        import hashlib

        h = hashlib.sha256()
        with self._lock:
            for name in self.list_dir():
                size = self.file_size(name)
                h.update(name.encode())
                h.update(size.to_bytes(8, "little"))
                if size:
                    h.update(self._read(name, 0, size))
        return h.hexdigest()


class SimulatedFS(FileSystem):
    """In-memory filesystem.  Thread-safe.

    A file is ``(chunks, ends)``: the ``bytes`` objects appended to it, in
    order, and their cumulative end offsets after a leading 0 —
    ``chunks[i]`` holds file bytes ``[ends[i], ends[i + 1])`` and
    ``ends[-1]`` is the size.  Empty appends are not stored, so ``ends`` is
    strictly increasing and a bisect finds the chunk holding any byte.
    Appends are O(1) and a read costs only the span it returns, however
    large the file has grown — Block Compaction appends to one file for
    its whole life.
    """

    def __init__(
        self,
        device: DeviceModel | None = None,
        stats: IOStats | None = None,
        *,
        realtime: float = 0.0,
    ):
        super().__init__(device, stats, realtime=realtime)
        self._files: dict[str, tuple[list[bytes], list[int]]] = {}

    def _create(self, name: str) -> None:
        self._files[name] = ([], [0])

    def _append(self, name: str, data: bytes) -> None:
        with self._lock:
            try:
                chunks, ends = self._files[name]
            except KeyError:
                raise FileSystemError(f"append to missing file {name!r}") from None
            if data:
                # An immutable ``bytes`` is kept as is; anything else (the
                # caller may reuse a bytearray) is copied once.
                chunks.append(data if type(data) is bytes else bytes(data))
                ends.append(ends[-1] + len(data))

    def _read(self, name: str, offset: int, nbytes: int) -> bytes:
        """The chunk itself when the span is exactly one append, a slice of
        one chunk when it falls inside one, else a join of just the chunks
        it touches."""
        with self._lock:
            try:
                chunks, ends = self._files[name]
            except KeyError:
                raise FileSystemError(f"read from missing file {name!r}") from None
            end = offset + nbytes
            if offset < 0 or end > ends[-1]:
                raise FileSystemError(
                    f"read [{offset}, {end}) out of bounds for "
                    f"{name!r} of size {ends[-1]}"
                )
            if nbytes <= 0:
                return b""
            first = bisect_right(ends, offset) - 1
            chunk = chunks[first]
            start = ends[first]
            chunk_end = ends[first + 1]
            if end <= chunk_end:
                if offset == start and end == chunk_end:
                    return chunk
                return chunk[offset - start : end - start]
            last = bisect_left(ends, end, first + 1) - 1  # holds byte end - 1
            parts = chunks[first : last + 1]
            parts[0] = chunk[offset - start :]
            parts[-1] = parts[-1][: end - ends[last]]
            return b"".join(parts)

    def _delete(self, name: str) -> None:
        try:
            del self._files[name]
        except KeyError:
            raise FileSystemError(f"delete of missing file {name!r}") from None

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def list_dir(self) -> list[str]:
        with self._lock:
            return sorted(self._files)

    def file_size(self, name: str) -> int:
        with self._lock:
            try:
                return self._files[name][1][-1]
            except KeyError:
                raise FileSystemError(f"size of missing file {name!r}") from None

    def rename(self, old: str, new: str) -> None:
        with self._lock:
            try:
                self._files[new] = self._files.pop(old)
            except KeyError:
                raise FileSystemError(f"rename of missing file {old!r}") from None

    def _truncate(self, name: str, size: int) -> None:
        try:
            chunks, ends = self._files[name]
        except KeyError:
            raise FileSystemError(f"truncate of missing file {name!r}") from None
        if size >= ends[-1]:
            return
        keep = bisect_right(ends, size) - 1  # chunks[:keep] survive whole
        if size > ends[keep]:
            chunks[keep] = chunks[keep][: size - ends[keep]]
            keep += 1
            ends[keep] = size
        del chunks[keep:]
        del ends[keep + 1 :]

    # -- whole-file access for tests and tools (no accounting, as digest()) --

    def contents(self, name: str) -> bytes:
        """Every byte of ``name``."""
        return self._read(name, 0, self.file_size(name))

    def replace(self, name: str, data: bytes) -> None:
        """Make ``data`` the whole content of ``name`` (created if missing):
        how a test plants a torn tail or a flipped bit."""
        with self._lock:
            self._create(name)
            self._append(name, data)


class LocalFS(FileSystem):
    """Real files under ``root``.  Same accounting as :class:`SimulatedFS`."""

    blocking = True  # real disk I/O waits whatever ``realtime`` says

    def __init__(
        self,
        root: str,
        device: DeviceModel | None = None,
        stats: IOStats | None = None,
        *,
        realtime: float = 0.0,
    ):
        super().__init__(device, stats, realtime=realtime)
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        path = os.path.join(self.root, name)
        if os.path.commonpath([os.path.abspath(path), os.path.abspath(self.root)]) != os.path.abspath(
            self.root
        ):
            raise FileSystemError(f"file name {name!r} escapes the store root")
        return path

    def _create(self, name: str) -> None:
        with open(self._path(name), "wb"):
            pass

    def _append(self, name: str, data: bytes) -> None:
        path = self._path(name)
        if not os.path.exists(path):
            raise FileSystemError(f"append to missing file {name!r}")
        with open(path, "ab") as f:
            f.write(data)

    def _read(self, name: str, offset: int, nbytes: int) -> bytes:
        path = self._path(name)
        try:
            with open(path, "rb") as f:
                f.seek(offset)
                data = f.read(nbytes)
        except FileNotFoundError:
            raise FileSystemError(f"read from missing file {name!r}") from None
        if len(data) != nbytes:
            raise FileSystemError(
                f"read [{offset}, {offset + nbytes}) out of bounds for {name!r}"
            )
        return data

    def _delete(self, name: str) -> None:
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            raise FileSystemError(f"delete of missing file {name!r}") from None

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def list_dir(self) -> list[str]:
        return sorted(os.listdir(self.root))

    def file_size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except FileNotFoundError:
            raise FileSystemError(f"size of missing file {name!r}") from None

    def rename(self, old: str, new: str) -> None:
        try:
            os.replace(self._path(old), self._path(new))
        except FileNotFoundError:
            raise FileSystemError(f"rename of missing file {old!r}") from None

    def _sync(self, name: str) -> None:
        # Appends reopen+close the file per op (data already flushed), so
        # only the durability fence itself remains.
        fd = os.open(self._path(name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _truncate(self, name: str, size: int) -> None:
        try:
            os.truncate(self._path(name), size)
        except FileNotFoundError:
            raise FileSystemError(f"truncate of missing file {name!r}") from None
