"""Storage layer: filesystems, I/O accounting, device cost model."""

import dataclasses

import pytest

from repro.errors import FileSystemError
from repro.storage.device_model import DeviceModel
from repro.storage.fs import LocalFS, SimulatedFS
from repro.storage.io_stats import CAT_FLUSH, CAT_GET, IOStats


@pytest.fixture(params=["sim", "local"])
def anyfs(request, tmp_path):
    """Both backends must behave identically."""
    if request.param == "sim":
        return SimulatedFS()
    return LocalFS(str(tmp_path / "store"))


class TestFileSystemContract:
    def test_create_append_read(self, anyfs):
        f = anyfs.create_file("a.sst")
        f.append(b"hello")
        f.append(b" world")
        f.close()
        assert anyfs.file_size("a.sst") == 11
        h = anyfs.open_random("a.sst")
        assert h.read(0, 5, category=CAT_GET) == b"hello"
        assert h.read(6, 5, category=CAT_GET) == b"world"
        h.close()

    def test_read_out_of_bounds(self, anyfs):
        f = anyfs.create_file("a.sst")
        f.append(b"12345")
        f.close()
        h = anyfs.open_random("a.sst")
        with pytest.raises(FileSystemError):
            h.read(3, 10, category=CAT_GET)
        h.close()

    def test_open_append_continues(self, anyfs):
        anyfs.create_file("a.sst").append(b"xx")
        f = anyfs.open_append("a.sst")
        f.append(b"yy")
        f.close()
        assert anyfs.file_size("a.sst") == 4

    def test_missing_file_operations(self, anyfs):
        with pytest.raises(FileSystemError):
            anyfs.open_random("nope")
        with pytest.raises(FileSystemError):
            anyfs.open_append("nope")
        with pytest.raises(FileSystemError):
            anyfs.delete_file("nope")
        with pytest.raises(FileSystemError):
            anyfs.file_size("nope")
        assert not anyfs.exists("nope")

    def test_delete(self, anyfs):
        anyfs.create_file("a.sst").close()
        assert anyfs.exists("a.sst")
        anyfs.delete_file("a.sst")
        assert not anyfs.exists("a.sst")
        assert anyfs.stats.files_deleted == 1

    def test_rename(self, anyfs):
        f = anyfs.create_file("old")
        f.append(b"data")
        f.close()
        anyfs.rename("old", "new")
        assert not anyfs.exists("old")
        assert anyfs.file_size("new") == 4

    def test_list_dir_sorted(self, anyfs):
        for name in ("b", "a", "c"):
            anyfs.create_file(name).close()
        assert anyfs.list_dir() == ["a", "b", "c"]

    def test_closed_handles_reject_io(self, anyfs):
        f = anyfs.create_file("a")
        f.close()
        with pytest.raises(FileSystemError):
            f.append(b"x")

    def test_read_many(self, anyfs):
        f = anyfs.create_file("a")
        f.append(b"0123456789")
        f.close()
        h = anyfs.open_random("a")
        chunks = h.read_many([(0, 2), (4, 3)], category=CAT_GET, concurrency=4)
        assert chunks == [b"01", b"456"]
        h.close()

    def test_total_file_bytes(self, anyfs):
        anyfs.create_file("a").append(b"123")
        anyfs.create_file("b").append(b"12345")
        assert anyfs.total_file_bytes() == 8


class TestLocalFSIsolation:
    def test_path_escape_rejected(self, tmp_path):
        fs = LocalFS(str(tmp_path / "store"))
        with pytest.raises(FileSystemError):
            fs.create_file("../escape")


class TestIOAccounting:
    def test_write_accounting(self):
        fs = SimulatedFS()
        f = fs.create_file("a", category=CAT_FLUSH)
        f.append(b"x" * 100)
        assert fs.stats.bytes_written == 100
        assert fs.stats.write_ops == 1
        assert fs.stats.per_category[CAT_FLUSH].bytes_written == 100
        assert fs.stats.files_created == 1

    def test_read_accounting_random_vs_sequential(self):
        fs = SimulatedFS()
        fs.create_file("a").append(b"x" * 100)
        h = fs.open_random("a")
        h.read(0, 10, category=CAT_GET)
        h.read(10, 10, category=CAT_GET, sequential=True)
        assert fs.stats.random_reads == 1
        assert fs.stats.sequential_reads == 1
        assert fs.stats.bytes_read == 20

    def test_directory_scan_accounting(self):
        fs = SimulatedFS()
        for i in range(5):
            fs.create_file(f"f{i}").close()
        before = fs.stats.sim_time_s
        names = fs.scan_directory()
        assert len(names) == 5
        assert fs.stats.dir_scans == 1
        assert fs.stats.dir_scan_entries == 5
        assert fs.stats.sim_time_s > before

    def test_snapshot_and_delta(self):
        fs = SimulatedFS()
        fs.create_file("a", category=CAT_FLUSH).append(b"x" * 50)
        snap = fs.stats.snapshot()
        fs.create_file("b", category=CAT_FLUSH).append(b"x" * 30)
        delta = fs.stats.delta_since(snap)
        assert delta.bytes_written == 30
        assert delta.files_created == 1
        assert delta.per_category[CAT_FLUSH].bytes_written == 30
        # snapshot is unaffected by later activity
        assert snap.bytes_written == 50

    def test_snapshot_and_delta_cover_every_counter(self):
        """Walks the dataclass so a counter added to ``IOStats`` cannot be
        left out of the two copy lists (``syncs`` once was)."""
        scalars = [
            f.name
            for f in dataclasses.fields(IOStats)
            if f.name not in ("per_category", "time_per_category")
        ]
        base = IOStats(**{name: 10 + i for i, name in enumerate(scalars)})
        later = IOStats(**{name: 2 * (10 + i) + 1 for i, name in enumerate(scalars)})
        snap = base.snapshot()
        delta = later.delta_since(snap)
        for i, name in enumerate(scalars):
            assert getattr(snap, name) == 10 + i, name
            assert getattr(delta, name) == 10 + i + 1, name

    def test_rebate_clamps_at_zero(self):
        stats = IOStats()
        stats.charge_time(1.0)
        stats.rebate_time(0.4)
        assert stats.sim_time_s == pytest.approx(0.6)
        stats.rebate_time(10.0)
        assert stats.sim_time_s == 0.0
        with pytest.raises(ValueError):
            stats.rebate_time(-1)
        with pytest.raises(ValueError):
            stats.charge_time(-1)


class TestDeviceModel:
    def test_bandwidth_costs(self):
        dev = DeviceModel(seq_read_bandwidth=100.0, seq_write_bandwidth=50.0)
        assert dev.sequential_read_cost(200) == pytest.approx(2.0)
        assert dev.sequential_write_cost(200) == pytest.approx(4.0)

    def test_random_read_includes_latency(self):
        dev = DeviceModel()
        assert dev.random_read_cost(4096) > dev.sequential_read_cost(4096)

    def test_parallel_reads_overlap_latency(self):
        dev = DeviceModel(internal_parallelism=8)
        sizes = [4096] * 8
        serial = sum(dev.random_read_cost(s) for s in sizes)
        parallel = dev.parallel_random_read_cost(sizes, concurrency=8)
        assert parallel < serial
        # one wave of latency + shared transfer
        expected = dev.random_read_latency + sum(sizes) / dev.seq_read_bandwidth
        assert parallel == pytest.approx(expected)

    def test_parallel_capped_by_internal_parallelism(self):
        dev = DeviceModel(internal_parallelism=2)
        sizes = [4096] * 8
        c2 = dev.parallel_random_read_cost(sizes, concurrency=2)
        c100 = dev.parallel_random_read_cost(sizes, concurrency=100)
        assert c100 == pytest.approx(c2)

    def test_parallel_empty(self):
        assert DeviceModel().parallel_random_read_cost([], 8) == 0.0

    def test_validate(self):
        with pytest.raises(ValueError):
            DeviceModel(seq_read_bandwidth=0).validate()
        with pytest.raises(ValueError):
            DeviceModel(internal_parallelism=0).validate()

    def test_paper_ssd_defaults(self):
        dev = DeviceModel()
        assert dev.seq_read_bandwidth == pytest.approx(560e6)
        assert dev.seq_write_bandwidth == pytest.approx(510e6)
