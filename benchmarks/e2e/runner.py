"""Drive one workload against the system and check what comes back.

Two targets share one interface: :class:`EngineTarget` is a single
closed-loop client calling ``repro.DB`` in synchronous mode;
:class:`ServeTarget` is two closed-loop ``ServeClient`` connections to an
in-process ``ShardServer`` over a two-shard ``ShardedDB``.  Both use only
public APIs.  :func:`run_rounds` runs the rounds, and the :class:`Oracle`
checks every result after the round's clock has stopped.

Wall-clock time on a shared sandbox is not steady: the host goes through
phases, several seconds long, in which everything runs up to twice as
slowly (README, "Estimators").  :class:`HostClock` runs a fixed reference
kernel before and after every timed span and scales the span's time by
how fast the kernel ran, so a metric reads what it would at the host's
reference speed.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import random
import statistics
import time
from dataclasses import dataclass, field

from repro import DB, SimulatedFS
from repro.errors import ReproError
from repro.experiments.config import DEFAULT_SCALE, options_for
from repro.serve import ServeClient, ServeError, ShardServer
from repro.sharding import MemoryShardStore, ShardedDB

from workloads import GET, KIND_NAMES, MGET, PUT, SCAN, Inputs

_clock = time.perf_counter_ns
#: Keys read back after close + reopen.
READBACK_KEYS = 2000


class Failed:
    """Result of an op that raised or was refused."""

    def __init__(self, exc: Exception):
        self.exc = exc


# --------------------------------------------------------------------- oracle


class Oracle:
    """Shadow of the latest value per ordinal; counts contradictions."""

    def __init__(self, keys: list[bytes]):
        self.keys = keys
        self.values: list[bytes | None] = [None] * len(keys)
        #: Live keys are the ordinals ``[0, count)`` whenever a scan runs.
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def loaded(self, pairs: list[tuple[int, bytes]]) -> None:
        for ordinal, value in pairs:
            self.values[ordinal] = value
        self.count += len(pairs)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def check(self, rounds_ops: list[list[tuple]], rounds_results: list[list]) -> None:
        """Replay one round (one op list per connection) against the shadow.

        A connection owns the ordinals of its parity (see ``_serve_mixed``),
        so its own keys are checked exactly; a scan's foreign-parity entries
        may hold the value from the round's start or any value the other
        connection put during the round.
        """
        connections = len(rounds_ops)
        start = list(self.values) if connections > 1 else self.values
        foreign_puts: dict[int, list[bytes]] = {}
        if connections > 1:
            for ops in rounds_ops:
                for kind, ordinal, arg in ops:
                    if kind == PUT:
                        foreign_puts.setdefault(ordinal, []).append(arg)
        values, keys = self.values, self.keys
        for conn, (ops, results) in enumerate(zip(rounds_ops, rounds_results)):
            for (kind, ordinal, arg), result in zip(ops, results):
                self.attempted += 1
                if isinstance(result, Failed):
                    self._fail(f"{KIND_NAMES[kind]} raised {result.exc!r}")
                elif kind == PUT:
                    if values[ordinal] is None:
                        self.count += 1
                    values[ordinal] = arg
                elif kind == GET:
                    if result != values[ordinal]:
                        self._fail(f"get({ordinal}) returned a stale or wrong value")
                elif kind == MGET:
                    if result != [values[o] for o in ordinal]:
                        self._fail(f"multi_get{ordinal} returned a wrong value")
                else:
                    end = min(ordinal + arg, self.count)
                    ok = len(result) == end - ordinal
                    for o, (key, value) in zip(range(ordinal, end), result):
                        if key != keys[o]:
                            ok = False
                        elif connections == 1 or o % connections == conn:
                            ok = ok and value == values[o]
                        else:
                            ok = ok and (
                                value == start[o] or value in foreign_puts.get(o, ())
                            )
                    if not ok:
                        self._fail(f"scan({ordinal}, limit={arg}) returned wrong entries")

    def check_readback(self, ordinals: list[int], got: list[bytes | None]) -> None:
        for ordinal, value in zip(ordinals, got):
            self.attempted += 1
            if value != self.values[ordinal]:
                self._fail(f"key {ordinal} lost or stale after reopen")


# ----------------------------------------------------------------- host clock


_KERNEL_KEYS = [b"user%020dkkkkkkkk" % i for i in range(4096)]
_KERNEL_INDEX = {key: i for i, key in enumerate(_KERNEL_KEYS)}
_KERNEL_BLOB = bytes(range(256)) * 16


def _pair(a, b):
    return (a, b)


def reference_kernel() -> int:
    """A fixed few milliseconds of the kind of work the engine does —
    bisecting byte keys, dict lookups, calls, small allocations, slices —
    timed.  It touches nothing of the engine, so an engine change cannot
    move it."""
    keys, index, blob = _KERNEL_KEYS, _KERNEL_INDEX, _KERNEL_BLOB
    total = 0
    started = _clock()
    for i in range(3000):
        key = keys[(i * 2654435761) & 4095]
        at = bisect.bisect_left(keys, key)
        pair = _pair(at, index[key])
        window = [k for k in keys[at:at + 4] if k >= key]
        total += len(window) + len(blob[at:at + 64]) + pair[0]
    return _clock() - started


class HostClock:
    """Times spans and scales them to the host's reference speed.

    ``REFERENCE_NS`` is what the kernel takes on this repo's 2-vCPU sandbox
    in its fast phase; a span bracketed by kernels that took twice that is
    scaled by a half.  The constant only fixes the unit: every run of the
    benchmark, on either side of a comparison, uses the same one.
    """

    REFERENCE_NS = 2_500_000
    #: A kernel sample older than this is taken again.
    _FRESH_NS = 50_000_000

    def __init__(self):
        #: (kernel ns, when) of the newest kernel sample.
        self._last: tuple[int, int] | None = None

    def _kernel(self) -> int:
        # The faster of two: a preemption in the middle of one is not host speed.
        took = min(reference_kernel(), reference_kernel())
        self._last = (took, _clock())
        return took

    def span(self, settle=None) -> "_Span":
        """Context manager timing its body; ``settle`` (background work
        going idle) runs after the body and before the closing kernel."""
        return _Span(self, settle)


class _Span:
    def __init__(self, host: HostClock, settle):
        self._host, self._settle = host, settle
        self.wall_ns = 0
        self.scale = 1.0

    def __enter__(self) -> "_Span":
        host = self._host
        last = host._last
        if last is not None and _clock() - last[1] < host._FRESH_NS:
            self._before = last[0]
        else:
            self._before = host._kernel()
        self._started = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_ns = _clock() - self._started
        if self._settle is not None:
            self._settle()
        host = self._host
        after = host._kernel()
        self.scale = host.REFERENCE_NS / ((self._before + after) / 2)

    @property
    def seconds(self) -> float:
        return self.wall_ns * self.scale * 1e-9


# -------------------------------------------------------------------- samples


@dataclass
class Round:
    """Raw timings of one round."""

    #: Per-call latencies in ns, by op kind.
    lat: dict[int, list[int]] = field(
        default_factory=lambda: {kind: [] for kind in (GET, PUT, SCAN, MGET)}
    )
    #: Simulated device seconds each put advanced the clock by.
    put_sim_s: list[float] = field(default_factory=list)
    wall_ns: int = 0
    ops: int = 0
    #: Host-speed factor of this round (:class:`HostClock`).
    scale: float = 1.0


class Samples:
    """The rounds of one phase, and the estimators over them.  Every time
    is scaled by its round's host-speed factor."""

    def __init__(self):
        self.rounds: list[Round] = []

    def count(self, kind: int) -> int:
        return sum(len(r.lat[kind]) for r in self.rounds)

    @property
    def put_sim_s(self) -> list[float]:
        return [s for r in self.rounds for s in r.put_sim_s]

    def ops_per_s(self) -> float:
        return sum(r.ops for r in self.rounds) / (
            sum(r.wall_ns * r.scale for r in self.rounds) * 1e-9
        )

    def op_ns(self, rounds: int) -> float:
        """Sum of per-call time over the first ``rounds`` rounds."""
        return sum(
            sum(lat) * r.scale for r in self.rounds[:rounds] for lat in r.lat.values()
        )

    def mean_scale(self) -> float:
        return sum(r.wall_ns * r.scale for r in self.rounds) / sum(
            r.wall_ns for r in self.rounds
        )

    def p50_us(self, kind: int) -> float:
        """Median of all samples of ``kind``, pooled over the rounds."""
        return statistics.median(
            ns * r.scale for r in self.rounds for ns in r.lat[kind]
        ) / 1e3

    def p99_us(self, kind: int, group_min: int = 1000) -> float:
        """The p99 of a calm stretch: consecutive rounds are merged into
        groups of at least ``group_min`` samples (so each p99 has ten beyond
        it), and the lower quartile of the groups' p99s is reported — the
        host's jitter comes in bursts, and the bursts are not the engine's."""
        groups: list[list[float]] = []
        current: list[float] = []
        for r in self.rounds:
            current.extend(ns * r.scale for ns in r.lat[kind])
            if len(current) >= group_min:
                groups.append(current)
                current = []
        if not groups:
            groups.append(current)
        else:
            groups[-1].extend(current)
        tails = []
        for group in groups:
            group.sort()
            tails.append(group[max(0, -(-99 * len(group) // 100) - 1)])
        tails.sort()
        return tails[(len(tails) - 1) // 4] / 1e3


# -------------------------------------------------------------------- targets


def engine_options(inputs: Inputs):
    """The paper's system at the repo's experiment scale (see README)."""
    overrides = {} if inputs.seek_compaction else {"enable_seek_compaction": False}
    return options_for("BlockDB", DEFAULT_SCALE, inputs.cache_bytes, **overrides)


class EngineTarget:
    """One closed-loop client on ``repro.DB``, synchronous mode."""

    def __init__(self, inputs: Inputs):
        self.keys = inputs.keys
        self.options = engine_options(inputs)
        self.fs = SimulatedFS()
        self.db = DB(self.fs, self.options)

    def load(self, pairs: list[tuple[int, bytes]]) -> None:
        put, keys = self.db.put, self.keys
        for ordinal, value in pairs:
            put(keys[ordinal], value)

    def run(self, conn_ops: list[list[tuple]], into: Round) -> list[list]:
        """Run one round; returns the results, one list per connection."""
        db, keys, io = self.db, self.keys, self.fs.stats
        get_lat, put_lat, scan_lat = into.lat[GET], into.lat[PUT], into.lat[SCAN]
        put_sim = into.put_sim_s
        results = []
        started = _clock()
        for kind, ordinal, arg in conn_ops[0]:
            key = keys[ordinal]
            try:
                if kind == GET:
                    t0 = _clock()
                    result = db.get(key)
                    t1 = _clock()
                    get_lat.append(t1 - t0)
                elif kind == PUT:
                    sim0 = io.sim_time_s
                    t0 = _clock()
                    result = db.put(key, arg)
                    t1 = _clock()
                    put_lat.append(t1 - t0)
                    put_sim.append(io.sim_time_s - sim0)
                else:
                    t0 = _clock()
                    result = db.scan(key, None, arg)
                    t1 = _clock()
                    scan_lat.append(t1 - t0)
            except ReproError as exc:
                result = Failed(exc)
            results.append(result)
        into.wall_ns = _clock() - started
        into.ops = len(results)
        return [results]

    def settle(self) -> None:
        """Synchronous mode: nothing runs once a call has returned."""

    def engines(self) -> list[DB]:
        return [self.db]

    def io_stats(self):
        return self.fs.stats

    def serving(self) -> dict:
        return {}

    def close(self) -> None:
        self.db.close()

    def reopen_and_read(self, ordinals: list[int]) -> list[bytes | None]:
        self.db = DB(self.fs, self.options)
        try:
            return [self.db.get(self.keys[o]) for o in ordinals]
        finally:
            self.db.close()

    def digest(self) -> str:
        return self.fs.digest()


class ServeTarget:
    """Two closed-loop connections -> ShardServer -> ShardedDB(2 shards):
    the configuration ``python -m repro.serve`` runs, scaled down."""

    def __init__(self, inputs: Inputs):
        self.keys = inputs.keys
        self.options = engine_options(inputs).concurrent_pipeline()
        self.store = MemoryShardStore()
        self.loop = asyncio.new_event_loop()
        self.clients: list[ServeClient] = []
        self.server: ShardServer | None = None
        self.db = ShardedDB(
            self.store, self.options, shards=2,
            boundaries=[self.keys[len(self.keys) // 2]],
        )
        try:
            self.server = ShardServer(self.db, "127.0.0.1", 0, executor_threads=2)
            self.loop.run_until_complete(self.server.start())
            for _ in range(inputs.connections):
                client = ServeClient("127.0.0.1", self.server.port)
                self.clients.append(client)
                self.loop.run_until_complete(client.connect())
        except BaseException:
            self.close()
            raise

    def load(self, pairs: list[tuple[int, bytes]]) -> None:
        put, keys = self.db.put, self.keys
        for ordinal, value in pairs:
            put(keys[ordinal], value)
        self.db.wait_for_background()

    async def _connection(self, client: ServeClient, ops, lat) -> list:
        keys = self.keys
        results = []
        for kind, ordinal, arg in ops:
            key = [keys[o] for o in ordinal] if kind == MGET else keys[ordinal]
            try:
                t0 = _clock()
                if kind == GET:
                    result = await client.get(key)
                elif kind == PUT:
                    result = await client.put(key, arg)
                elif kind == MGET:
                    result = await client.multi_get(key)
                else:
                    result = await client.scan(key, None, arg)
                lat[kind].append(_clock() - t0)
            except (ServeError, OSError) as exc:
                result = Failed(exc)
            results.append(result)
        return results

    def run(self, conn_ops: list[list[tuple]], into: Round) -> list[list]:
        async def round_() -> list[list]:
            return await asyncio.gather(
                *(self._connection(c, ops, into.lat)
                  for c, ops in zip(self.clients, conn_ops))
            )

        started = _clock()
        results = self.loop.run_until_complete(round_())
        into.wall_ns = _clock() - started
        into.ops = sum(len(r) for r in results)
        return results

    def settle(self) -> None:
        """Let flushes and compactions finish, so that the reference kernel
        that follows a round does not share the interpreter with them."""
        self.db.wait_for_background()

    def engines(self) -> list[DB]:
        return [db for _, db in self.db.shard_dbs()]

    def io_stats(self):
        return self.db.aggregate_io_stats()

    def serving(self) -> dict:
        counters = self.server.serve_counters()
        return {
            "requests": sum(counters["requests"].values()),
            "shed": counters["shed"],
            "deadline_exceeded": counters["deadline_exceeded"],
            "engine_errors": counters["engine_errors"],
            "protocol_errors": counters["protocol_errors"],
            "cancelled_inflight": counters["cancelled_inflight"],
            "retries": sum(c.retries for c in self.clients),
            "breaker_trips": sum(c.breaker_trips for c in self.clients),
            "splits": self.db.splits,
            "merges": self.db.merges,
        }

    def close(self) -> None:
        """Clients, then the server (drains, joins its executor), then the
        engine (joins its background workers); safe to call twice."""
        try:
            for client in self.clients:
                self.loop.run_until_complete(client.aclose())
            self.clients = []
            if self.server is not None:
                self.loop.run_until_complete(self.server.aclose())
                self.server = None
        finally:
            self.db.close()
            if not self.loop.is_closed():
                self.loop.close()

    def reopen_and_read(self, ordinals: list[int]) -> list[bytes | None]:
        self.db = ShardedDB(self.store, self.options)
        try:
            return [self.db.get(self.keys[o]) for o in ordinals]
        finally:
            self.db.close()

    def digest(self) -> str:
        return ""


def open_target(inputs: Inputs):
    return ServeTarget(inputs) if inputs.served else EngineTarget(inputs)


# ------------------------------------------------------------------- measure

#: Puts per timed slice of the load (a reference kernel runs between slices).
LOAD_SLICE = 2000


def set_up(inputs: Inputs, host: HostClock) -> tuple[object, float, list[list]]:
    """Open, load and warm a fresh target; returns it, the seconds taken
    (at reference speed), and the warm-up results — the oracle has to see
    the warm-up's puts."""
    gc.collect()
    with host.span() as span:
        target = open_target(inputs)
    seconds = span.seconds
    try:
        for at in range(0, len(inputs.load), LOAD_SLICE):
            with host.span(target.settle) as span:
                target.load(inputs.load[at:at + LOAD_SLICE])
            seconds += span.seconds
        with host.span(target.settle) as span:
            warm = target.run(inputs.warm, Round())
        seconds += span.seconds
    except BaseException:
        target.close()
        raise
    return target, seconds, warm


def run_rounds(target, rounds_ops, oracle: Oracle, host: HostClock) -> Samples:
    """Run and check ``rounds_ops`` (one entry per round, each a list of
    per-connection op lists)."""
    samples = Samples()
    for conn_ops in rounds_ops:
        into = Round()
        with host.span(target.settle) as span:
            results = target.run(conn_ops, into)
        into.scale = span.scale
        samples.rounds.append(into)
        oracle.check(conn_ops, results)
    return samples


def read_back(target, oracle: Oracle, seed: int) -> None:
    """Close, reopen on the same storage, and read sampled keys back."""
    live = range(oracle.count)
    ordinals = random.Random(seed).sample(live, min(READBACK_KEYS, len(live)))
    oracle.check_readback(ordinals, target.reopen_and_read(ordinals))
