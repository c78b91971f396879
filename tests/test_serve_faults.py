"""Serving robustness tests (DESIGN.md §15).

The protocol's backward-compatible deadline extension, the status-code
taxonomy under injected engine faults (transient retry, read-only
degrade, resume), deadline enforcement, admission-control shedding,
graceful drain, and the pipelined-burst protocol-error path — a
:class:`ShardServer` over a ``FaultInjectionFS``-backed engine, driven
through the retrying :class:`ServeClient`.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.db import DB
from repro.errors import ReproError, WouldBlock
from repro.serve import (
    DeadlineExceededError,
    RetryLaterError,
    ServeClient,
    ServeError,
    ShardServer,
    UnavailableError,
)
from repro.serve import protocol as P
from repro.storage.faults import FaultInjectionFS, FaultPolicy
from repro.storage.fs import SimulatedFS

from conftest import tiny_options


# ------------------------------------------------------------- codecs


class TestDeadlineCodec:
    def test_deadline_roundtrip(self):
        frame = P.encode_put(b"key", b"value", 1500)
        code, payload, deadline_ms = P.decode_request(frame[4:])
        assert code == P.OP_PUT
        assert deadline_ms == 1500
        assert P.decode_put(payload) == (b"key", b"value")

    def test_flagless_frame_still_decodes(self):
        # The pre-deadline wire format: a bare opcode byte.  It must keep
        # decoding unchanged — old clients speak it.
        frame = P.encode_put(b"key", b"value")
        code, payload, deadline_ms = P.decode_request(frame[4:])
        assert code == P.OP_PUT
        assert deadline_ms is None
        assert P.decode_put(payload) == (b"key", b"value")

    def test_no_deadline_encodes_bit_identical(self):
        # deadline_ms=None must produce byte-for-byte the legacy frame.
        assert P.encode_put(b"k", b"v", None) == P.encode_put(b"k", b"v")
        assert P.encode_frame(P.OP_PING, b"", None) == P.encode_frame(P.OP_PING)

    def test_deadline_bounds_checked(self):
        with pytest.raises(P.ProtocolError):
            P.encode_frame(P.OP_PUT, b"", -1)
        with pytest.raises(P.ProtocolError):
            P.encode_frame(P.OP_PUT, b"", 1 << 32)

    def test_retry_hint_roundtrip(self):
        payload = P.encode_retry_hint(250, "write queue full")
        assert P.decode_retry_hint(payload) == (250, "write queue full")
        # A hint-less RETRY_LATER payload degrades to (0, message).
        assert P.decode_retry_hint(b"") == (0, "")


# --------------------------------------------------------- end to end


def run(coro):
    return asyncio.run(coro)


class _SlowDB:
    """Delegating DB wrapper whose data ops sleep first — a stand-in for
    a device stall, letting deadline/admission tests control timing.  A
    sleeping engine *is* one that would block, so it declines ``wait=False``
    and the server's hop, ``wait_for`` and in-flight caps stay under test."""

    def __init__(self, db: DB, delay_s: float):
        self._db = db
        self.delay_s = delay_s

    def put(self, key: bytes, value: bytes, *, wait: bool = True) -> None:
        """Sleep, then put (models a write stuck behind a slow device)."""
        if not wait:
            raise WouldBlock("slow device")
        time.sleep(self.delay_s)
        self._db.put(key, value)

    def get(self, key: bytes, *, wait: bool = True):
        """Sleep, then get."""
        if not wait:
            raise WouldBlock("slow device")
        time.sleep(self.delay_s)
        return self._db.get(key)

    def __getattr__(self, name):
        return getattr(self._db, name)


async def _with_fault_server(
    fn, *, policy=None, server_kwargs=None, client_kwargs=None, wrap=None
):
    """Serve a FaultInjectionFS-backed DB; run ``fn(client, server, db, fs)``."""
    fs = FaultInjectionFS(SimulatedFS(), policy or FaultPolicy())
    db = DB(fs, tiny_options(), seed=1)
    server = ShardServer(
        db if wrap is None else wrap(db),
        "127.0.0.1", 0, executor_threads=2, **(server_kwargs or {})
    )
    await server.start()
    client = await ServeClient(
        "127.0.0.1", server.port, **(client_kwargs or {})
    ).connect()
    try:
        return await fn(client, server, db, fs)
    finally:
        await client.aclose()
        await server.aclose()
        db.close()


class TestFaultStatuses:
    def test_transient_read_fault_retried_to_success(self):
        # One transient read fault: the first GET answers RETRY_LATER, the
        # client's backoff loop retries, the second attempt serves.
        async def scenario(client, server, db, fs):
            await client.put(b"key", b"value")
            db.flush()  # onto the (faultable) SST read path
            fs.policy.fail("read", "*.sst", kind="transient", count=1)
            assert await client.get(b"key") == b"value"
            assert client.retries >= 1
            assert server.engine_errors >= 1
            # The fault was hit on the loop thread (SimulatedFS never
            # blocks, so nothing hopped) and still mapped to RETRY_LATER.
            assert server.hopped == 0 and server.inline >= 2

        run(_with_fault_server(
            scenario, client_kwargs=dict(max_retries=4, backoff_base_s=0.001)
        ))

    def test_degrade_serves_reads_refuses_writes_then_resumes(self):
        async def scenario(client, server, db, fs):
            await client.put(b"stable", b"1")
            # A permanent WAL fault: the failing write itself is a permanent
            # ERROR (that write is lost), and the engine degrades.
            fs.policy.fail("append", "*.log", kind="permanent", count=1)
            with pytest.raises(ServeError):
                await client.put(b"victim", b"x")
            # Degraded: writes are UNAVAILABLE, reads keep serving.
            with pytest.raises(UnavailableError):
                await client.put(b"more", b"y")
            assert await client.get(b"stable") == b"1"
            assert await client.ready() is False
            health = await client.health()
            assert health["engine"]["writable"] is False
            assert health["engine"]["state"] == "degraded"
            # Operator playbook: clear the fault, resume, write again.
            fs.policy.clear()
            db.resume()
            await client.put(b"recovered", b"2")
            assert await client.get(b"recovered") == b"2"
            assert await client.ready() is True

        run(_with_fault_server(scenario, client_kwargs=dict(max_retries=0)))


class TestDeadlines:
    def test_zero_budget_refused_before_dispatch(self):
        async def scenario(client, server, db, fs):
            with pytest.raises(DeadlineExceededError):
                await client.put(b"k", b"v", deadline_ms=0)
            assert server.deadline_exceeded == 1
            # Refused before anything ran — on the loop thread or the pool.
            assert (server.inline, server.hopped) == (0, 0)
            assert db.last_sequence == 0
            # No budget consumed anywhere else: a fresh request still works.
            await client.put(b"k", b"v", deadline_ms=60_000)
            assert await client.get(b"k") == b"v"

        run(_with_fault_server(scenario, client_kwargs=dict(max_retries=0)))

    def test_slow_engine_call_cut_at_deadline(self):
        async def scenario(client, server, db, fs):
            start = asyncio.get_running_loop().time()
            with pytest.raises(DeadlineExceededError):
                await client.get(b"k", deadline_ms=50)
            elapsed = asyncio.get_running_loop().time() - start
            assert elapsed < 0.3  # cut at ~50ms, not the 400ms the op takes
            assert server.deadline_exceeded == 1
            assert (server.inline, server.hopped) == (0, 1)  # cut on the pool

        run(_with_fault_server(
            scenario,
            wrap=lambda db: _SlowDB(db, 0.4),
            client_kwargs=dict(max_retries=0),
        ))

    def test_default_deadline_applies_to_flagless_requests(self):
        async def scenario(client, server, db, fs):
            with pytest.raises(DeadlineExceededError):
                await client.get(b"k")  # no per-request deadline
            assert (server.inline, server.hopped) == (0, 1)

        run(_with_fault_server(
            scenario,
            wrap=lambda db: _SlowDB(db, 0.4),
            server_kwargs=dict(default_deadline_ms=50),
            client_kwargs=dict(max_retries=0),
        ))


class TestAdmissionControl:
    def test_write_burst_past_cap_is_shed_with_hint(self):
        async def scenario(client, server, db, fs):
            second = await ServeClient(
                "127.0.0.1", server.port, max_retries=0
            ).connect()
            try:
                slow_put = asyncio.ensure_future(client.put(b"a", b"1"))
                await asyncio.sleep(0.05)  # let it occupy the write slot
                with pytest.raises(RetryLaterError) as excinfo:
                    await second.put(b"b", b"2")
                assert excinfo.value.retry_after_ms > 0
                await slow_put  # the admitted write completes normally
            finally:
                await second.aclose()
            assert server.shed >= 1
            assert server.serve_counters()["shed"] >= 1
            # The admitted write held its in-flight slot on the pool; the
            # shed one never reached the engine either way.
            assert (server.inline, server.hopped) == (0, 1)

        run(_with_fault_server(
            scenario,
            wrap=lambda db: _SlowDB(db, 0.3),
            server_kwargs=dict(max_inflight_writes=1),
            client_kwargs=dict(max_retries=0),
        ))

    def test_retrying_client_outlasts_the_burst(self):
        # Same shedding server, but the client honors the hint and retries:
        # every write eventually lands.
        async def scenario(client, server, db, fs):
            others = [
                await ServeClient(
                    "127.0.0.1", server.port, max_retries=8,
                    backoff_base_s=0.01, seed=i,
                ).connect()
                for i in range(3)
            ]
            try:
                await asyncio.gather(*(
                    c.put(b"key-%d" % i, b"v") for i, c in enumerate(others)
                ))
                for i, c in enumerate(others):
                    assert await c.get(b"key-%d" % i) == b"v"
            finally:
                for c in others:
                    await c.aclose()

        run(_with_fault_server(
            scenario,
            wrap=lambda db: _SlowDB(db, 0.05),
            server_kwargs=dict(max_inflight_writes=1),
        ))

    def test_admission_off_never_sheds(self):
        async def scenario(client, server, db, fs):
            second = await ServeClient(
                "127.0.0.1", server.port, max_retries=0
            ).connect()
            try:
                await asyncio.gather(
                    client.put(b"a", b"1"), second.put(b"b", b"2")
                )
            finally:
                await second.aclose()
            assert server.shed == 0

        run(_with_fault_server(
            scenario,
            wrap=lambda db: _SlowDB(db, 0.05),
            server_kwargs=dict(admission_control=False, max_inflight_writes=1),
        ))


class TestGracefulDrain:
    def test_inflight_writes_finish_clean_on_aclose(self):
        async def scenario():
            db = DB(SimulatedFS(), tiny_options(), seed=1)
            server = ShardServer(
                _SlowDB(db, 0.2), "127.0.0.1", 0,
                executor_threads=4, drain_timeout=5.0,
            )
            await server.start()
            clients = [
                await ServeClient("127.0.0.1", server.port).connect()
                for _ in range(3)
            ]
            try:
                puts = [
                    asyncio.ensure_future(c.put(b"drain-%d" % i, b"v"))
                    for i, c in enumerate(clients)
                ]
                await asyncio.sleep(0.05)  # all three are now in flight
                await server.aclose()
                # Every in-flight write finished; none were cancelled.
                await asyncio.gather(*puts)
                assert server.cancelled_inflight == 0
                assert server.inflight_total == 0
            finally:
                for c in clients:
                    await c.aclose()
            # The acked writes are durable in the drained store.
            assert db.get(b"drain-0") == b"v"
            db.close()

        run(scenario())

    def test_requests_during_drain_are_shed(self):
        async def scenario():
            db = DB(SimulatedFS(), tiny_options(), seed=1)
            server = ShardServer(
                _SlowDB(db, 0.3), "127.0.0.1", 0,
                executor_threads=2, drain_timeout=5.0,
            )
            await server.start()
            busy = await ServeClient("127.0.0.1", server.port).connect()
            late = await ServeClient(
                "127.0.0.1", server.port, max_retries=0
            ).connect()
            try:
                put = asyncio.ensure_future(busy.put(b"k", b"v"))
                await asyncio.sleep(0.05)
                closer = asyncio.ensure_future(server.aclose())
                await asyncio.sleep(0.05)  # draining is now set
                with pytest.raises((RetryLaterError, ServeError, OSError)):
                    await late.put(b"late", b"x")
                await put
                await closer
                assert server.cancelled_inflight == 0
            finally:
                await busy.aclose()
                await late.aclose()
            db.close()

        run(scenario())


class TestProtocolErrorPath:
    def test_malformed_frame_mid_pipeline_gets_error_then_clean_eof(self):
        # [valid put][bad opcode][valid put] written in one burst: the
        # first response is OK, the second is the error frame, and the
        # connection ends with EOF — not a reset that tears the error away
        # while the tail of the burst sits unread in the server's buffer.
        async def scenario():
            db = DB(SimulatedFS(), tiny_options(), seed=1)
            server = ShardServer(db, "127.0.0.1", 0, executor_threads=2)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                P.encode_put(b"good-a", b"1")
                + P.encode_frame(0x7E)
                + P.encode_put(b"good-b", b"2")
            )
            await writer.drain()
            header = await reader.readexactly(4)
            first = await reader.readexactly(int.from_bytes(header, "big"))
            assert first[0] == P.STATUS_OK
            header = await reader.readexactly(4)
            second = await reader.readexactly(int.from_bytes(header, "big"))
            assert second[0] == P.STATUS_ERROR
            assert b"opcode" in second[1:]
            assert await reader.read() == b""  # clean EOF, no reset
            writer.close()
            await writer.wait_closed()
            # The write acked before the bad frame landed.
            assert db.get(b"good-a") == b"1"
            assert server.protocol_errors == 1
            await server.aclose()
            db.close()

        run(scenario())

    def test_unknown_opcode_not_counted_as_request(self):
        async def scenario(client, server, db, fs):
            with pytest.raises(ServeError, match="opcode"):
                await client._request(P.encode_frame(0x7E))
            assert server.requests == {}
            assert server.protocol_errors == 1

        run(_with_fault_server(scenario))

    def test_oversized_response_degrades_to_structured_error(
        self,
    ):
        # A scan whose result exceeds MAX_FRAME must answer a structured
        # error, not die trying to encode an unframeable response.
        async def scenario(client, server, db, fs):
            for i in range(30):
                await client.put(b"key-%04d" % i, b"v" * 100)
            import unittest.mock as mock
            with mock.patch.object(P, "MAX_FRAME", 1024):
                with pytest.raises(ServeError, match="too large"):
                    await client.scan()
            # The connection survived the structured error.
            assert await client.ping() == b"pong"
            assert await client.get(b"key-0000") == b"v" * 100

        run(_with_fault_server(scenario, client_kwargs=dict(max_retries=0)))


class TestFlushFailureDurability:
    def test_failed_flush_keeps_frozen_memtable_through_resume(self):
        # Regression for the immutable-clobbering bug the chaos harness
        # found: a hard flush failure leaves the frozen memtable pending;
        # the next flush after resume() must land it, not silently replace
        # it (its WAL is no longer replayed once the log number rotates).
        policy = FaultPolicy()
        fs = FaultInjectionFS(SimulatedFS(), policy)
        db = DB(fs, tiny_options(), seed=1)
        acked = []
        policy.fail("create", "*.sst", kind="permanent", count=2)
        with pytest.raises(ReproError):
            for i in range(200):
                key = b"key-%06d" % i
                db.put(key, b"v" * 40)
                acked.append(key)
        policy.clear()
        db.resume()
        db.put(b"after-resume", b"1")
        db.flush()
        for key in acked:
            assert db.get(key) is not None, key
        # Crash (drop un-synced bytes), reopen: every acked write survives.
        fs.crash()
        fs.heal()
        reopened = DB(fs, tiny_options(), seed=1)
        for key in acked:
            assert reopened.get(key) is not None, key
        assert reopened.get(b"after-resume") == b"1"
        reopened.close()
