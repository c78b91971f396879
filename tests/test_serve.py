"""Async serving front end tests (DESIGN.md §12).

Protocol codecs round-trip every frame shape, and the frame parser the
server and the client share cuts the same bodies out of any chunking of
a stream; the end-to-end tests start a real :class:`ShardServer` on an
ephemeral port over a 2-shard :class:`ShardedDB` and drive it through
:class:`ServeClient`, including pipelined concurrent requests, response
order behind a hop, flow control against a peer that stops reading, and
the error paths (unknown opcode, malformed payload, oversized frame).
"""

from __future__ import annotations

import asyncio
import socket
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidArgumentError, TransientIOError, WouldBlock
from repro.obs import render_prometheus
from repro.serve import ServeClient, ServeError, ShardServer
from repro.serve import protocol as P
from repro.serve.server import INLINE_MAX_ITEMS
from repro.sharding import MemoryShardStore, ShardedDB
from repro.storage.fs import SimulatedFS

from conftest import tiny_options


# ------------------------------------------------------------- codecs


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = P.encode_frame(P.OP_PING, b"payload")
        assert frame[:4] == (len(b"payload") + 1).to_bytes(4, "big")
        code, payload = P.decode_body(frame[4:])
        assert code == P.OP_PING and payload == b"payload"

    def test_put_roundtrip(self):
        frame = P.encode_put(b"key", b"value with \x00 bytes")
        _, payload = P.decode_body(frame[4:])
        assert P.decode_put(payload) == (b"key", b"value with \x00 bytes")

    def test_multi_get_roundtrip(self):
        keys = [b"a", b"", b"long" * 100]
        frame = P.encode_multi_get(keys)
        _, payload = P.decode_body(frame[4:])
        assert P.decode_multi_get(payload) == keys

    @pytest.mark.parametrize(
        "start,end,limit",
        [(None, None, None), (b"a", None, None), (None, b"z", 5),
         (b"a", b"z", 100), (b"a", None, 0)],
    )
    def test_scan_roundtrip(self, start, end, limit):
        frame = P.encode_scan(start, end, limit)
        _, payload = P.decode_body(frame[4:])
        assert P.decode_scan(payload) == (start, end, limit)

    def test_scan_negative_limit_refused(self):
        with pytest.raises(InvalidArgumentError):
            P.encode_scan(None, None, -1)

    def test_batch_roundtrip(self):
        ops = [
            (P.BATCH_PUT, b"k1", b"v1"),
            (P.BATCH_DELETE, b"k2", b""),
            (P.BATCH_PUT, b"k3", b""),
        ]
        frame = P.encode_batch(ops)
        _, payload = P.decode_body(frame[4:])
        assert P.decode_batch(payload) == ops

    def test_values_and_entries_roundtrip(self):
        values = [b"v", None, b"", b"x" * 999]
        assert P.decode_values(P.encode_values(values)) == values
        entries = [(b"k1", b"v1"), (b"k2", b"")]
        assert P.decode_entries(P.encode_entries(entries)) == entries

    def test_oversized_frame_rejected(self):
        with pytest.raises(P.ProtocolError):
            P.encode_frame(P.OP_PUT, b"x" * (P.MAX_FRAME + 1))

    def test_truncated_fields_raise(self):
        with pytest.raises(P.ProtocolError):
            P.decode_body(b"")
        with pytest.raises(P.ProtocolError):
            P.decode_put(b"\x00\x00\x00\x09shortkey")  # klen past end


# --------------------------------------------------------- end to end


def run(coro):
    return asyncio.run(coro)


class _DecliningDB:
    """Delegating double whose every no-wait data op declines — an engine
    that always would wait (the serve surface includes the keyword)."""

    def __init__(self, db):
        self._db = db
        self.declined = 0

    def __getattr__(self, name):
        attr = getattr(self._db, name)
        if name not in ("put", "get", "delete", "multi_get", "scan", "write"):
            return attr

        def call(*args, wait=True):
            if not wait:
                self.declined += 1
                raise WouldBlock("double: always would wait")
            return attr(*args)

        return call


async def _with_server(fn, wrap=None, store=None):
    """Start a server over a fresh 2-shard DB, run ``fn(client, server)``,
    tear everything down."""
    db = ShardedDB(store or MemoryShardStore(), tiny_options(), shards=2,
                   boundaries=[b"m"])
    server = ShardServer(
        db if wrap is None else wrap(db), "127.0.0.1", 0, executor_threads=4
    )
    await server.start()
    client = await ServeClient("127.0.0.1", server.port).connect()
    try:
        return await fn(client, server)
    finally:
        await client.aclose()
        await server.aclose()
        db.close()


class TestShardServer:
    def test_kv_ops_end_to_end(self):
        async def scenario(client, _server):
            assert await client.ping() == b"pong"
            await client.put(b"apple", b"1")
            await client.put(b"zebra", b"2")
            assert await client.get(b"apple") == b"1"
            assert await client.get(b"missing") is None
            await client.delete(b"apple")
            assert await client.get(b"apple") is None
            assert await client.multi_get([b"zebra", b"nope"]) == [b"2", None]

        run(_with_server(scenario))

    def test_batch_and_scan_cross_shard(self):
        async def scenario(client, _server):
            await client.batch([
                (P.BATCH_PUT, b"aaa", b"1"),
                (P.BATCH_PUT, b"zzz", b"2"),
                (P.BATCH_PUT, b"mmm", b"3"),
                (P.BATCH_DELETE, b"mmm", b""),
            ])
            entries = await client.scan()
            assert entries == [(b"aaa", b"1"), (b"zzz", b"2")]
            assert await client.scan(start=b"m") == [(b"zzz", b"2")]
            assert await client.scan(limit=1) == [(b"aaa", b"1")]
            assert await client.scan(limit=0) == []
            with pytest.raises(InvalidArgumentError):
                await client.scan(limit=-1)

        run(_with_server(scenario))

    def test_pipelined_concurrent_clients(self):
        async def scenario(client, server):
            # A second connection plus in-flight pipelining on each.
            other = await ServeClient("127.0.0.1", server.port).connect()
            try:
                await asyncio.gather(*[
                    client.put(b"c1-%03d" % i, b"v%d" % i) for i in range(40)
                ], *[
                    other.put(b"x2-%03d" % i, b"w%d" % i) for i in range(40)
                ])
                got = await asyncio.gather(*[
                    client.get(b"x2-%03d" % i) for i in range(40)
                ])
                assert got == [b"w%d" % i for i in range(40)]
            finally:
                await other.aclose()
            stats = await client.stats()
            assert stats["requests"]["put"] == 80
            assert len(stats["shards"]) == 2

        run(_with_server(scenario))

    def test_inline_and_hopped_account_for_every_data_request(self):
        async def scenario(client, server):
            await client.put(b"apple", b"1")
            await client.put(b"zebra", b"2")
            await client.batch([(P.BATCH_PUT, b"ant", b"3")])
            await client.delete(b"ant")
            assert await client.get(b"apple") == b"1"
            assert await client.multi_get([b"apple", b"zebra"]) == [b"1", b"2"]
            assert await client.scan(limit=5) == [(b"apple", b"1"), (b"zebra", b"2")]
            assert await client.ping() == b"pong"  # admin ops are not counted
            stats = await client.stats()
            serve = stats["serve"]
            data_requests = sum(
                count for op, count in serve["requests"].items()
                if op in ("put", "get", "delete", "multi_get", "scan", "batch")
            )
            assert data_requests == 7
            assert serve["inline"] + serve["hopped"] == data_requests
            # A non-blocking filesystem and nobody else on the engine: every
            # bounded request is answered on the loop thread.
            assert (serve["inline"], serve["hopped"]) == (7, 0)
            health = await client.health()
            assert health["serve"]["inline"] == 7
            body = render_prometheus(server)
            assert "repro_serve_inline 7" in body
            assert "repro_serve_hopped 0" in body

        run(_with_server(scenario))

    def test_would_block_falls_through_to_the_pool(self):
        async def scenario(client, server):
            await client.put(b"apple", b"1")
            await client.batch([(P.BATCH_PUT, b"zebra", b"2")])
            assert await client.get(b"apple") == b"1"
            assert await client.get(b"missing") is None
            assert await client.multi_get([b"zebra", b"nope"]) == [b"2", None]
            assert await client.scan(limit=5) == [(b"apple", b"1"), (b"zebra", b"2")]
            await client.delete(b"apple")
            assert await client.get(b"apple") is None
            # Each request was tried here once, declined, and answered by
            # the pool: the client saw nothing but the normal answers.
            assert server.db.declined == 8
            assert (server.inline, server.hopped) == (0, 8)
            assert server.engine_errors == 0

        run(_with_server(scenario, wrap=_DecliningDB))

    def test_a_blocking_filesystem_is_served_from_the_pool_as_before(self):
        """Where I/O takes wall-clock time nothing is attempted on the
        loop thread — not even a read the memtable would answer."""
        store = MemoryShardStore(fs_factory=lambda _name: SimulatedFS(realtime=0.01))

        async def scenario(client, server):
            await client.put(b"apple", b"1")
            await client.batch([(P.BATCH_PUT, b"zebra", b"2")])
            assert await client.get(b"apple") == b"1"
            assert await client.multi_get([b"apple", b"zebra"]) == [b"1", b"2"]
            assert await client.scan(limit=5) == [(b"apple", b"1"), (b"zebra", b"2")]
            assert (server.inline, server.hopped) == (0, 5)

        run(_with_server(scenario, store=store))

    def test_unbounded_requests_go_straight_to_the_pool(self):
        async def scenario(client, server):
            for i in range(4):
                await client.put(b"key-%d" % i, b"v")
            assert (server.inline, server.hopped) == (4, 0)
            assert len(await client.scan()) == 4  # no limit: never inline
            assert (server.inline, server.hopped) == (4, 1)
            assert len(await client.scan(limit=INLINE_MAX_ITEMS)) == 4
            assert len(await client.scan(limit=INLINE_MAX_ITEMS + 1)) == 4
            assert (server.inline, server.hopped) == (5, 2)
            keys = [b"key-%d" % (i % 4) for i in range(INLINE_MAX_ITEMS + 1)]
            assert await client.multi_get(keys[:-1]) == [b"v"] * INLINE_MAX_ITEMS
            assert await client.multi_get(keys) == [b"v"] * (INLINE_MAX_ITEMS + 1)
            assert (server.inline, server.hopped) == (6, 3)
            ops = [(P.BATCH_PUT, b"key-0", b"w")] * (INLINE_MAX_ITEMS + 1)
            await client.batch(ops)
            assert (server.inline, server.hopped) == (6, 4)

        run(_with_server(scenario))

    def test_inline_and_hopped_requests_interleave_safely(self):
        """Stress: a synchronous engine with a 1 KiB memtable rolls over
        every few puts, and each rollover hops to the pool and holds the
        engine lock through its flush and compactions — while the loop
        thread keeps serving the other connections, declining whenever its
        try-lock fails.  No acked write may be lost and no request may go
        uncounted, whichever thread served it."""

        async def connection(port: int, conn: int, model: dict) -> None:
            client = await ServeClient("127.0.0.1", port).connect()
            try:
                for i in range(80):
                    key = b"c%d-%03d" % (conn, i % 40)
                    value = b"v%d-%d" % (conn, i) + b"x" * 48
                    await client.put(key, value)
                    model[key] = value
                    assert await client.get(key) == value
                    if i % 8 == 0:
                        got = await client.scan(key, None, 4)
                        assert got and got[0] == (key, value)
            finally:
                await client.aclose()

        async def scenario(client, server):
            model: dict[bytes, bytes] = {}
            await asyncio.wait_for(
                asyncio.gather(*(connection(server.port, c, model) for c in range(8))),
                timeout=120,
            )
            keys = sorted(model)
            assert await client.multi_get(keys[:100]) == [model[k] for k in keys[:100]]
            assert dict(await client.scan()) == model
            data_requests = sum(
                count for op, count in server.requests.items()
                if op in ("put", "get", "scan", "multi_get")
            )
            assert server.inline + server.hopped == data_requests
            assert server.inline > 0 and server.hopped > 0
            assert server.engine_errors == 0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run(_with_server(scenario))
        finally:
            sys.setswitchinterval(interval)

    def test_stats_payload_shape(self):
        async def scenario(client, _server):
            await client.put(b"k", b"v")
            stats = await client.stats()
            assert stats["shards"] == ["shard-000000", "shard-000001"]
            assert stats["engine"]["user_writes"] == 1
            assert stats["engine"]["shards"] == 2
            assert stats["requests"]["put"] == 1

        run(_with_server(scenario))

    def test_unknown_opcode_gets_error_frame_and_server_survives(self):
        async def scenario(client, server):
            # A protocol error earns one error frame, then the server drops
            # the connection (framing can't be trusted past a bad frame).
            with pytest.raises(ServeError, match="opcode"):
                await client._call(P.encode_frame(0x7F, b""))
            fresh = await ServeClient("127.0.0.1", server.port).connect()
            try:
                await fresh.put(b"k", b"v")
                assert await fresh.get(b"k") == b"v"
            finally:
                await fresh.aclose()

        run(_with_server(scenario))

    def test_malformed_payload_gets_error_frame(self):
        async def scenario(client, server):
            bad_scan = P.encode_frame(P.OP_SCAN, b"")  # missing flags byte
            with pytest.raises(ServeError):
                await client._call(bad_scan)
            fresh = await ServeClient("127.0.0.1", server.port).connect()
            try:
                assert await fresh.ping() == b"pong"
            finally:
                await fresh.aclose()

        run(_with_server(scenario))


# --------------------------------------------- exits of the one request path


class _FailsOnceDB(_DecliningDB):
    """Delegating double whose first call of each data op raises a
    transient engine fault, which the server answers RETRY_LATER."""

    def __init__(self, db):
        super().__init__(db)
        self.failed: set[str] = set()

    def __getattr__(self, name):
        attr = getattr(self._db, name)
        if name not in ("put", "get", "delete", "multi_get", "scan", "write"):
            return attr

        def call(*args, **kwargs):
            if name not in self.failed:
                self.failed.add(name)
                raise TransientIOError(f"injected: first {name} fails")
            return attr(*args, **kwargs)

        return call


_PUBLIC_OPS = {
    "get": (lambda c: c.get(b"apple"), b"1"),
    "put": (lambda c: c.put(b"apple", b"2"), None),
    "delete": (lambda c: c.delete(b"zebra"), None),
    "multi_get": (lambda c: c.multi_get([b"apple", b"zebra", b"nope"]), [b"1", b"2", None]),
    "scan": (lambda c: c.scan(limit=5), [(b"apple", b"1"), (b"zebra", b"2")]),
    "batch": (lambda c: c.batch([(P.BATCH_PUT, b"ant", b"3")]), None),
}


class TestRequestPathExits:
    """Every way out of ``ServeClient._call`` and the server's inline
    answer, driven through the public ops."""

    @pytest.mark.parametrize("op", sorted(_PUBLIC_OPS))
    def test_retry_later_on_the_first_attempt_is_retried(self, op):
        call, expected = _PUBLIC_OPS[op]

        async def scenario(client, server):
            server.db._db.put(b"apple", b"1")
            server.db._db.put(b"zebra", b"2")
            assert await call(client) == expected
            assert client.retries == 1 and server.engine_errors == 1
            # The faulted attempt is an engine error; the retry is inline.
            assert (server.inline, server.hopped) == (1, 0)

        run(_with_server(scenario, wrap=_FailsOnceDB))

    @pytest.mark.parametrize("op", sorted(_PUBLIC_OPS))
    def test_a_connection_lost_mid_request_reconnects_and_retries(self, op):
        call, expected = _PUBLIC_OPS[op]

        async def scenario(client, server):
            await client.put(b"apple", b"1")
            await client.put(b"zebra", b"2")
            first = client._protocol
            # Runs once the frame is written, before its reply is read.
            asyncio.get_running_loop().call_soon(first.transport.close)
            assert await call(client) == expected
            assert client.retries == 1 and client._protocol is not first
            assert not first.waiters and not client._protocol.waiters

        run(_with_server(scenario))

    def test_a_cancelled_caller_leaves_the_fifo_in_step(self):
        async def scenario(client, server):
            await client.put(b"apple", b"1")
            await client.put(b"zebra", b"2")
            task = asyncio.ensure_future(client.get(b"apple"))
            await asyncio.sleep(0)  # its frame is written, its reply unread
            task.cancel()
            assert await client.get(b"zebra") == b"2"
            assert await client.multi_get([b"apple"]) == [b"1"]
            assert task.cancelled() and not client._protocol.waiters
            assert server.inline == 5 and client.retries == 0

        run(_with_server(scenario))

    @pytest.mark.parametrize("frame, protocol_error", [
        (P.encode_frame(0x7F), True),  # unknown opcode
        (P.encode_frame(P.OP_PUT, b"\x00\x00\x00\x09short"), True),  # key past the end
        (P.encode_frame(P.OP_SCAN, b""), True),  # no flags byte
        (P.encode_frame(P.OP_MULTI_GET, b"\x00"), False),  # count cut short
    ])
    def test_bad_frames_still_answer_errors(self, frame, protocol_error):
        """A frame that cannot be decoded answers STATUS_ERROR and ends the
        connection; a payload whose count field is cut short fails as an
        engine-level error, and the connection serves on."""

        async def scenario(client, server):
            await client.put(b"apple", b"1")
            with pytest.raises(ServeError) as raised:
                await client._call(frame)
            assert type(raised.value) is ServeError
            assert server.protocol_errors == (1 if protocol_error else 0)
            assert server.engine_errors == (0 if protocol_error else 1)
            assert await client.get(b"apple") == b"1"  # reconnected if it must

        run(_with_server(scenario))


# ------------------------------------------------------- the request path


class _SlowGetDB(_DecliningDB):
    """Declining double whose pool-side ``get(b"slow")`` takes 0.2 s."""

    def __getattr__(self, name):
        call = super().__getattr__(name)
        if name != "get":
            return call

        def get(key, wait=True):
            if wait and key == b"slow":
                time.sleep(0.2)
            return call(key, wait=wait)

        return get


async def _raw_replies(reader, count: int) -> list[bytes]:
    bodies = []
    for _ in range(count):
        header = await reader.readexactly(4)
        bodies.append(await reader.readexactly(int.from_bytes(header, "big")))
    return bodies


class TestRequestPath:
    def test_cancelled_call_does_not_desync_its_connection(self):
        """A caller that gives up on a request must not leave its reply
        for the next caller on the same connection."""

        async def scenario(client, _server):
            await client.put(b"slow", b"S")
            await client.put(b"fast", b"F")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.get(b"slow"), 0.05)
            assert await client.get(b"fast") == b"F"
            assert await client.get(b"slow") == b"S"

        run(_with_server(scenario, wrap=_SlowGetDB))

    def test_answers_behind_a_hop_keep_request_order(self):
        """[scan (no limit: hops)][get][put][get] in one write: four answers
        in request order; the scan ran before the put and the last get sees
        it."""

        async def scenario(client, server):
            await client.put(b"apple", b"old")
            await client.put(b"zebra", b"z")
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    P.encode_scan(None, None, None)
                    + P.encode_get(b"apple")
                    + P.encode_put(b"apple", b"new")
                    + P.encode_get(b"apple")
                )
                scan, first, put, second = await asyncio.wait_for(
                    _raw_replies(reader, 4), 10
                )
            finally:
                writer.close()
                await writer.wait_closed()
            assert P.decode_entries(scan[1:]) == [(b"apple", b"old"), (b"zebra", b"z")]
            assert first == bytes([P.STATUS_OK]) + b"old"
            assert put == bytes([P.STATUS_OK])
            assert second == bytes([P.STATUS_OK]) + b"new"
            assert (server.inline, server.hopped) == (5, 1)

        run(_with_server(scenario))

    def test_a_peer_that_stops_reading_pauses_its_connection(self):
        """64 pipelined ~50 KiB scans, nothing read: the server stops
        answering (and reading) once its write buffer passes the high-water
        mark, holding at most one reply past it; when the peer reads, every
        reply arrives, in order."""
        value = b"v" * 1000

        async def scenario(client, server):
            keys = [b"key-%03d" % i for i in range(120)]
            await client.batch([(P.BATCH_PUT, key, value) for key in keys[:60]])
            await client.batch([(P.BATCH_PUT, key, value) for key in keys[60:]])
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                sock, ("127.0.0.1", server.port)
            )
            reader, writer = await asyncio.open_connection(sock=sock)
            try:
                port = sock.getsockname()[1]
                while not (conns := [
                    c for c in server._conns
                    if c.transport.get_extra_info("peername")[1] == port
                ]):
                    await asyncio.sleep(0.01)
                conn = conns[0]
                transport = conn.transport
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                high = transport.get_write_buffer_limits()[1]
                peak = 0
                write = transport.write

                def recording_write(data):
                    nonlocal peak
                    write(data)
                    peak = max(peak, transport.get_write_buffer_size())

                transport.write = recording_write
                writer.write(b"".join(P.encode_scan(k, None, 50) for k in keys[:64]))
                await writer.drain()
                for _ in range(500):
                    if conn.write_paused:
                        break
                    await asyncio.sleep(0.01)
                reply = 4 + 1 + 4 + 50 * (4 + len(keys[0]) + 4 + len(value))
                assert conn.write_paused
                assert not transport.is_reading()
                assert high < peak <= high + reply
                assert server.requests["scan"] < 64
                bodies = await asyncio.wait_for(_raw_replies(reader, 64), 30)
            finally:
                writer.close()
                await writer.wait_closed()
            for i, body in enumerate(bodies):
                entries = P.decode_entries(body[1:])
                assert body[0] == P.STATUS_OK and len(entries) == 50
                assert entries[0] == (keys[i], value)
            assert server.requests["scan"] == 64

        run(_with_server(scenario))


class _EchoDB:
    """Engine double for driving a connection with no event loop running:
    ``get(key)`` answers ``key``; nothing ever would wait."""

    def get(self, key, wait=True):
        return key


class _FakeTransport:
    """Records what a protocol writes; closing ends the connection."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.out = bytearray()
        self.closed = False
        self.eof = False

    def write(self, data):
        assert not self.eof and not self.closed
        self.out += data

    def is_closing(self):
        return self.closed

    def close(self):
        if not self.closed:
            self.closed = True
            self.protocol.connection_lost(None)

    def can_write_eof(self):
        return True

    def write_eof(self):
        self.eof = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def _bodies_of(stream: bytes) -> list[bytes]:
    frames = P.FrameBuffer()
    frames.feed(stream)
    bodies = []
    while (body := frames.pop()) is not None:
        bodies.append(body)
    assert not len(frames)
    return bodies


def _chunks(stream: bytes, cuts: list[int]) -> list[bytes]:
    points = [0, *sorted({c % (len(stream) + 1) for c in cuts}), len(stream)]
    return [stream[a:b] for a, b in zip(points, points[1:]) if b > a]


_keys = st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=12)
_cuts = st.one_of(
    st.just("bytewise"),
    st.lists(st.integers(min_value=0, max_value=4096), max_size=20),
)
_bad = st.sampled_from([None, 0, P.MAX_FRAME + 1, 0xFFFFFFFF])


class TestFrameParser:
    @staticmethod
    def _split(stream: bytes, cuts) -> list[bytes]:
        if cuts == "bytewise":
            return [stream[i:i + 1] for i in range(len(stream))]
        return _chunks(stream, cuts)

    @staticmethod
    def _tail(bad) -> bytes:
        return b"" if bad is None else bad.to_bytes(4, "big") + b"\x02trailing junk"

    @given(keys=_keys, cuts=_cuts, bad=_bad)
    @settings(max_examples=150, deadline=None)
    def test_server_answers_every_chunking_alike(self, keys, cuts, bad):
        """Requests split anywhere are answered in order, one answer per
        frame; a bad length is refused only after every frame in front of
        it is answered."""
        from repro.serve.server import _Conn

        server = ShardServer(_EchoDB(), executor_threads=1)
        server._loop = asyncio.new_event_loop()
        try:
            conn = _Conn(server)
            conn.connection_made(_FakeTransport(conn))
            stream = b"".join(P.encode_get(k) for k in keys) + self._tail(bad)
            for chunk in self._split(stream, cuts):
                conn.data_received(chunk)
            replies = _bodies_of(bytes(conn.transport.out))
            assert replies[: len(keys)] == [bytes([P.STATUS_OK]) + k for k in keys]
            if bad is None:
                assert len(replies) == len(keys) and not conn.transport.eof
            else:
                assert len(replies) == len(keys) + 1
                assert replies[-1][0] == P.STATUS_ERROR
                assert b"bad frame length" in replies[-1]
                assert conn.transport.eof and server.protocol_errors == 1
            assert server.requests == {"get": len(keys)}
            assert (server.inline, server.hopped) == (len(keys), 0)
        finally:
            server._loop.close()
            server._pool.shutdown()

    @given(keys=_keys, cuts=_cuts, bad=_bad)
    @settings(max_examples=150, deadline=None)
    def test_client_resolves_every_chunking_alike(self, keys, cuts, bad):
        """Replies split anywhere resolve the pending futures in order; a
        bad length fails the futures it leaves unresolved."""
        from repro.serve.client import _ReplyProtocol

        loop = asyncio.new_event_loop()
        try:
            protocol = _ReplyProtocol(loop)
            protocol.connection_made(_FakeTransport(protocol))
            waiters = [loop.create_future() for _ in range(len(keys) + 1)]
            protocol.waiters.extend(waiters)
            bodies = [bytes([P.STATUS_OK]) + k for k in keys]
            stream = b"".join(len(b).to_bytes(4, "big") + b for b in bodies)
            for chunk in self._split(stream + self._tail(bad), cuts):
                protocol.data_received(chunk)
            assert [w.result() for w in waiters[:-1]] == bodies
            if bad is None:
                assert not waiters[-1].done() and not protocol.transport.closed
            else:
                assert protocol.transport.closed
                assert isinstance(waiters[-1].exception(), ConnectionError)
        finally:
            loop.close()

    @given(keys=_keys, cuts=_cuts)
    @settings(max_examples=100, deadline=None)
    def test_buffer_pops_what_was_fed(self, keys, cuts):
        stream = b"".join(P.encode_get(k) for k in keys)
        frames = P.FrameBuffer()
        got = []
        for chunk in self._split(stream, cuts):
            frames.feed(chunk)
            while (body := frames.pop()) is not None:
                got.append(body)
        assert got == [bytes([P.OP_GET]) + k for k in keys]
        assert len(frames) == 0
