"""Async serving front end tests (DESIGN.md §12).

Protocol codecs round-trip every frame shape; the end-to-end tests start
a real :class:`ShardServer` on an ephemeral port over a 2-shard
:class:`ShardedDB` and drive it through :class:`ServeClient`, including
pipelined concurrent requests and the error paths (unknown opcode,
malformed payload, oversized frame).
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.errors import InvalidArgumentError, WouldBlock
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
                await client._request(P.encode_frame(0x7F, b""))
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
                await client._request(bad_scan)
            fresh = await ServeClient("127.0.0.1", server.port).connect()
            try:
                assert await fresh.ping() == b"pong"
            finally:
                await fresh.aclose()

        run(_with_server(scenario))
