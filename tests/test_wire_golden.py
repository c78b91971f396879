"""The wire bytes, pinned: every request opcode (with and without a
``deadline_ms``) and every response kind, as the encoders built them when
the frame and payload codecs were rewritten to read and write at an
offset, must come out of today's encoders byte for byte.  A change to the
wire format fails here; re-baseline only on purpose, with a note on what
old peers see."""

from __future__ import annotations

from repro.serve import protocol as P

#: name -> the frame's hex.
GOLDEN = {
    "put": "0000001201000000056b65792d3176616c75652000ff",
    "get": "00000006026b65792d31",
    "delete": "00000006036b65792d31",
    "multi_get": "000000170400000003000000016100000000000000056b65792d31",
    "scan_all": "000000020500",
    "scan_full": "0000001005070000000161000000017a00000014",
    "scan_start_limit": "0000000b0505000000016100000000",
    "batch": "00000022060000000301000000026b3100000002763100000000026b32010000000000000000",
    "op_stats": "0000000107",
    "op_ping": "0000000108",
    "op_health": "0000000109",
    "op_ready": "000000010a",
    "put@0": "000000168100000000000000056b65792d3176616c75652000ff",
    "get@0": "0000000a82000000006b65792d31",
    "delete@0": "0000000a83000000006b65792d31",
    "multi_get@0": "0000001b840000000000000003000000016100000000000000056b65792d31",
    "scan_all@0": "00000006850000000000",
    "scan_full@0": "000000148500000000070000000161000000017a00000014",
    "scan_start_limit@0": "0000000f850000000005000000016100000000",
    "batch@0": "0000002686000000000000000301000000026b3100000002763100000000026b32010000000000000000",
    "op_stats@0": "000000058700000000",
    "op_ping@0": "000000058800000000",
    "op_health@0": "000000058900000000",
    "op_ready@0": "000000058a00000000",
    "put@1500": "0000001681000005dc000000056b65792d3176616c75652000ff",
    "get@1500": "0000000a82000005dc6b65792d31",
    "delete@1500": "0000000a83000005dc6b65792d31",
    "multi_get@1500": "0000001b84000005dc00000003000000016100000000000000056b65792d31",
    "scan_all@1500": "0000000685000005dc00",
    "scan_full@1500": "0000001485000005dc070000000161000000017a00000014",
    "scan_start_limit@1500": "0000000f85000005dc05000000016100000000",
    "batch@1500": "0000002686000005dc0000000301000000026b3100000002763100000000026b32010000000000000000",
    "op_stats@1500": "0000000587000005dc",
    "op_ping@1500": "0000000588000005dc",
    "op_health@1500": "0000000589000005dc",
    "op_ready@1500": "000000058a000005dc",
    "put@4294967295": "0000001681ffffffff000000056b65792d3176616c75652000ff",
    "get@4294967295": "0000000a82ffffffff6b65792d31",
    "delete@4294967295": "0000000a83ffffffff6b65792d31",
    "multi_get@4294967295": "0000001b84ffffffff00000003000000016100000000000000056b65792d31",
    "scan_all@4294967295": "0000000685ffffffff00",
    "scan_full@4294967295": "0000001485ffffffff070000000161000000017a00000014",
    "scan_start_limit@4294967295": "0000000f85ffffffff05000000016100000000",
    "batch@4294967295": "0000002686ffffffff0000000301000000026b3100000002763100000000026b32010000000000000000",
    "op_stats@4294967295": "0000000587ffffffff",
    "op_ping@4294967295": "0000000588ffffffff",
    "op_health@4294967295": "0000000589ffffffff",
    "op_ready@4294967295": "000000058affffffff",
    "ok_value": "000000090076616c75652000ff",
    "ok_empty": "0000000100",
    "not_found": "0000000101",
    "values": "0000001a0000000005010000000276310001000000000001000000027600",
    "values_empty": "000000050000000000",
    "entries": "0000002c0000000003000000016100000001310000000000000000000000056b65792d310000000876616c75652000ff",
    "entries_empty": "000000050000000000",
    "retry_later": "00000015040000004b77726974652071756575652066756c6c",
    "retry_later_bare": "000000050400000000",
    "error": "0000001402756e6b6e6f776e206f70636f64652030783766",
    "deadline_exceeded": "0000001203646561646c696e65206578636565646564",
    "unavailable": "0000000905647261696e696e67",
}


def _frames() -> dict[str, bytes]:
    frames = {}
    for deadline_ms in (None, 0, 1500, 0xFFFFFFFF):
        suffix = "" if deadline_ms is None else f"@{deadline_ms}"
        requests = {
            "put": P.encode_put(b"key-1", b"value \x00\xff", deadline_ms),
            "get": P.encode_get(b"key-1", deadline_ms),
            "delete": P.encode_delete(b"key-1", deadline_ms),
            "multi_get": P.encode_multi_get([b"a", b"", b"key-1"], deadline_ms),
            "scan_all": P.encode_scan(None, None, None, deadline_ms),
            "scan_full": P.encode_scan(b"a", b"z", 20, deadline_ms),
            "scan_start_limit": P.encode_scan(b"a", None, 0, deadline_ms),
            "batch": P.encode_batch(
                [(P.BATCH_PUT, b"k1", b"v1"), (P.BATCH_DELETE, b"k2", b""),
                 (P.BATCH_PUT, b"", b"")],
                deadline_ms,
            ),
            **{
                name: P.encode_frame(code, b"", deadline_ms)
                for name, code in (
                    ("op_stats", P.OP_STATS), ("op_ping", P.OP_PING),
                    ("op_health", P.OP_HEALTH), ("op_ready", P.OP_READY),
                )
            },
        }
        frames.update({name + suffix: frame for name, frame in requests.items()})
    ok = P.STATUS_OK
    frames.update({
        "ok_value": P.encode_frame(ok, b"value \x00\xff"),
        "ok_empty": P.encode_frame(ok),
        "not_found": P.encode_frame(P.STATUS_NOT_FOUND),
        "values": P.encode_frame(ok, P.encode_values([b"v1", None, b"", None, b"v\x00"])),
        "values_empty": P.encode_frame(ok, P.encode_values([])),
        "entries": P.encode_frame(ok, P.encode_entries(
            [(b"a", b"1"), (b"", b""), (b"key-1", b"value \x00\xff")]
        )),
        "entries_empty": P.encode_frame(ok, P.encode_entries([])),
        "retry_later": P.encode_frame(
            P.STATUS_RETRY_LATER, P.encode_retry_hint(75, "write queue full")
        ),
        "retry_later_bare": P.encode_frame(P.STATUS_RETRY_LATER, P.encode_retry_hint(0)),
        "error": P.encode_frame(P.STATUS_ERROR, b"unknown opcode 0x7f"),
        "deadline_exceeded": P.encode_frame(P.STATUS_DEADLINE_EXCEEDED, b"deadline exceeded"),
        "unavailable": P.encode_frame(P.STATUS_UNAVAILABLE, b"draining"),
    })
    return frames


def test_every_frame_is_byte_identical_to_the_pinned_one():
    frames = _frames()
    assert sorted(frames) == sorted(GOLDEN)
    assert {name: frame.hex() for name, frame in frames.items()} == GOLDEN


def test_pinned_requests_decode_in_place():
    """Each pinned request frame decodes at the offset its head names to
    what it was built from, and each pinned reply at offset 1."""
    for suffix, deadline_ms in (("", None), ("@1500", 1500)):
        def head(name):
            body = bytes.fromhex(GOLDEN[name + suffix])[4:]
            opcode, start, got_deadline = P.decode_request(body)
            assert got_deadline == deadline_ms
            return opcode, body, start

        opcode, body, start = head("put")
        assert opcode == P.OP_PUT
        assert P.decode_put(body, start) == (b"key-1", b"value \x00\xff")
        opcode, body, start = head("multi_get")
        assert P.decode_multi_get(body, start) == [b"a", b"", b"key-1"]
        opcode, body, start = head("scan_full")
        assert P.decode_scan(body, start) == (b"a", b"z", 20)
        opcode, body, start = head("batch")
        assert P.decode_batch(body, start) == [
            (P.BATCH_PUT, b"k1", b"v1"), (P.BATCH_DELETE, b"k2", b""), (P.BATCH_PUT, b"", b"")
        ]
    values = bytes.fromhex(GOLDEN["values"])[4:]
    assert P.decode_values(values, 1) == [b"v1", None, b"", None, b"v\x00"]
    entries = bytes.fromhex(GOLDEN["entries"])[4:]
    assert P.decode_entries(entries, 1) == [
        (b"a", b"1"), (b"", b""), (b"key-1", b"value \x00\xff")
    ]
