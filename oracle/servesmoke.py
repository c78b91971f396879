"""Smoke test of the server the CLI starts.

``python -m repro.serve`` opens a ``LocalFS`` store, whose I/O really
blocks, so every data request it serves hops to the executor pool — a
path no other harness drives.  This starts the CLI on a fresh directory
with ``--port 0``, reads the port it prints, drives mixed requests through
a :class:`ServeClient` while checking read-your-writes against a model,
then sends SIGTERM and requires exit status 0 and ``cancelled in-flight:
0`` in the server's output.

CLI::

    python -m oracle.servesmoke [--requests N] [--seed N]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from repro.serve import ServeClient

ROOT = Path(__file__).resolve().parents[1]
#: Keys the workload draws from: few enough that reads hit earlier writes.
KEYS = [b"smoke-%03d" % i for i in range(64)]


def _start_server(store: str) -> tuple[subprocess.Popen, queue.Queue]:
    """The CLI server as a child process; its output lines go to a queue."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.serve", "--root", store,
         "--shards", "2", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        with proc.stdout:
            for line in proc.stdout:
                lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return proc, lines


def _wait_for_port(lines: queue.Queue, output: list[str]) -> int:
    while True:
        line = lines.get(timeout=30)
        if line is None:
            raise RuntimeError("server exited before listening")
        output.append(line)
        found = re.search(r"listening on [^:\s]+:(\d+)", line)
        if found:
            return int(found.group(1))


async def _drive(port: int, requests: int, seed: int) -> dict:
    """Mixed requests with read-your-writes checks; returns the server's
    serve counters."""
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    client = await ServeClient("127.0.0.1", port).connect()
    try:
        for i in range(requests):
            key = rng.choice(KEYS)
            roll = rng.random()
            if roll < 0.4:
                value = b"v%d-" % i + bytes(rng.randrange(1, 200))
                await client.put(key, value)
                model[key] = value
            elif roll < 0.8:
                got = await client.get(key)
                if got != model.get(key):
                    raise AssertionError(
                        f"get({key!r}) = {got!r}, wrote {model.get(key)!r}"
                    )
            elif roll < 0.9:
                keys = rng.sample(KEYS, 8)
                got = await client.multi_get(keys)
                if got != [model.get(k) for k in keys]:
                    raise AssertionError(f"multi_get({keys!r}) disagrees with the writes")
            else:
                limit = rng.randrange(1, 20)
                got = await client.scan(key, None, limit)
                want = sorted((k, v) for k, v in model.items() if k >= key)[:limit]
                if got != want:
                    raise AssertionError(
                        f"scan({key!r}, limit={limit}) disagrees with the writes"
                    )
        return (await client.stats())["serve"]
    finally:
        await client.aclose()


def run(requests: int, seed: int) -> int:
    store = tempfile.mkdtemp(prefix="repro-servesmoke-")
    proc, lines = _start_server(store)
    output: list[str] = []
    try:
        port = _wait_for_port(lines, output)
        counters = asyncio.run(_drive(port, requests, seed))
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(store, ignore_errors=True)
    while (line := lines.get(timeout=5)) is not None:
        output.append(line)
    text = "".join(output)
    print(text, end="")
    print(f"servesmoke: {requests} requests, inline {counters['inline']}, "
          f"hopped {counters['hopped']}, exit status {status}")
    failures = []
    if status != 0:
        failures.append(f"exit status {status}")
    if "cancelled in-flight: 0" not in text:
        failures.append("drain cancelled in-flight requests (or never reported)")
    if counters["hopped"] == 0:
        failures.append("no request hopped to the pool")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: the CLI server served, drained and exited cleanly")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oracle.servesmoke",
        description="Serve, drive, SIGTERM and audit python -m repro.serve",
    )
    parser.add_argument("--requests", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return run(args.requests, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
