"""One acked-state model for every correctness checker.

:class:`Model` is a dict over the harness op vocabulary —
``("put", key, value)``, ``("delete", key)`` and ``("batch", [(kind, key,
value), ...])``; ``flush``, ``split`` and ``merge`` move bytes, not state,
so they are no-ops.  :meth:`Model.snapshot` freezes a copy that a checker
holds beside an engine snapshot.

:func:`recovery_violations` is the rule a store reopened after a crash
must pass, given the model of every acknowledged op and the op in flight
at the crash (``pending``):

1. **acked state is exact** — every key reads as the model says, deletes
   included: a key whose acknowledged delete was lost must not come back;
2. **the pending op is all-or-nothing** within each atomicity domain;
3. **the scan is exact** — a full scan succeeds (every block checksum
   verifies) and equals the model outside the pending op's keys: no lost
   key, no phantom;
4. **the catalog rule** (:func:`catalog_violations`) — each sorted level's
   files are disjoint, and every live file exists.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sharding import ShardedDB


class Model:
    """The user-visible state every acknowledged op built up."""

    def __init__(self, state: dict[bytes, bytes] | None = None):
        self.state: dict[bytes, bytes] = dict(state or {})

    def apply(self, op: tuple) -> None:
        """Land one acknowledged op."""
        kind = op[0]
        if kind == "put":
            self.state[op[1]] = op[2]
        elif kind == "delete":
            self.state.pop(op[1], None)
        elif kind == "batch":
            for entry_kind, key, value in op[1]:
                if entry_kind == "put":
                    self.state[key] = value
                else:
                    self.state.pop(key, None)

    def get(self, key: bytes) -> bytes | None:
        return self.state.get(key)

    def scan(
        self, lo: bytes | None = None, hi: bytes | None = None
    ) -> list[tuple[bytes, bytes]]:
        """The live pairs in ``[lo, hi)`` in key order (``None``: unbounded)."""
        return sorted(
            (key, value)
            for key, value in self.state.items()
            if (lo is None or lo <= key) and (hi is None or key < hi)
        )

    def snapshot(self) -> "Model":
        """A frozen copy: later ops on this model do not reach it."""
        return Model(self.state)

    @staticmethod
    def touched(op: tuple | None) -> list[bytes]:
        """The keys ``op`` writes, sorted (none for the no-op kinds)."""
        if op is None or op[0] not in ("put", "delete", "batch"):
            return []
        if op[0] == "batch":
            return sorted({key for _kind, key, _value in op[1]})
        return [op[1]]


def catalog_violations(engine) -> list[str]:
    """The catalog rule over a :class:`~repro.core.db.DB` or every shard of
    a :class:`ShardedDB`: files of a sorted level (L1+) do not overlap, and
    every file the version lists exists on the engine's filesystem."""
    shards = engine.shard_dbs() if isinstance(engine, ShardedDB) else [("", engine)]
    violations: list[str] = []
    for name, db in shards:
        where = f"shard {name} " if name else ""
        version = db.version
        for level in range(1, version.num_levels):
            files = version.files_at(level)
            for a, b in zip(files, files[1:]):
                if not a.largest_user_key < b.smallest_user_key:
                    violations.append(
                        f"{where}L{level} overlaps: {a.file_name()} ends at "
                        f"{a.largest_user_key!r}, {b.file_name()} starts at "
                        f"{b.smallest_user_key!r}"
                    )
        for level, meta in version.all_files():
            if not db.fs.exists(meta.file_name()):
                violations.append(f"{where}L{level} file {meta.file_name()} is missing")
    return violations


def recovery_violations(
    engine,
    model: Model,
    pending: tuple | None,
    keyspace: Iterable[bytes],
    atomic_group: Callable[[bytes], object] | None = None,
) -> list[str]:
    """Rules 1–4 (module docstring) against a reopened ``engine``; returns
    the violations, empty when the store recovered exactly.

    Rule 1 reads back every key of ``keyspace``, of the model and of the
    pending op.  ``atomic_group`` maps a key to its atomicity domain for
    rule 2 — None means one domain (a single engine, where a batch is one
    WAL record); the sharded harness passes the router's ``shard_for``,
    because a cross-shard batch commits one WAL record *per shard* and only
    per-shard atomicity is the contract."""
    violations: list[str] = []
    touched = set(Model.touched(pending))
    after = model.snapshot()
    if pending is not None:
        after.apply(pending)

    # 1. acked state is exact; a key the pending op touches may show
    #    either side of it.
    keys = sorted(set(keyspace) | model.state.keys() | touched)
    got = {key: engine.get(key) for key in keys}
    for key, value in got.items():
        old, new = model.get(key), after.get(key)
        if key not in touched:
            if value != old:
                violations.append(
                    f"acked state lost: {key!r} expected {old!r} got {value!r}"
                )
        elif value != old and value != new:
            violations.append(
                f"half-visible write: {key!r} is {value!r}, "
                f"expected old {old!r} or new {new!r}"
            )

    # 2. the pending op is all-or-nothing within each atomicity domain.
    domains: dict = {}
    for key in sorted(touched):
        if model.get(key) != after.get(key):
            group = atomic_group(key) if atomic_group is not None else 0
            domains.setdefault(group, []).append(key)
    for domain in domains.values():
        if len({got[key] == after.get(key) for key in domain}) > 1:
            violations.append(f"pending op split: keys {domain!r} mix old and new state")

    # 3. a full scan is clean and exact outside the pending op's keys.
    try:
        scanned = dict(engine.scan())
    except Exception as exc:  # noqa: BLE001 - any failure is a violation
        violations.append(f"scan failed: {type(exc).__name__}: {exc}")
    else:
        for key in sorted((scanned.keys() | model.state.keys()) - touched):
            if scanned.get(key) != model.get(key):
                violations.append(
                    f"scan disagrees: {key!r} expected {model.get(key)!r} "
                    f"got {scanned.get(key)!r}"
                )

    # 4. the catalog rule.
    violations.extend(catalog_violations(engine))
    return violations
