"""Fault injection: a programmable failure wrapper over any FileSystem.

:class:`FaultInjectionFS` wraps an inner :class:`~repro.storage.fs.FileSystem`
and interposes on every backend operation.  A :class:`FaultPolicy` decides,
deterministically (seeded), which operations fail and how:

* **transient vs. permanent** errors, per operation type (``append`` /
  ``read`` / ``sync`` / ``create`` / ``delete`` / ``rename``) and per file
  category (fnmatch pattern: ``*.log`` is the WAL, ``*.sst`` the tables,
  ``MANIFEST-*`` / ``CURRENT*`` the catalog);
* **error-after-N-ops** counters and seeded probabilities;
* **torn writes** — an append persists only a byte prefix before failing;
* **silent bit-flips** — a read returns corrupted data without an error;
* an explicit **crash**: every byte not covered by a ``sync()`` barrier is
  dropped (optionally leaving a torn prefix of the un-synced tail), after
  which all operations raise :class:`~repro.errors.SimulatedCrashError`
  until :meth:`FaultInjectionFS.heal` is called and the store reopened.

With no rules armed the wrapper is a pure pass-through: it shares the inner
filesystem's device model and stats object, so a fault-free run is
bit-identical — same file bytes, same simulated metrics — to running on
the inner filesystem directly (asserted by ``tests/test_fault_policies.py``).

Durability model (what ``crash()`` keeps):

* ``sync(name)`` snapshots the file's current content as durable;
* ``delete`` and ``rename`` are durable immediately (journaled metadata);
  a renamed file carries its durable snapshot with it — renaming a file
  that was never synced leaves nothing durable at the destination, which
  is exactly the write-ordering bug ``write_pointer`` must avoid;
* a created-but-never-synced file vanishes entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from ..errors import FileSystemError, SimulatedCrashError, TransientIOError
from .fs import FileSystem

#: Fault kinds.  ``transient`` raises :class:`TransientIOError` (the severity
#: engine retries); ``permanent`` raises :class:`FileSystemError` (hard).
KIND_TRANSIENT = "transient"
KIND_PERMANENT = "permanent"

#: Operation types a rule may target (plus ``*`` for all).
OPS = ("append", "read", "sync", "create", "delete", "rename")


@dataclass
class FaultRule:
    """One programmable fault.  See module docstring for the semantics."""

    op: str
    pattern: str = "*"
    kind: str = KIND_TRANSIENT
    #: Let this many matching operations succeed before injecting.
    after: int = 0
    #: Inject at most this many failures, then the fault "clears" (the rule
    #: deactivates — how auto-resume is exercised).  None = never clears.
    count: int | None = None
    #: Seeded-random gate applied per matching op (1.0 = always fire).
    probability: float = 1.0
    #: Appends persist a random byte prefix before failing (torn write).
    torn: bool = False
    #: Reads succeed but return data with one bit flipped (silent corruption).
    bitflip: bool = False
    # -- runtime counters --
    matched: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)

    def validate(self) -> None:
        if self.op != "*" and self.op not in OPS:
            raise ValueError(f"unknown fault op {self.op!r}")
        if self.kind not in (KIND_TRANSIENT, KIND_PERMANENT):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    @property
    def cleared(self) -> bool:
        """True once a counted rule has injected its full quota."""
        return self.count is not None and self.fired >= self.count


class FaultPolicy:
    """A set of :class:`FaultRule` plus the crash schedule.

    Deterministic: the same seed and the same operation sequence fire the
    same faults (the probability gate draws from one seeded RNG).
    """

    def __init__(
        self,
        rules: list[FaultRule] | None = None,
        *,
        seed: int = 0,
        crash_at_sync: int | None = None,
        torn_writes: bool = True,
    ):
        self.rules: list[FaultRule] = list(rules or [])
        for rule in self.rules:
            rule.validate()
        #: Crash at the Nth (0-indexed) ``sync`` call: durability stops one
        #: barrier short, and the caller sees :class:`SimulatedCrashError`.
        self.crash_at_sync = crash_at_sync
        #: Whether a crash may leave a torn byte-prefix of un-synced tails
        #: (False drops un-synced bytes exactly at the last barrier).
        self.torn_writes = torn_writes
        self.seed = seed
        self._rng = random.Random(seed)

    def fail(self, op: str, pattern: str = "*", **kwargs) -> FaultRule:
        """Arm one rule and return it (convenience constructor)."""
        rule = FaultRule(op=op, pattern=pattern, **kwargs)
        rule.validate()
        self.rules.append(rule)
        return rule

    def match(self, op: str, name: str) -> FaultRule | None:
        """First armed rule firing for this operation, if any (advances the
        matched/fired counters of the rule it consults)."""
        for rule in self.rules:
            if rule.op != "*" and rule.op != op:
                continue
            if not fnmatchcase(name, rule.pattern):
                continue
            if rule.cleared:
                continue
            rule.matched += 1
            if rule.matched <= rule.after:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            return rule
        return None

    def clear(self) -> None:
        """Disarm every rule (faults 'clear'; the crash schedule stays)."""
        self.rules.clear()


class FaultInjectionFS(FileSystem):
    """Failure-wrapping filesystem; see module docstring.

    Shares the inner filesystem's :class:`DeviceModel` and :class:`IOStats`
    so all accounting is identical to running on the inner FS directly.
    """

    def __init__(self, inner: FileSystem, policy: FaultPolicy | None = None):
        super().__init__(inner.device, inner.stats, realtime=inner.realtime)
        self.inner = inner
        self.policy = policy or FaultPolicy()
        #: Durable snapshot per file: content as of its last ``sync``.
        self._durable: dict[str, bytes] = {}
        self._sync_calls = 0
        self._crashed = False

    @property
    def blocking(self) -> bool:
        return self.inner.blocking

    # -- fault plumbing ----------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def sync_points(self) -> int:
        """Sync barriers seen so far — the crash-point address space."""
        return self._sync_calls

    def _check_crashed(self) -> None:
        if self._crashed:
            raise SimulatedCrashError("filesystem is crashed; heal() to recover")

    def _maybe_fault(self, op: str, name: str) -> FaultRule | None:
        """Consult the policy; raise for error rules, return flip/torn rules."""
        rule = self.policy.match(op, name)
        if rule is None:
            return None
        if rule.bitflip or rule.torn:
            return rule
        self._raise_fault(rule, op, name)
        return None  # pragma: no cover - _raise_fault always raises

    def _raise_fault(self, rule: FaultRule, op: str, name: str) -> None:
        if rule.kind == KIND_TRANSIENT:
            raise TransientIOError(
                f"injected transient {op} fault on {name!r} "
                f"(failure {rule.fired}{'/' + str(rule.count) if rule.count else ''})"
            )
        raise FileSystemError(f"injected permanent {op} fault on {name!r}")

    def _snapshot(self, name: str) -> bytes:
        size = self.inner.file_size(name)
        return self.inner._read(name, 0, size) if size else b""

    # -- crash / heal ------------------------------------------------------

    def crash(self) -> None:
        """Drop every un-synced byte and enter the crashed state.

        Files never synced vanish; synced files roll back to their last
        barrier — except that, with ``policy.torn_writes``, a seeded random
        byte-prefix of the un-synced tail may survive (a torn write).
        All subsequent operations raise :class:`SimulatedCrashError` until
        :meth:`heal`.
        """
        with self._lock:
            self._do_crash()

    def _do_crash(self) -> None:
        rng = random.Random(self.policy.seed ^ (0x5EED ^ self._sync_calls))
        for name in list(self.inner.list_dir()):
            durable = self._durable.get(name)
            current = self._snapshot(name)
            kept = durable if durable is not None else b""
            if (
                self.policy.torn_writes
                and len(current) > len(kept)
                and current[: len(kept)] == kept
            ):
                kept = current[: len(kept) + rng.randint(0, len(current) - len(kept))]
            if kept == current:
                continue
            self.inner._delete(name)
            if durable is None and not kept:
                continue  # never durable: the file vanishes entirely
            self.inner._create(name)
            if kept:
                self.inner._append(name, kept)
        self._crashed = True

    def heal(self) -> None:
        """Leave the crashed state: what survived the crash becomes the new
        durable base, the crash schedule is disarmed, and the store can be
        reopened on this same filesystem."""
        with self._lock:
            self.policy.crash_at_sync = None
            self._durable = {name: self._snapshot(name) for name in self.inner.list_dir()}
            self._crashed = False

    # -- overridden durability barrier ------------------------------------

    def sync_file(self, name: str) -> None:
        """Durability barrier: snapshot ``name``'s current bytes as the
        content a crash will preserve.  Each call is one *sync point* —
        ``crash_at_sync`` fires here, before the barrier lands, and sync
        faults from the policy are raised before anything becomes durable."""
        with self._lock:
            self._check_crashed()
            if not self.inner.exists(name):
                raise FileSystemError(f"sync of missing file {name!r}")
            index = self._sync_calls
            self._sync_calls += 1
            if self.policy.crash_at_sync is not None and index == self.policy.crash_at_sync:
                self._do_crash()
                raise SimulatedCrashError(f"simulated crash at sync point {index}")
            self._maybe_fault("sync", name)
            self.stats.syncs += 1
            self.inner._sync(name)
            self._durable[name] = self._snapshot(name)

    # -- backend ops (fault-checked delegation) ----------------------------

    def _create(self, name: str) -> None:
        self._check_crashed()
        self._maybe_fault("create", name)
        self.inner._create(name)

    def _append(self, name: str, data: bytes) -> None:
        self._check_crashed()
        rule = self._maybe_fault("append", name)
        if rule is not None and rule.torn:
            prefix = random.Random(self.policy.seed ^ rule.fired).randrange(len(data)) if data else 0
            if prefix:
                self.inner._append(name, data[:prefix])
            self._raise_fault(rule, "append", name)
        self.inner._append(name, data)

    def _read(self, name: str, offset: int, nbytes: int) -> bytes:
        self._check_crashed()
        rule = self._maybe_fault("read", name)
        data = self.inner._read(name, offset, nbytes)
        if rule is not None and rule.bitflip and data:
            rng = random.Random(self.policy.seed ^ (rule.fired * 0x9E3779B1))
            pos = rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[pos] ^= 1 << rng.randrange(8)
            return bytes(corrupted)
        return data

    def _delete(self, name: str) -> None:
        self._check_crashed()
        self._maybe_fault("delete", name)
        self.inner._delete(name)
        self._durable.pop(name, None)

    def rename(self, old: str, new: str) -> None:
        """Atomic rename that moves durability along with the name: a synced
        source keeps its durable snapshot under the new name, while renaming
        a never-synced file over an existing destination drops the
        destination's durability (the CURRENT-swap bug class)."""
        with self._lock:
            self._check_crashed()
            self._maybe_fault("rename", old)
            self.inner.rename(old, new)
            if old in self._durable:
                self._durable[new] = self._durable.pop(old)
            else:
                # Destination overwritten by a never-synced source: nothing
                # durable remains there (sync-before-rename or lose it).
                self._durable.pop(new, None)

    def _truncate(self, name: str, size: int) -> None:
        self._check_crashed()
        self.inner._truncate(name, size)
        durable = self._durable.get(name)
        if durable is not None and len(durable) > size:
            self._durable[name] = durable[:size]

    def _sync(self, name: str) -> None:  # pragma: no cover - sync_file overridden
        self.inner._sync(name)

    def exists(self, name: str) -> bool:
        self._check_crashed()
        return self.inner.exists(name)

    def list_dir(self) -> list[str]:
        self._check_crashed()
        return self.inner.list_dir()

    def file_size(self, name: str) -> int:
        self._check_crashed()
        return self.inner.file_size(name)
