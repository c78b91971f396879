"""Pluggable compaction policies: the *picking* discipline (DESIGN.md §14).

The design-space literature ("Constructing and Analyzing the LSM Compaction
Design Space") separates four orthogonal knobs — trigger, data movement,
granularity, and picking — that classic engines hard-wire into one point.
This module factors the first, second and fourth out of
:class:`~repro.compaction.picker.CompactionPicker` into a
:class:`CompactionPolicy` object with two responsibilities:

* **scoring** (:meth:`CompactionPolicy.level_score`): when is a level due,
* **input selection** (:meth:`CompactionPolicy.select_parents`): which of
  its files move (always into the next level — the version invariant
  below admits no skips).

Granularity — which compaction *style* (table / block / selective) handles
a task — is not a policy's business: ``Options.compaction_style`` decides
it, through :meth:`~repro.core.db.DB.compaction_style_for`.

The engine keeps one structural invariant regardless of policy: levels >= 1
hold disjoint, sorted files (``Version._check_disjoint``), because the whole
read path — point-lookup bisects, Block Compaction's child addressing,
selective thresholds — is built on it.  Tiering is therefore expressed as a
**trigger + data-movement** policy over that invariant rather than as
overlapping sorted runs: a tiered level is allowed to overfill to
``TIERED_OVERFILL`` x its leveled capacity, and when it finally triggers the
*whole level* merges down at once.  Per byte landing in a level of fanout
``a`` this costs ~``1 + a/overfill`` rewrites instead of leveled's ~``a`` —
the same WA/read-cost trade tiering makes, with reads paying via the deeper,
overfull levels rather than via run fan-out.

Policies are in-memory strategy objects owned by the picker; they carry no
durable state (the round-robin compact pointers stay on the picker and stay
journaled in the manifest).  ``Options.compaction_policy`` picks one at
open, and it stays for the life of the open.
"""

from __future__ import annotations

from ..core.version import FileMetadata, Version
from ..errors import InvalidArgumentError
from ..options import (
    POLICY_LEVELED,
    POLICY_ONE_LEVELING,
    POLICY_TIERED,
    Options,
)

__all__ = [
    "CompactionPolicy",
    "LeveledPolicy",
    "TieredPolicy",
    "OneLevelingPolicy",
    "make_policy",
]

#: Tiered policies let a level grow to this many times its leveled
#: capacity before merging the whole level down — the write/read knob.
TIERED_OVERFILL = 4.0


class CompactionPolicy:
    """Strategy interface consulted by :class:`CompactionPicker`.

    Subclasses override :meth:`level_score` and :meth:`select_parents`;
    the seek default is shared.  The ``picker`` argument of
    :meth:`select_parents` exposes the stateful machinery policies compose
    with (round-robin pointers, L0 closure).
    """

    name = "abstract"

    def __init__(self, options: Options):
        self._options = options

    # -- scoring -----------------------------------------------------------

    def level_score(self, version: Version, level: int) -> float:
        """Compaction urgency of ``level``; >= 1.0 means due."""
        raise NotImplementedError

    # -- input selection ---------------------------------------------------

    def select_parents(
        self, picker, version: Version, level: int
    ) -> list[FileMetadata]:
        """The files of ``level`` that move in this compaction."""
        raise NotImplementedError

    # -- seek-compaction admission ----------------------------------------

    def allows_seek_compaction(self, level: int) -> bool:
        """Whether a seek-exhausted file at ``level`` may be compacted
        down.  Policies that pin data to fixed levels veto it."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class LeveledPolicy(CompactionPolicy):
    """LevelDB's policy — today's engine behavior, bit-identical.

    L0 scores by file count against the trigger; deeper levels by valid
    bytes against the exponential capacity.  L0 inputs expand to the
    transitive closure of overlapping L0 files; deeper levels pick one
    file round-robin past the compact pointer.
    """

    name = POLICY_LEVELED

    def level_score(self, version: Version, level: int) -> float:
        if level == 0:
            return len(version.files_at(0)) / self._options.level0_file_trigger()
        capacity = self._options.level_capacity_bytes(level)
        return version.level_valid_bytes(level) / capacity if capacity else 0.0

    def select_parents(
        self, picker, version: Version, level: int
    ) -> list[FileMetadata]:
        if level == 0:
            return picker.expand_level0(version)
        return [picker.round_robin_file(version, level)]


class TieredPolicy(CompactionPolicy):
    """Overfill-then-merge tiering over the disjoint-level invariant.

    Levels >= 1 only become due at ``TIERED_OVERFILL`` x their leveled
    capacity, and then the *whole level* merges into its child at once,
    amortizing the child rewrite across ``overfill`` x more parent bytes.
    L0 keeps the leveled trigger (it is bounded by the write-stall
    triggers) but merges its entire file set in one task.

    L0 is the one place the version invariant already permits real
    overlapping runs, so tiering uses it as such: the L0 trigger scales by
    ``TIERED_OVERFILL`` too — capped at the write-slowdown trigger, so the
    policy never parks the buffer where writers throttle — and the whole
    batch merges into L1 at once.  This is where most of tiering's win
    comes from: without it, every small L0 batch re-rewrites the overfull
    L1 (RocksDB's universal compaction raises the L0 trigger for the same
    reason).

    When the level's span overlaps nothing below it, the pick degrades to
    one round-robin file so the trivial-move fast path (a metadata-only
    re-link) still applies file by file.
    """

    name = POLICY_TIERED

    def level0_trigger(self) -> int:
        options = self._options
        trigger = options.level0_file_trigger()
        scaled = int(trigger * TIERED_OVERFILL)
        return max(trigger, min(scaled, options.level0_slowdown_writes_trigger))

    def level_score(self, version: Version, level: int) -> float:
        if level == 0:
            return len(version.files_at(0)) / self.level0_trigger()
        capacity = self._options.level_capacity_bytes(level) * TIERED_OVERFILL
        return version.level_valid_bytes(level) / capacity if capacity else 0.0

    def select_parents(
        self, picker, version: Version, level: int
    ) -> list[FileMetadata]:
        """The whole level (L0 included), or one round-robin file when the
        span overlaps nothing below (trivial-move degradation)."""
        files = list(version.files_at(level))
        if level > 0 and len(files) > 1:
            span = version.level_span(level)
            if span is not None and not version.overlapping_files(
                level + 1, span[0], span[1]
            ):
                # Nothing to merge against: move files down one at a time.
                return [picker.round_robin_file(version, level)]
        return files


class OneLevelingPolicy(CompactionPolicy):
    """1-leveling: all data lives in L0 plus one sorted run (L1).

    Only L0 ever scores; when it triggers, the whole L0 buffer merges into
    L1 in one task.  L1 never compacts down — it IS the database — so read
    cost is one L1 probe plus the L0 files, and write cost is one full-run
    rewrite per buffer flush (the classic sorted-array trade, cheapest at
    small datasets and the upper bound of the design space otherwise)."""

    name = POLICY_ONE_LEVELING

    def level_score(self, version: Version, level: int) -> float:
        if level != 0:
            return 0.0
        return len(version.files_at(0)) / self._options.level0_file_trigger()

    def select_parents(
        self, picker, version: Version, level: int
    ) -> list[FileMetadata]:
        return list(version.files_at(0))

    def allows_seek_compaction(self, level: int) -> bool:
        # Seek-compacting an L1 file would push data to L2, violating the
        # two-level shape; L0 files may still compact into the run.
        return level == 0


_POLICY_CLASSES = {
    POLICY_LEVELED: LeveledPolicy,
    POLICY_TIERED: TieredPolicy,
    POLICY_ONE_LEVELING: OneLevelingPolicy,
}


def make_policy(name: str, options: Options) -> CompactionPolicy:
    """Instantiate the policy called ``name`` over ``options``."""
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise InvalidArgumentError(f"unknown compaction_policy {name!r}") from None
    return cls(options)
