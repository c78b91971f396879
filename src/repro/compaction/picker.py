"""Compaction picking: what to compact next, and why.

The picker is the *stateful* half of picking — it owns the per-level
round-robin compact pointers (journaled in the manifest) and the
seek-compaction candidate set fed by the read path — while the *strategy*
half (scoring, input selection, output placement, granularity) lives in a
pluggable :class:`~repro.compaction.policy.CompactionPolicy`
(DESIGN.md §14).  With the default :class:`LeveledPolicy` the combination
reproduces LevelDB's behavior bit-for-bit:

* **Size-triggered**: each level gets a score — L0 by file count against the
  trigger, deeper levels by live bytes against the exponential capacity.
  The highest score >= 1 wins.  Within a level, files are selected
  round-robin by a per-level *compact pointer* (the key where the previous
  compaction at that level stopped).
* **Seek-triggered** (LevelDB's seek compaction, which Section V-G shows
  matters for range scans): every file carries an ``allowed_seeks`` budget;
  lookups that touch a file fruitlessly decrement it, and a file whose
  budget hits zero is compacted into the next level.

L0 input selection — size- and seek-triggered alike — expands to the
transitive closure of overlapping L0 files, since L0 files may overlap one
another.

Policies may be swapped live via :meth:`CompactionPicker.set_policy` (the
online tuner's path).  Durable picker state — the compact pointers — stays
on the picker across the swap, so a switch needs no manifest write; seek
candidates the incoming policy would veto are dropped.
"""

from __future__ import annotations

import bisect

from ..core.version import LARGEST_USER_KEY, FileMetadata, Version
from ..options import Options
from .base import CompactionTask
from .policy import CompactionPolicy, make_policy


class CompactionPicker:
    """Stateful picker: owns the per-level compact pointers."""

    def __init__(self, options: Options, policy: CompactionPolicy | None = None):
        self._options = options
        self._policy = (
            policy
            if policy is not None
            else make_policy(options.compaction_policy, options)
        )
        self.compact_pointer: list[bytes] = [b""] * options.max_levels
        #: Files flagged by the read path for seek compaction.
        self._seek_candidates: dict[int, int] = {}  # file_number -> level

    # -- policy -------------------------------------------------------------------

    @property
    def policy(self) -> CompactionPolicy:
        return self._policy

    def set_policy(self, policy: CompactionPolicy) -> None:
        """Swap the picking strategy live (the tuner's transition step).

        The compact pointers survive as-is — they are positions in key
        space, valid under any policy, and remain manifest-journaled.
        Seek candidates at levels the incoming policy vetoes are dropped.
        """
        self._policy = policy
        for file_number, level in list(self._seek_candidates.items()):
            if not policy.allows_seek_compaction(level):
                del self._seek_candidates[file_number]

    # -- seek compaction feedback -----------------------------------------------

    def note_seek_exhausted(self, level: int, meta: FileMetadata) -> None:
        """Read path callback: ``meta``'s seek budget ran out."""
        if (
            self._options.enable_seek_compaction
            and level < self._options.max_levels - 1
            and self._policy.allows_seek_compaction(level)
        ):
            self._seek_candidates.setdefault(meta.file_number, level)

    def forget_file(self, file_number: int) -> None:
        self._seek_candidates.pop(file_number, None)

    @property
    def seek_candidates(self) -> dict[int, int]:
        return dict(self._seek_candidates)

    # -- scoring ------------------------------------------------------------------

    def level_score(self, version: Version, level: int) -> float:
        return self._policy.level_score(version, level)

    def pick(self, version: Version) -> CompactionTask | None:
        """The next compaction task, or None when nothing is due."""
        best_level = -1
        best_score = 1.0
        # The bottom level has no child to compact into.
        for level in range(version.num_levels - 1):
            score = self._policy.level_score(version, level)
            if score >= best_score:
                best_score = score
                best_level = level
        if best_level >= 0:
            parents = self._policy.select_parents(self, version, best_level)
            return self._build_task(version, best_level, parents, reason="size")
        return self._pick_seek_compaction(version)

    def _pick_seek_compaction(self, version: Version) -> CompactionTask | None:
        for file_number, level in list(self._seek_candidates.items()):
            for meta in version.files_at(level):
                if meta.file_number == file_number:
                    del self._seek_candidates[file_number]
                    # L0 files overlap: moving one down alone would sink it
                    # below an older file that still holds the same keys,
                    # and reads would return the older value.
                    parents = self.expand_level0(version, meta) if level == 0 else [meta]
                    return self._build_task(version, level, parents, reason="seek")
            # The file was compacted away in the meantime.
            del self._seek_candidates[file_number]
        return None

    # -- input selection (machinery shared by policies) ---------------------------

    def round_robin_file(self, version: Version, level: int) -> FileMetadata:
        """First file past the compact pointer at a sorted level (>= 1),
        wrapping (LevelDB policy)."""
        files = version.files_at(level)
        pointer = self.compact_pointer[level]
        idx = bisect.bisect_right(files, pointer, key=LARGEST_USER_KEY) if pointer else 0
        return files[idx] if idx < len(files) else files[0]

    def expand_level0(
        self, version: Version, seed: FileMetadata | None = None
    ) -> list[FileMetadata]:
        """``seed`` (default: the oldest L0 file) plus the transitive
        closure of L0 files overlapping it."""
        files = sorted(version.files_at(0), key=lambda f: f.file_number)
        chosen = [seed if seed is not None else files[0]]
        lo, hi = chosen[0].smallest_user_key, chosen[0].largest_user_key
        changed = True
        while changed:
            changed = False
            for meta in files:
                if meta in chosen:
                    continue
                if meta.overlaps_user_range(lo, hi):
                    chosen.append(meta)
                    lo = min(lo, meta.smallest_user_key)
                    hi = max(hi, meta.largest_user_key)
                    changed = True
        return chosen

    def _build_task(
        self, version: Version, level: int, parents: list[FileMetadata], reason: str
    ) -> CompactionTask:
        lo = min(f.smallest_user_key for f in parents)
        hi = max(f.largest_user_key for f in parents)
        children = version.overlapping_files(level + 1, lo, hi)
        return CompactionTask(
            parent_level=level,
            parent_files=parents,
            child_files=children,
            reason=reason,
        )

    def advance_pointer(self, task: CompactionTask) -> None:
        """Record where this compaction ended for round-robin fairness."""
        hi = max(f.largest_user_key for f in task.parent_files)
        self.compact_pointer[task.parent_level] = hi
