"""Online workload-adaptive compaction tuning (DESIGN.md §14).

No static compaction policy wins across workloads: tiering is cheapest
under write bursts, leveling under read pressure (the design-space result
the ``compaction_policies`` bench matrix reproduces).  The
:class:`CompactionTuner` closes the loop at runtime: it watches the
operation mix and stall events the engine already counts — over a sliding
window of ``Options.tuner_window_ops`` operations — and switches the live
:class:`~repro.compaction.policy.CompactionPolicy` (and the per-level
block-vs-table granularity overrides) when the workload shifts.  A mixed
window holds whatever policy is running.

State machine (per evaluated window)::

    desired = decide(window mix)
    desired == current        -> reset pending, stay
    desired == pending        -> agree += 1
    desired != pending        -> pending = desired, agree = 1
    agree >= hysteresis and ops_since_switch >= cooldown -> SWITCH

Hysteresis (``tuner_hysteresis_windows`` consecutive agreeing windows) plus
the switch cooldown (``tuner_cooldown_ops``) keep the tuner from flapping
on noisy or alternating mixes; a steady workload converges to one policy
after at most one switch and then never moves again.

The **transition protocol** is delegated to
:meth:`~repro.core.db.DB.switch_compaction_policy`: quiesce the background
scheduler (its counted pause/resume drains any in-flight compaction — the
same discipline manual compactions use), swap the picker's policy object
under the engine lock, migrate picker state (compact pointers survive
untouched; seek candidates the new policy vetoes are dropped), resume, and
nudge the scheduler since the new policy may consider work due immediately.
Policies are not persisted — ``Options.compaction_policy`` seeds the picker
at open — so a crash mid-transition is indistinguishable from a restart
with the old options: no recovery work, no new manifest record.

The tuner itself is thread-safe and lock-leaf: ``record_op`` takes only the
tuner's own lock (the hot path is one decrement), and the window evaluation
reads engine counters without the engine lock — approximate reads are fine
for a heuristic.  The policy switch is issued after the tuner lock is
released, so tuner -> scheduler/engine lock ordering never inverts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..options import (
    COMPACTION_BLOCK,
    COMPACTION_TABLE,
    POLICY_LEVELED,
    POLICY_TIERED,
    Options,
)

#: Operation-mix fraction above which a window counts as write- or
#: read-dominated (the thresholds the decision rules below key off).
WRITE_HEAVY_FRACTION = 0.7
READ_HEAVY_FRACTION = 0.7
#: With observed stalls, write pressure dominates earlier.
STALLED_WRITE_FRACTION = 0.5


@dataclass
class WindowStats:
    """Counter deltas over one tuner window."""

    writes: int = 0
    gets: int = 0
    scans: int = 0
    stalls: int = 0

    @property
    def ops(self) -> int:
        return self.writes + self.gets + self.scans


@dataclass
class TunerDecision:
    """What one window evaluation wants the engine to run."""

    policy: str
    granularity: dict[int, str] = field(default_factory=dict)
    reason: str = ""


def decide(window: WindowStats, options: Options, current: str) -> TunerDecision:
    """Map one window's mix to a desired policy + granularity (pure —
    the unit the hysteresis tests drive directly).

    * write burst (or stalls under mixed writes) -> **tiered**, with block
      appends at the middle levels to shed even more write amplification;
    * read-heavy -> **leveled**, table rewrites everywhere so every level
      stays fully sorted for scans and point reads;
    * mixed -> the **current** policy: neither side dominates, so the
      window gives no reason to pay for a transition.
    """
    ops = window.ops
    if ops == 0:
        return TunerDecision(policy=current, reason="idle window")
    write_frac = window.writes / ops
    read_frac = (window.gets + window.scans) / ops
    if write_frac >= WRITE_HEAVY_FRACTION or (
        window.stalls > 0 and write_frac >= STALLED_WRITE_FRACTION
    ):
        return TunerDecision(
            policy=POLICY_TIERED,
            granularity={
                level: COMPACTION_BLOCK for level in range(1, options.max_levels - 1)
            },
            reason=f"write-heavy ({write_frac:.0%} writes, {window.stalls} stalls)",
        )
    if read_frac >= READ_HEAVY_FRACTION:
        return TunerDecision(
            policy=POLICY_LEVELED,
            granularity={level: COMPACTION_TABLE for level in range(options.max_levels)},
            reason=f"read-heavy ({read_frac:.0%} reads)",
        )
    return TunerDecision(
        policy=current,
        reason=f"mixed ({write_frac:.0%} writes, {read_frac:.0%} reads)",
    )


class CompactionTuner:
    """Sliding-window policy tuner bound to one :class:`~repro.core.db.DB`."""

    def __init__(self, db):
        self._db = db
        options = db.options
        self._options = options
        self._window_ops = options.tuner_window_ops
        self._hysteresis = options.tuner_hysteresis_windows
        self._cooldown = options.tuner_cooldown_ops
        self._lock = threading.Lock()
        self._countdown = self._window_ops
        self._ops_since_switch = 0
        self._pending: str | None = None
        self._agree = 0
        self._baseline = self._snapshot()
        #: Introspection counters (exported via ``DB.debug_string``).
        self.windows_evaluated = 0
        self.switches = 0
        self.last_decision: TunerDecision | None = None

    # -- window accounting -------------------------------------------------

    def _snapshot(self) -> tuple[int, int, int, int]:
        stats = self._db.stats
        return (
            stats.user_writes + stats.user_deletes,
            stats.gets,
            stats.scans,
            stats.stall_events,
        )

    def record_op(self) -> None:
        """Hot-path hook: one op completed.  Cheap (a guarded decrement)
        until a window boundary, where the mix is evaluated."""
        switch: TunerDecision | None = None
        with self._lock:
            self._countdown -= 1
            self._ops_since_switch += 1
            if self._countdown > 0:
                return
            self._countdown = self._window_ops
            switch = self._evaluate_locked()
        if switch is not None:
            self._apply(switch)

    def _evaluate_locked(self) -> TunerDecision | None:
        """One window evaluation; returns a decision iff a switch is due."""
        current = self._db.picker.policy.name
        now = self._snapshot()
        base = self._baseline
        self._baseline = now
        window = WindowStats(
            writes=now[0] - base[0],
            gets=now[1] - base[1],
            scans=now[2] - base[2],
            stalls=now[3] - base[3],
        )
        self.windows_evaluated += 1
        decision = decide(window, self._options, current)
        self.last_decision = decision
        if decision.policy == current:
            self._pending = None
            self._agree = 0
            return None
        if decision.policy == self._pending:
            self._agree += 1
        else:
            self._pending = decision.policy
            self._agree = 1
        if self._agree < self._hysteresis:
            return None
        if self._ops_since_switch < self._cooldown and self.switches > 0:
            return None
        self._pending = None
        self._agree = 0
        self._ops_since_switch = 0
        return decision

    def _apply(self, decision: TunerDecision) -> None:
        switched = self._db.switch_compaction_policy(
            decision.policy,
            granularity=decision.granularity,
            reason=decision.reason,
        )
        if switched:
            with self._lock:
                self.switches += 1

    # -- introspection -----------------------------------------------------

    def debug_state(self) -> dict:
        """Snapshot of the tuner's state machine (``DB.debug_string``)."""
        with self._lock:
            return {
                "policy": self._db.picker.policy.name,
                "windows": self.windows_evaluated,
                "switches": self.switches,
                "pending": self._pending,
                "agree": self._agree,
                "last_reason": (
                    self.last_decision.reason if self.last_decision else ""
                ),
            }
