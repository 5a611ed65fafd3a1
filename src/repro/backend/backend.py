"""Commit-rate back-end (Section V-A).

"Each cycle, the back-end attempts to commit up to a given number of
instructions (commit rate) from its instruction queue." The commit rate is
the IPC measured with performance counters for the current code section,
injected into the traces as IPC records; modelling the back-end this way
isolates the front-end study from back-end design artefacts, exactly as
the paper does.

Fractional IPC values are honoured through a commit-credit accumulator:
an IPC of 0.6 yields three committed instructions every five cycles.

While a core sleeps, the scheduler accounts its elided back-end cycles
in batches that are bit-identical to stepping: :meth:`CommitEngine.
idle_steps` for an empty queue, and :meth:`CommitEngine.replay_steps`
for a commit/pacing trajectory that one planning walk
(:meth:`CommitEngine.replay_horizon`) sized ahead of time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import kernels
from repro.errors import SimulationError
from repro.utils import require_positive

#: Compiled credit-trajectory walk, or None on the pure-Python backend —
#: the planning/settlement methods below then run their inline loops.
#: One entry point serves the planning walk and the settlement, selected
#: by the ``REPLAY_*`` modes of :mod:`repro.kernels`.
_native_replay = kernels.replay_walk
_REPLAY_HORIZON = kernels.REPLAY_HORIZON
_REPLAY_STEPS = kernels.REPLAY_STEPS

#: Stall categories reported in the CPI stack (Fig. 8).
STALL_CAUSES = (
    "branch",
    "ibus_latency",
    "ibus_congestion",
    "icache_latency",
    "memory",
    "sync",
    "other",
)


@dataclass
class CommitStats:
    """Back-end accounting for one core."""

    committed: int = 0
    base_cycles: int = 0
    stall_cycles: dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in STALL_CAUSES}
    )

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.stall_cycles.values())

    @property
    def active_cycles(self) -> int:
        return self.base_cycles + self.total_stall_cycles

    def cpi(self) -> float:
        if self.committed == 0:
            return 0.0
        return self.active_cycles / self.committed


class CommitEngine:
    """Instruction queue + commit logic for one core."""

    def __init__(self, iq_capacity: int = 64, initial_ipc: float = 1.0) -> None:
        require_positive(iq_capacity, "iq_capacity")
        require_positive(initial_ipc, "initial_ipc")
        self.iq_capacity = iq_capacity
        self._iq_count = 0
        self._ipc = initial_ipc
        self._credit = 0.0
        self.stats = CommitStats()
        #: Compiled trajectory walks taken (0 on the pure-Python
        #: backend); surfaced through the kernel stats so the bench can
        #: assert the fast path engages.
        self.replay_walk_engaged = 0

    # -- instruction queue --------------------------------------------------

    @property
    def iq_count(self) -> int:
        return self._iq_count

    def iq_space(self) -> int:
        return self.iq_capacity - self._iq_count

    def iq_push(self, instructions: int) -> None:
        if instructions < 0:
            raise SimulationError(f"cannot push {instructions} instructions")
        if self._iq_count + instructions > self.iq_capacity:
            raise SimulationError(
                f"instruction queue overflow: {self._iq_count}+{instructions} "
                f"> {self.iq_capacity}"
            )
        self._iq_count += instructions

    # -- commit rate --------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self._ipc

    def set_ipc(self, ipc: float) -> None:
        """Retarget the commit rate (an IPC record in the trace)."""
        require_positive(ipc, "ipc")
        self._ipc = ipc

    # -- per-cycle step -------------------------------------------------------

    def step(self, now: int, stall_cause) -> int:
        """Attempt one commit cycle; return instructions committed.

        Args:
            stall_cause: the front-end's attribution, charged when the
                queue cannot cover an earned commit credit. Either the
                cause string itself, or a ``callable(now) -> str`` that
                is only invoked on a stall — committing cycles (the
                common case) then skip the attribution walk entirely.
        """
        self._credit += self._ipc
        commit = min(int(self._credit), self._iq_count)
        if commit > 0:
            self._iq_count -= commit
            self._credit -= commit
            self.stats.committed += commit
            self.stats.base_cycles += 1
            # Leftover credit beyond one cycle's worth does not bank: the
            # back-end cannot commit more than its width later.
            self._credit = min(self._credit, self._ipc)
            return commit
        if self._credit >= 1.0:
            # Earned a commit slot but had nothing to commit: a stall.
            if callable(stall_cause):
                stall_cause = stall_cause(now)
            if stall_cause == "finished":
                self.stats.base_cycles += 1
            else:
                cause = stall_cause if stall_cause in self.stats.stall_cycles else "other"
                self.stats.stall_cycles[cause] += 1
            self._credit = min(self._credit, max(1.0, self._ipc))
            return 0
        # Sub-unit IPC pacing: not a stall, the back-end is simply narrow.
        self.stats.base_cycles += 1
        return 0

    def replay_horizon(self, space_needed: int = 0, cap: int = 4096) -> int | None:
        """Relative cycle of the commit that drains the queue or frees room.

        The scheduler's one planning walk: with a non-empty queue and a
        quiescent front-end (no pushes, no IPC retargets), every coming
        back-end cycle is either a commit or sub-unit pacing — never a
        stall — until the queue drains, so the trajectory can be
        planned ahead and settled in one batch (:meth:`replay_steps`).
        This walks the same float credit trajectory :meth:`step` would
        produce and returns ``c`` such that the commit at ``now + c``
        is the first that either empties the queue or leaves
        ``space_needed`` free slots (``0``: no space gate, so ``c`` is
        the exact drain cycle). Every cycle in ``[now + 1, now + c]``
        is replayable.

        Returns ``None`` when the queue is empty (no commit stream to
        replay; the idle-window machinery owns that case) or when no
        such commit happens within ``cap`` cycles.
        """
        iq = self._iq_count
        if iq == 0:
            return None
        space_limit = self.iq_capacity - space_needed if space_needed else -1
        if _native_replay is not None:
            self.replay_walk_engaged += 1
            ahead = _native_replay(
                _REPLAY_HORIZON, self._credit, self._ipc, iq, cap,
                space_limit,
            )
            return ahead or None
        credit = self._credit
        ipc = self._ipc
        for ahead in range(1, cap + 1):
            credit += ipc
            commit = min(int(credit), iq)
            if commit:
                iq -= commit
                credit = min(credit - commit, ipc)
                if iq <= space_limit or iq == 0:
                    return ahead
        return None

    def replay_steps(self, cycles: int) -> tuple[int, int | None]:
        """Replay ``cycles`` consecutive commit/pacing steps at once.

        Equivalent to calling :meth:`step` ``cycles`` times while the
        queue stays non-empty: identical committed counts, base cycles
        and final commit-credit value (including float behaviour), so a
        batched settlement is bit-identical to a stepped run. The caller
        (the scheduler's commit-replay window) guarantees the window
        ends no later than one cycle past the drain; a stall cycle in
        the span means the window was mis-sized and the run would
        diverge from a stepped one.

        Returns ``(committed, last_commit_offset)`` where the offset is
        the 1-based position of the last committing cycle within the
        replayed span (``None`` when the span was pure pacing) — the
        watchdog needs the exact cycle progress was last made.
        """
        if _native_replay is not None:
            self.replay_walk_engaged += 1
            committed_total, base_cycles, last_commit, iq, credit, stalled = (
                _native_replay(
                    _REPLAY_STEPS, self._credit, self._ipc, self._iq_count,
                    cycles, -1,
                )
            )
            # The walk stops on a stall with the prefix state applied —
            # the stall cycle's credit earned, no base cycle charged —
            # exactly the state the stepped loop below raises from.
            self._iq_count = iq
            self._credit = credit
            self.stats.committed += committed_total
            self.stats.base_cycles += base_cycles
            if stalled:
                raise SimulationError(
                    "commit-replay window crossed a stall boundary"
                )
            return committed_total, last_commit if last_commit else None
        committed_total = 0
        last_commit = None
        for offset in range(1, cycles + 1):
            self._credit += self._ipc
            commit = min(int(self._credit), self._iq_count)
            if commit > 0:
                self._iq_count -= commit
                self._credit -= commit
                self.stats.committed += commit
                self.stats.base_cycles += 1
                self._credit = min(self._credit, self._ipc)
                committed_total += commit
                last_commit = offset
            elif self._credit >= 1.0:
                raise SimulationError(
                    "commit-replay window crossed a stall boundary"
                )
            else:
                self.stats.base_cycles += 1
        return committed_total, last_commit

    def idle_steps(self, cycles: int, stall_cause: str) -> None:
        """Account ``cycles`` consecutive :meth:`step` calls at once.

        The kernel's cycle-skipping fast path uses this instead of
        stepping an empty back-end cycle by cycle. The contract is exact
        equivalence with calling ``step(_, stall_cause)`` ``cycles``
        times while the instruction queue is empty: the same stall/base
        cycle counts and the same final commit-credit value (including
        float behaviour), so a skipped run is bit-identical to a stepped
        one.
        """
        if cycles <= 0:
            return
        if self._iq_count:
            raise SimulationError(
                "idle_steps requires an empty instruction queue "
                f"(have {self._iq_count})"
            )
        remaining = cycles
        # Warm-up: sub-unit pacing cycles until one commit credit is
        # earned. Replays step()'s repeated addition so the float credit
        # trajectory is identical.
        while remaining and self._credit + self._ipc < 1.0:
            self._credit += self._ipc
            self.stats.base_cycles += 1
            remaining -= 1
        if not remaining:
            return
        # Every remaining cycle earns a credit it cannot spend: step()
        # charges one stall cycle and clamps the credit. After the first
        # such cycle the credit is pinned at the clamp value exactly.
        cap = max(1.0, self._ipc)
        self._credit = min(self._credit + self._ipc, cap)
        if remaining > 1:
            self._credit = cap
        if stall_cause == "finished":
            self.stats.base_cycles += remaining
        else:
            cause = (
                stall_cause
                if stall_cause in self.stats.stall_cycles
                else "other"
            )
            self.stats.stall_cycles[cause] += remaining
