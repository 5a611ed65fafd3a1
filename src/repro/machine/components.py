"""Per-core kernel components shared by every machine model (ready/wake).

The stepped engine's per-cycle order of operations (front-ends, shared
interconnects, back-ends) maps onto one
:class:`~repro.engine.kernel.ScheduledComponent` per core and one per
shared interconnect group. A :class:`CoreComponent` is registered with
two step points — its front-end before the interconnects, its back-end
after them — so the :class:`~repro.engine.SimulationKernel` steps the
same operations in the same order while keeping one ready flag, one
timer and one sleep plan per core. The components are machine-neutral:
any model built from cores, cache groups and shared interconnects (the
ACMP, the symmetric CMP) registers the same classes and gets sleep/wake
+ clock jumps for free.

A core's sleep plan makes one decision per cycle and sets the window it
opens right there:

* **front-end-only nap** — the back-end is committing (or about to),
  so the unit stays live and keeps exact per-cycle credit/stall
  accounting, while the stalled front-end skips its steps until
  ``front_wake_at``. If the front-end's only enabler is
  instruction-queue room (``space_gated``), the commit that frees it
  ends the nap; otherwise a fill event, runtime hand-off or the cycle
  itself does. No kernel deregistration is involved.
* **unit idle sleep** — the queue is empty and the front-end certified
  a quiescent window: the core sleeps, and the elided back-end cycles
  are batch-charged to the stall cause observed at the window start
  (:meth:`~repro.backend.backend.CommitEngine.idle_steps`). When an
  in-flight line request changes lifecycle state mid-window (bus
  grant, cache access), the port's ``stall_listener`` settles the old
  cause up to the transition cycle and re-pins — the piecewise charge
  matches a stepped run's per-cycle attribution exactly. A blocked core
  sleeps this way with the cause pinned to ``"sync"`` until the runtime
  coordinator's barrier/lock hand-off listener wakes it.
* **commit-replay sleep** — the front-end is quiescent and the queue is
  non-empty: every coming back-end cycle is a commit or sub-unit pacing
  step (never a stall) until the queue drains, and the whole trajectory
  is deterministic (no pushes, no IPC retargets while the front-end
  sleeps). The core sleeps across a window bounded by the front-end's
  own wake (cycles-to-next-fetch-need: fills, redirect and iTLB timers,
  runtime hand-offs cut it short), the cycle a space-gated front-end
  must re-act, the cycle after the queue drains, and the deadlock
  watchdog's firing horizon; on wake the elided commits are
  batch-settled (:meth:`~repro.backend.backend.CommitEngine.
  replay_steps`) and the cycle of the last replayed commit is reported
  to the kernel (:meth:`~repro.engine.SimulationKernel.note_progress`)
  so the watchdog still fires at the stepped engine's exact cycle.
* **redirect-replay sleep** — a mispredicted branch is draining and the
  FTQ is already empty: nothing can fill, issue or extract until fetch
  resumes, so the remaining trajectory is fully decided — commits to
  the exact drain cycle, the drain-complete transition the front-end
  would perform one cycle later (:meth:`~repro.frontend.engine.
  FetchEngine.begin_redirect` replays it), then pure ``"branch"``
  stalls until the mispredict penalty elapses. The core sleeps to the
  fetch-resume cycle and the whole span settles in one batch, bounded
  by the same guards as commit replay (the watchdog's firing horizon
  caps it, the front-end's own wake — iTLB timers — cuts it short).
  The elided penalty stalls are surfaced through
  :attr:`~repro.engine.kernel.KernelStats.redirect_cycles_batched`.

A finished core sleeps without a window — a stepped run does nothing
for it either. Every mode is conservative: a core that cannot prove
quiescence simply stays on the run list, which is always equivalent
(its steps are no-ops, exactly as in the reference engine).

Settlement is re-entrant: a window may be settled piecewise before its
wake and every elided cycle is still charged exactly once. That is what
keeps cross-core reads exact. The ICOUNT arbiter reads a core's queue
count mid-cycle, while the shared interconnects step; it reads through
:meth:`CoreComponent.observed_iq_count`, which first settles the open
window up to the current cycle — exactly the back-end steps a stepped
run has made by then.

Both replay windows are planned by one walk
(:meth:`~repro.backend.backend.CommitEngine.replay_horizon`: the commit
that drains the queue or frees the needed room) and settled by one
(:meth:`~repro.backend.backend.CommitEngine.replay_steps`), both over
the :class:`~repro.backend.backend.CommitEngine`'s deterministic float
credit trajectory; on the compiled kernel backend each walk runs as one
``repro.kernels.replay_walk`` call (bit-identical float additions), and
the calls taken are surfaced through
:attr:`~repro.engine.kernel.KernelStats.replay_walk_engaged`.

:class:`GroupInterconnectComponent` sleeps whenever no grant is
possible: a bus charges a transfer's whole occupancy when it grants it
(the overhang past the run's last cycle is subtracted once, at result
collection), so a bus that is only draining a transfer has nothing to
do per cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import NEVER
from repro.engine.kernel import MIN_TIMER_NAP
from repro.obs.timeline import SIM_PID
from repro.runtime.threads import ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import SimulationKernel
    from repro.frontend.ports import SharedIcacheGroup
    from repro.machine.system import Core

#: CoreComponent back-end window kinds.
_NO_WINDOW = "none"
_IDLE = "idle"
_REPLAY = "replay"
_REDIRECT = "redirect"

#: Longest commit-replay look-ahead (cycles). Bounds the planning walk;
#: a window that neither drains nor hits a wake inside it simply ends
#: there and re-plans.
REPLAY_CAP = 4096


class CoreComponent:
    """One core as one scheduled unit: front-end and back-end steps plus
    the sleep decision that covers both."""

    __slots__ = (
        "core",
        "kernel",
        "window",
        "settled_to",
        "cause",
        "front_wake_at",
        "front_space_needed",
        "_redirect_boundary",
    )

    def __init__(self, core: Core, kernel: SimulationKernel) -> None:
        self.core = core
        self.kernel = kernel
        #: Back-end accounting window; not _NO_WINDOW implies the unit
        #: is off the run list and owes batched cycles from settled_to.
        self.window = _NO_WINDOW
        self.settled_to = 0
        self.cause = "other"
        #: The front-end step is skipped while ``now < front_wake_at``
        #: (a front-end-only nap behind a live back-end).
        self.front_wake_at = 0
        #: IQ room that ends a front-end-only nap early: the back-end
        #: wakes the front-end at the first commit reaching it.
        self.front_space_needed = 0
        #: Absolute cycle a redirect-replay window's drain-complete
        #: transition happens at (the cycle after the drain commit).
        self._redirect_boundary = 0
        tracer = kernel.tracer
        if tracer is not None:
            tracer.set_thread_name(
                SIM_PID, 1000 + core.core_id, f"core{core.core_id}:replay-windows"
            )

    # -- step points (front-end before the interconnects, back-end after) --

    def step_front(self, now: int) -> int:
        if now >= self.front_wake_at:
            self.core.frontend.step(now)  # no-op unless RUNNING
        return 0

    def step_back(self, now: int) -> int:
        core = self.core
        state = core.context.state
        if state is ThreadState.FINISHED:
            return 0
        if state is ThreadState.BLOCKED:
            core.backend.step(now, "sync")
            return 0
        # Pass the attribution lazily: it is only evaluated on a stall,
        # so committing cycles skip the FTQ walk.
        backend = core.backend
        committed = backend.step(now, core.frontend.stall_cause)
        if committed:
            needed = self.front_space_needed
            if needed and backend.iq_space() >= needed:
                # The commit freed the room the napping front-end waits
                # for; it acts next cycle, exactly when a stepped run's
                # would.
                self.wake_front()
        return committed

    # -- wakes ---------------------------------------------------------------

    def wake_front(self) -> None:
        """End a front-end-only nap at the front-end's next step point."""
        self.front_wake_at = 0
        self.front_space_needed = 0

    def wake(self) -> None:
        """A fill or runtime hand-off: both halves of the core act again."""
        self.wake_front()
        self.kernel.wake(self)

    # -- sleep decision (once per core per cycle) ----------------------------

    def sleep_plan(self, now: int) -> int | None:
        """The core's wake cycle, or None to stay on the run list.

        Applies the kernel's :data:`MIN_TIMER_NAP` floor itself, so a
        returned cycle always deregisters the unit and the window it
        opens is set here, where it is decided.
        """
        core = self.core
        state = core.context.state
        if state is ThreadState.RUNNING:
            frontend = core.frontend
            backend = core.backend
            front_napping = self.front_wake_at > now
            if backend.iq_count and not frontend.idle_step and not front_napping:
                # The front-end just did work and the back-end is
                # draining: nothing here sleeps long enough to pay for
                # the full probe. A napping front-end is probed
                # regardless — its last recorded step is stale, and the
                # draining back-end behind it is exactly what the
                # commit-replay window elides. (Empty-queue cores are
                # always probed: their idle windows are what empties
                # the ready set and lets the clock jump, and a
                # one-cycle-late onset there would cost a skipped cycle
                # per window.)
                return None
            wake_at, space_needed = frontend.sleep_state(now + 1)
            if wake_at is None:
                return None  # the front-end acts next cycle
            if backend.iq_count:
                # Commit replay: with the front-end quiescent the whole
                # commit trajectory is deterministic, so the core sleeps
                # across it and the elided commits settle in one batch
                # on wake. The window never outlives the front-end's
                # own wake (a stepped front-end could act there), the
                # cycle a space-gated front-end must re-act, the drain
                # point (the next cycle would stall, which needs live
                # attribution), or the watchdog's firing cycle
                # (settlement must note elided progress before the
                # firing check).
                kernel = self.kernel
                guard = kernel.last_progress + kernel.stall_limit + 1
                bound = min(wake_at, guard) - now
                if bound >= MIN_TIMER_NAP:
                    # Redirect replay: a mispredict drain with an empty
                    # FTQ pins the whole remaining trajectory — commits
                    # to the drain, one drain-complete transition, then
                    # pure "branch" stalls until the penalty elapses.
                    # Fuse all three into one window ending at the
                    # fetch-resume cycle; the drain must land
                    # unambiguously inside the bound so the transition
                    # (and the batched progress note) settles before
                    # the watchdog's firing check.
                    penalty = frontend.redirect_replay_penalty()
                    if penalty is not None:
                        drain_cap = min(bound - 1 - penalty, REPLAY_CAP)
                        if drain_cap >= 1:
                            drain = backend.replay_horizon(cap=drain_cap)
                            if drain is not None:
                                resume = drain + 1 + penalty
                                if resume >= MIN_TIMER_NAP:
                                    self._redirect_boundary = now + drain + 1
                                    return self._open(
                                        _REDIRECT, now, now + resume
                                    )
                    # Wake one cycle after the commit that drains the
                    # queue or frees the front-end's room (a live
                    # back-end would wake the front-end there), else at
                    # the cap; the cap stays one short of the bound so
                    # that wake never passes it.
                    cap = min(bound - 1, REPLAY_CAP)
                    trigger = backend.replay_horizon(space_needed, cap)
                    horizon = cap if trigger is None else trigger + 1
                    if horizon >= MIN_TIMER_NAP:
                        return self._open(_REPLAY, now, now + horizon)
                # The back-end commits imminently: keep it live (exact
                # per-cycle credit and stall attribution) and nap the
                # front-end alone; the back-end ends the nap at the
                # commit whose freed room first reaches the needed
                # threshold. A nap already running keeps its terms.
                if not front_napping and wake_at - now >= MIN_TIMER_NAP:
                    self.front_wake_at = wake_at
                    self.front_space_needed = space_needed
                return None
            return self._open(
                _IDLE, now, wake_at, frontend.stall_cause(now + 1)
            )
        if state is ThreadState.BLOCKED:
            # Blocked implies a drained pipeline (empty FTQ and IQ);
            # every elided back-end cycle charges "sync", and the
            # runtime coordinator wakes us on the hand-off.
            return self._open(_IDLE, now, NEVER, "sync")
        # A stepped run does nothing for a finished core either.
        return self._open(_NO_WINDOW, now, NEVER)

    def _open(
        self, window: str, now: int, wake_at: int, cause: str = "other"
    ) -> int | None:
        """Sleep until ``wake_at`` with ``window`` open, unless the nap is
        too short to pay for the bookkeeping."""
        if wake_at - now < MIN_TIMER_NAP:
            return None
        self.window = window
        self.cause = cause
        self.settled_to = now + 1
        return wake_at

    # -- back-end window lifecycle ---------------------------------------------

    def on_wake(self, now: int) -> None:
        window = self.window
        self.settle(now)
        self.window = _NO_WINDOW
        if window is _REPLAY:
            # The front-end napped on queue room before this window
            # opened around it. A live back-end would have woken it at
            # the commit whose freed room first reached the threshold;
            # the replay wake lands one cycle after that commit by
            # construction, so waking the front-end now has it step on
            # exactly the cycle a stepped run's would.
            needed = self.front_space_needed
            if needed and self.core.backend.iq_space() >= needed:
                self.wake_front()
        elif window is _REDIRECT:
            # The window outlived the front-end's own wake promise (the
            # drain-complete transition was replayed on its behalf), so
            # on any close — the planned fetch-resume cycle or an early
            # wake — hand control back to a live front-end and let it
            # re-plan; a spurious wake is merely a no-op step.
            self.wake_front()

    def settle(self, now: int) -> None:
        """Batch-account the elided back-end cycles ``[settled_to, now)``.

        Re-entrant: a window may be settled piecewise (a mid-window read
        of the queue, a stall transition) and then again on wake; every
        elided cycle is charged exactly once.
        """
        start = self.settled_to
        if self.window is _NO_WINDOW or now <= start:
            return
        if self.window is _IDLE:
            self.core.backend.idle_steps(now - start, self.cause)
        elif self.window is _REPLAY:
            self._replay(start, now - start)
        else:
            boundary = self._redirect_boundary
            if start < boundary:
                # Phase 1 — commits/pacing up to the drain: the boundary
                # is the cycle after the planned drain commit, so the
                # span up to it never crosses a stall.
                self._replay(start, min(now, boundary) - start)
                if now >= boundary:
                    # The drain-complete transition a stepped front-end
                    # performs at the boundary cycle, replayed by the
                    # settlement that first reaches it.
                    self.core.frontend.begin_redirect(boundary)
                start = boundary
            if now > start:
                # Phase 2 — pure "branch" stalls until the penalty
                # elapses (an early wake settles the prefix; the cause
                # stays pinned).
                idle = now - start
                self.core.backend.idle_steps(idle, "branch")
                self.kernel.stats.redirect_cycles_batched += idle
                self._trace("redirect", start, idle)
        self.settled_to = now

    def observed_iq_count(self) -> int:
        """The queue count another component reads mid-cycle.

        The ICOUNT arbiter's urgency callback reads it while the shared
        interconnects step at ``now``: in a stepped run that sees every
        back-end step before ``now`` and none at ``now``. Settling the
        open window up to ``now`` reproduces exactly that, so cores
        under ICOUNT arbitration open replay windows like any other.
        """
        self.settle(self.kernel.clock.now)
        return self.core.backend.iq_count

    def _replay(self, start: int, cycles: int) -> None:
        """Settle ``cycles`` elided commit/pacing steps from ``start``."""
        _committed, last_commit = self.core.backend.replay_steps(cycles)
        self.kernel.stats.commit_cycles_batched += cycles
        self._trace("commit", start, cycles)
        if last_commit is not None:
            # The watchdog must see progress at the cycle the last
            # elided commit actually happened (a stepped run reset it
            # there), not at the settlement cycle.
            self.kernel.note_progress(start + last_commit - 1)

    def _trace(self, kind: str, start: int, cycles: int) -> None:
        """Record a settled replay window on this core's timeline track."""
        kernel = self.kernel
        if kernel.tracer is not None:
            kernel.tracer.complete(
                f"replay:{kind}",
                cat="replay",
                ts=kernel._ts_base + start,
                dur=cycles,
                pid=SIM_PID,
                tid=1000 + self.core.core_id,
            )

    def stall_transition(self, now: int) -> None:
        """An in-flight request changed lifecycle state at ``now``.

        Settles an idle window's old cause up to the transition and
        re-pins to the cause a stepped back-end would charge from
        ``now`` on. (Replay windows pin their causes by construction,
        and a live back-end attributes per cycle anyway.)
        """
        if self.window is not _IDLE:
            return
        self.settle(now)
        if self.core.context.state is ThreadState.RUNNING:
            self.cause = self.core.frontend.stall_cause(now)


class GroupInterconnectComponent:
    """One shared group's I-interconnect (arbitration and grants)."""

    __slots__ = ("group",)

    def __init__(self, group: SharedIcacheGroup) -> None:
        self.group = group

    def sleep_plan(self, now: int) -> int | None:
        # An interconnect with no queued request grants nothing: a
        # transfer still draining was charged its whole occupancy at
        # grant, so the component sleeps until a new request fires the
        # group's activity listener. With queued requests, the earliest
        # possible grant is the earliest bus-busy horizon: nothing
        # observable happens before it.
        return self.group.wake_horizon(now + 1)

    def step(self, now: int) -> int:
        self.group.step(now)
        return 0
