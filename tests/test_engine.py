"""Tests for the reusable simulation kernel (repro.engine).

Covers the clock, event-queue semantics (same-cycle rescheduling),
kernel progress/watchdog behaviour, components with several step
points, and the ready/wake scheduler's exact-equivalence contract
against the cycle-by-cycle reference engine.
"""

import pytest

from repro.acmp import (
    baseline_config,
    simulate,
    worker_shared_config,
)
from repro.acmp.system import AcmpSystem
from repro.engine import NEVER, Clock, EventQueue, SimulationKernel
from repro.errors import DeadlockError, SimulationError
from repro.machine import SystemSimulator, result_to_dict
from repro.trace.records import (
    BasicBlockRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.synthesis import synthesize_benchmark


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clock = Clock()
        assert clock.now == 0
        assert clock.advance() == 1
        assert clock.now == 1

    def test_jump_forward(self):
        clock = Clock()
        clock.jump(100)
        assert clock.now == 100
        clock.jump(100)  # jumping to the current cycle is a no-op
        assert clock.now == 100

    def test_jump_backwards_rejected(self):
        clock = Clock(start=10)
        with pytest.raises(SimulationError):
            clock.jump(9)


class TestEventQueue:
    def test_fifo_within_a_cycle(self):
        events = EventQueue()
        order = []
        events.schedule(5, lambda: order.append("a"))
        events.schedule(5, lambda: order.append("b"))
        events.schedule(4, lambda: order.append("c"))
        assert events.run_due(5) == 3
        assert order == ["c", "a", "b"]

    def test_same_cycle_rescheduling_runs_in_same_drain(self):
        # A callback that schedules another event at the *current* cycle
        # must see it delivered within the same run_due call — the MSHR
        # retry path and chained fills depend on this.
        events = EventQueue()
        order = []

        def first():
            order.append("first")
            events.schedule(7, lambda: order.append("chained"))

        events.schedule(7, first)
        assert events.run_due(7) == 2
        assert order == ["first", "chained"]
        assert len(events) == 0

    def test_next_cycle_peek(self):
        events = EventQueue()
        assert events.next_cycle is None
        events.schedule(12, lambda: None)
        events.schedule(3, lambda: None)
        assert events.next_cycle == 3


class _CountdownComponent:
    """Commits one unit per cycle for `work` cycles, then goes to sleep."""

    def __init__(self, work: int) -> None:
        self.work = work
        self.woken_at: list[int] = []

    def step(self, now: int) -> int:
        if self.work > 0:
            self.work -= 1
            return 1
        return 0

    def sleep_plan(self, now: int) -> int | None:
        return NEVER if self.work == 0 else None

    def on_wake(self, now: int) -> None:
        self.woken_at.append(now)


class TestKernel:
    def test_finish_condition_ends_run(self):
        kernel = SimulationKernel(cycle_skip=False)
        component = _CountdownComponent(work=5)
        kernel.register(component)
        kernel.set_finish_condition(lambda: component.work == 0)
        assert kernel.run(max_cycles=100) == 5

    def test_max_cycles_guard(self):
        kernel = SimulationKernel(cycle_skip=False)
        component = _CountdownComponent(work=1 << 30)
        kernel.register(component)
        with pytest.raises(SimulationError, match="max_cycles"):
            kernel.run(max_cycles=10)

    def test_empty_ready_set_jumps_to_next_event(self):
        kernel = SimulationKernel()
        component = _CountdownComponent(work=3)
        kernel.register(component)
        finished = []
        kernel.events.schedule(1000, lambda: finished.append(True))
        kernel.set_finish_condition(lambda: bool(finished))
        assert kernel.run(max_cycles=10_000) == 1001
        # Steps at 0..2 commit and the component sleeps right after its
        # last one (unlike the old global gate, no zero-progress cycle
        # is needed first); the clock jumps 3 -> 1000.
        assert kernel.stats.skips == 1
        assert kernel.stats.cycles_skipped == 1000 - 3
        assert kernel.stats.cycles_executed == 4
        assert component.woken_at == []  # the event never wakes it

    def test_timer_wake_resumes_component(self):
        kernel = SimulationKernel()

        class Napper:
            """Commits at cycle 0, naps 99 cycles, commits again at 100."""

            def __init__(self) -> None:
                self.commit_cycles: list[int] = []
                self.woken_at: list[int] = []

            def step(self, now: int) -> int:
                if now in (0, 100):
                    self.commit_cycles.append(now)
                    return 1
                return 0

            def sleep_plan(self, now: int) -> int | None:
                return 100 if now < 100 else NEVER

            def on_wake(self, now: int) -> None:
                self.woken_at.append(now)

        napper = Napper()
        kernel.register(napper)
        kernel.set_finish_condition(lambda: len(napper.commit_cycles) == 2)
        assert kernel.run(max_cycles=10_000) == 101
        assert napper.woken_at == [100]
        assert napper.commit_cycles == [0, 100]
        assert kernel.stats.cycles_skipped > 0

    def test_explicit_wake_from_event_steps_same_cycle(self):
        kernel = SimulationKernel()
        component = _CountdownComponent(work=1)
        kernel.register(component)

        def refill():
            component.work = 2
            kernel.wake(component)

        kernel.events.schedule(50, refill)
        kernel.set_finish_condition(
            lambda: component.woken_at != [] and component.work == 0
        )
        assert kernel.run(max_cycles=10_000) == 52
        # The event at 50 wakes the component before stepping, so it
        # commits at cycles 50 and 51 (no lost cycle).
        assert component.woken_at == [50]
        assert kernel.stats.wakes == 1

    def test_deadlock_fires_across_skips(self):
        # With nothing scheduled and every component asleep forever, the
        # jump must not overshoot the watchdog: the deadlock fires at
        # exactly the cycle the stepped engine would raise at.
        kernel = SimulationKernel(stall_limit=500)
        component = _CountdownComponent(work=2)
        kernel.register(component)
        with pytest.raises(DeadlockError, match="cycle 502"):
            kernel.run(max_cycles=1_000_000)
        # Last progress at cycle 1; watchdog fires at 1 + 500 + 1.
        assert kernel.stats.cycles_skipped > 0

    def test_component_without_sleep_support_stays_ready(self):
        class Bare:
            def step(self, now):
                return 0

        kernel = SimulationKernel(stall_limit=100)
        kernel.register(Bare())
        with pytest.raises(DeadlockError):
            kernel.run(max_cycles=1_000)
        assert kernel.stats.cycles_skipped == 0
        assert kernel.stats.component_steps == kernel.stats.cycles_executed


class _TwoPointComponent:
    """Logs both of its step points; naps once from ``sleep_at`` to
    ``wake_at`` (the shape of a core: front-end and back-end steps)."""

    def __init__(self, log: list, sleep_at: int = -1, wake_at: int = 0):
        self.log = log
        self.sleep_at = sleep_at
        self.wake_at = wake_at
        self.woken: list[int] = []

    def front(self, now: int) -> int:
        self.log.append(("front", now))
        return 0

    def back(self, now: int) -> int:
        self.log.append(("back", now))
        return 1

    def sleep_plan(self, now: int) -> int | None:
        return self.wake_at if now == self.sleep_at else None

    def on_wake(self, now: int) -> None:
        self.woken.append(now)


class _Logged:
    """A single-step component that never sleeps."""

    def __init__(self, log: list, name: str) -> None:
        self.log = log
        self.name = name

    def step(self, now: int) -> int:
        self.log.append((self.name, now))
        return 0


class TestStepPoints:
    def test_both_points_step_in_order_around_a_middle_component(self):
        kernel = SimulationKernel(cycle_skip=False)
        log: list = []
        unit = _TwoPointComponent(log)
        kernel.register(unit, unit.front)
        kernel.register(_Logged(log, "middle"))
        kernel.add_step(unit, unit.back)
        kernel.set_finish_condition(lambda: kernel.clock.now == 2)
        assert kernel.run(max_cycles=100) == 2
        assert log == [
            ("front", 0), ("middle", 0), ("back", 0),
            ("front", 1), ("middle", 1), ("back", 1),
        ]

    def test_points_sleep_and_wake_as_one(self):
        kernel = SimulationKernel()
        log: list = []
        unit = _TwoPointComponent(log, sleep_at=2, wake_at=10)
        kernel.register(unit, unit.front)
        kernel.add_step(unit, unit.back)
        kernel.set_finish_condition(lambda: kernel.clock.now == 12)
        assert kernel.run(max_cycles=100) == 12
        stepped = sorted({now for _point, now in log})
        assert stepped == [0, 1, 2, 10, 11]
        assert [point for point, _now in log] == ["front", "back"] * 5
        assert unit.woken == [10]
        # One timer: a single wake, and one clock jump straight to it.
        assert kernel.stats.wakes == 1
        assert kernel.stats.skips == 1
        assert kernel.stats.cycles_skipped == 10 - 3

    def test_step_counts_are_per_step_point(self):
        kernel = SimulationKernel()
        log: list = []
        unit = _TwoPointComponent(log, sleep_at=2, wake_at=10)
        kernel.register(unit, unit.front)
        kernel.register(_Logged(log, "middle"))
        kernel.add_step(unit, unit.back)
        kernel.set_finish_condition(lambda: kernel.clock.now == 12)
        kernel.run(max_cycles=100)
        stats = kernel.stats
        # The always-ready middle component vetoes every jump: 12
        # executed cycles of 3 step points, the unit's 2 points elided
        # on the 7 cycles 3..9 it slept through.
        assert stats.cycles_executed == 12
        assert stats.component_steps_avoided == 2 * 7
        assert stats.component_steps == 3 * 12 - 2 * 7
        assert stats.component_steps == len(log)

    def test_add_step_requires_a_registered_component(self):
        kernel = SimulationKernel()
        unit = _TwoPointComponent([])
        with pytest.raises(SimulationError, match="unregistered"):
            kernel.add_step(unit, unit.back)


def _master_records(phases=1):
    records = [IpcRecord(1.0), BasicBlockRecord(0x100, 8)]
    for phase in range(phases):
        records += [
            SyncRecord(SyncKind.PARALLEL_START, phase),
            IpcRecord(2.0),
            BasicBlockRecord(0x1000, 8),
            SyncRecord(SyncKind.PARALLEL_END, phase),
        ]
    return records


def _worker_records(phases=1):
    records = []
    for phase in range(phases):
        records += [
            SyncRecord(SyncKind.PARALLEL_START, phase),
            IpcRecord(1.0),
            BasicBlockRecord(0x1000, 8),
            SyncRecord(SyncKind.PARALLEL_END, phase),
        ]
    return records


class TestCycleSkipEquivalence:
    """Skip vs no-skip must produce bit-identical SimulationResults."""

    BENCHMARKS = ("CG", "UA", "CoMD")

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_baseline_equivalence(self, bench):
        traces = synthesize_benchmark(bench, thread_count=9, scale=0.05, seed=0)
        config = baseline_config()
        fast = simulate(config, traces, cycle_skip=True)
        reference = simulate(config, traces, cycle_skip=False)
        assert result_to_dict(fast) == result_to_dict(reference)

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_shared_equivalence(self, bench):
        traces = synthesize_benchmark(bench, thread_count=9, scale=0.05, seed=1)
        config = worker_shared_config()
        fast = simulate(config, traces, cycle_skip=True)
        reference = simulate(config, traces, cycle_skip=False)
        assert result_to_dict(fast) == result_to_dict(reference)

    def test_skip_path_actually_engages(self):
        traces = synthesize_benchmark("CoMD", thread_count=9, scale=0.05, seed=0)
        system = AcmpSystem(baseline_config(), traces)
        system.warm_instruction_l2s()
        simulator = SystemSimulator(system, cycle_skip=True)
        simulator.run()
        stats = simulator.kernel.stats
        assert stats.skips > 0
        assert stats.cycles_skipped > 0
        assert stats.total_cycles == simulator.cycle

    def test_disabled_skip_never_jumps(self):
        traces = synthesize_benchmark("CG", thread_count=9, scale=0.02, seed=0)
        system = AcmpSystem(baseline_config(), traces)
        system.warm_instruction_l2s()
        simulator = SystemSimulator(system, cycle_skip=False)
        simulator.run()
        assert simulator.kernel.stats.cycles_skipped == 0


class TestDeadlockAcrossSkips:
    def test_sync_deadlock_detected_with_skip_enabled(self):
        # Worker 2 waits for a phase the master never starts: every core
        # ends up blocked with an empty event queue. The fast path takes
        # one large jump to the watchdog cycle and must still raise.
        bad_worker = [
            SyncRecord(SyncKind.PARALLEL_START, 5),
            IpcRecord(1.0),
            BasicBlockRecord(0x1000, 8),
            SyncRecord(SyncKind.PARALLEL_END, 5),
        ]
        traces = TraceSet(
            "phantom",
            [
                ThreadTrace(0, _master_records()),
                ThreadTrace(1, _worker_records()),
                ThreadTrace(2, bad_worker),
            ],
        )
        config = baseline_config(worker_count=2)
        with pytest.raises(DeadlockError) as fast_error:
            simulate(config, traces, cycle_skip=True)
        with pytest.raises(DeadlockError) as reference_error:
            simulate(config, traces, cycle_skip=False)
        # Identical diagnosis, including the firing cycle.
        assert str(fast_error.value) == str(reference_error.value)
        assert "phase 5" in str(fast_error.value)
