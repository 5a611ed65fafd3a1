"""Kernel backend tests: pylib semantics, compiled equivalence, selection.

``repro.kernels.pylib`` is the specification; the compiled backend must
be bit-identical on every operation, including tie-breaks and seen-set
insertion order. The equivalence classes here run both backends over the
same randomized operation streams and compare final table states. When
the extension is not already loaded, the fixture builds it into a temp
directory (skipping if the host has no C compiler), so the pure-Python
CI leg still exercises everything except the native code itself.

The routing classes cover the *consumer* side with no compiler at all:
each hot structure's kernel-call path is forced on (bound to ``pylib``)
and compared against its original inline loop.
"""

import importlib
import importlib.util
import random
import sys

import pytest

from repro.errors import ConfigurationError
from repro.kernels import pylib

# -- pylib semantics --------------------------------------------------------


class TestPylib:
    def test_find_way(self):
        row = [None, 0x40, 0x80, 0x40]
        assert pylib.find_way(row, 0x40) == 1  # first match wins
        assert pylib.find_way(row, None) == 0
        assert pylib.find_way(row, 0xC0) == -1
        assert pylib.find_way([], 0x40) == -1

    def test_btb_probe(self):
        tags = [-1, 0x104]
        targets = [0, 0x9000]
        assert pylib.btb_probe(tags, targets, 1, 0x104) == 0x9000
        assert pylib.btb_probe(tags, targets, 1, 0x204) is None
        assert pylib.btb_probe(tags, targets, 0, -1) == 0  # tag match


# -- compiled backend equivalence ------------------------------------------


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    """The compiled module: the loaded one, or a fresh temp-dir build."""
    from repro import kernels

    if kernels.NATIVE:
        return importlib.import_module("repro.kernels._native")
    from repro.kernels.build import build

    out = tmp_path_factory.mktemp("kernels")
    try:
        path = build(out_dir=out, verbose=False)
    except Exception as exc:  # no compiler / headers on this host
        pytest.skip(f"cannot build the native extension here: {exc}")
    spec = importlib.util.spec_from_file_location("_native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_warm_tables(rng):
    """One randomized warm-structure state for a warm_lines trial."""
    l1_sets, l1_ways = 8, 4
    l2_sets, l2_ways = 16, 8
    line = lambda: rng.randrange(1 << 10) * 64  # noqa: E731
    l1_tags = [
        [line() if rng.random() < 0.5 else None for _ in range(l1_ways)]
        for _ in range(l1_sets)
    ]
    l1_order = [
        rng.sample(range(l1_ways), l1_ways) if rng.random() < 0.5 else None
        for _ in range(l1_sets)
    ]
    l2_tags = [
        [line() if rng.random() < 0.3 else None for _ in range(l2_ways)]
        for _ in range(l2_sets)
    ]
    l2_order = [
        rng.sample(range(l2_ways), l2_ways) if rng.random() < 0.5 else None
        for _ in range(l2_sets)
    ]
    state = {
        "lb_lines": [line() for _ in range(4)],
        "lb_uses": [rng.randrange(64) for _ in range(4)],
        "lb_clock": rng.randrange(64, 128),
        "l1_tags": l1_tags,
        "l1_order": l1_order,
        "l1_seen": set(rng.sample(range(0, 1 << 16, 64), 20)),
        "l2_tags": l2_tags,
        "l2_order": l2_order,
        "l2_seen": set(rng.sample(range(0, 1 << 16, 64), 20)),
    }
    start = rng.randrange(1 << 10) * 64
    end = start + rng.randrange(1, 40) * 64
    return state, (l1_ways, l2_ways), (start, end)


class TestCompiledEquivalence:
    def test_reports_current_abi(self, native):
        from repro import kernels

        assert native.ABI == kernels.ABI

    def test_find_way(self, native):
        rng = random.Random(21)
        for _ in range(300):
            ways = rng.randrange(1, 9)
            row = [
                rng.randrange(16) * 64 if rng.random() < 0.7 else None
                for _ in range(ways)
            ]
            target = (
                None if rng.random() < 0.3 else rng.randrange(16) * 64
            )
            assert native.find_way(row, target) == pylib.find_way(
                row, target
            ), (row, target)

    def test_btb_probe(self, native):
        rng = random.Random(23)
        entries = 64
        tags = [
            rng.randrange(1 << 16) if rng.random() < 0.5 else -1
            for _ in range(entries)
        ]
        targets = [rng.randrange(1 << 16) for _ in range(entries)]
        for _ in range(2000):
            index = rng.randrange(entries)
            address = (
                tags[index] if rng.random() < 0.5 else rng.randrange(1 << 16)
            )
            assert native.btb_probe(
                tags, targets, index, address
            ) == pylib.btb_probe(tags, targets, index, address)

    def test_warm_lines(self, native):
        for trial in range(30):
            # Both states are drawn from identically-seeded generators:
            # a deepcopy would rebuild the seen-sets in iteration order
            # and silently perturb their internal layout.
            seed = 2400 + trial
            state, (l1_ways, l2_ways), span = _random_warm_tables(
                random.Random(seed)
            )
            mirror, _, _ = _random_warm_tables(random.Random(seed))
            args = (span[0], span[1], 64)
            shape = (l1_ways, 0, 7, l2_ways, 0, 15)

            def run(impl, s):
                return impl(
                    *args,
                    s["lb_lines"],
                    s["lb_uses"],
                    s["lb_clock"],
                    s["l1_tags"],
                    s["l1_order"],
                    shape[0],
                    shape[1],
                    shape[2],
                    s["l1_seen"],
                    s["l2_tags"],
                    s["l2_order"],
                    shape[3],
                    shape[4],
                    shape[5],
                    s["l2_seen"],
                )

            clock_native = run(native.warm_lines, state)
            clock_py = run(pylib.warm_lines, mirror)
            assert clock_native == clock_py, f"trial {trial}"
            for field in ("lb_lines", "lb_uses", "l1_tags", "l1_order",
                          "l2_tags", "l2_order"):
                assert state[field] == mirror[field], (trial, field)
            # Seen-sets must match including insertion order (identical
            # insertion sequences yield identical iteration order).
            assert list(state["l1_seen"]) == list(mirror["l1_seen"]), trial
            assert list(state["l2_seen"]) == list(mirror["l2_seen"]), trial


# -- backend selection ------------------------------------------------------


def _fresh_kernels(monkeypatch, value, block_native=False):
    """Re-import repro.kernels under ``REPRO_KERNELS=value``, leaving
    the process's real module bindings untouched afterwards."""
    if value is None:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNELS", value)
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro.kernels" or name.startswith("repro.kernels.")
    }

    class _BlockNative:
        def find_spec(self, fullname, path=None, target=None):
            if fullname == "repro.kernels._native":
                raise ImportError("native extension blocked for this test")
            return None

    finder = _BlockNative() if block_native else None
    if finder is not None:
        sys.meta_path.insert(0, finder)
    try:
        return importlib.import_module("repro.kernels")
    finally:
        if finder is not None:
            sys.meta_path.remove(finder)
        for name in list(sys.modules):
            if name == "repro.kernels" or name.startswith("repro.kernels."):
                del sys.modules[name]
        sys.modules.update(saved)


class TestBackendSelection:
    def test_py_override_forces_fallback(self, monkeypatch):
        module = _fresh_kernels(monkeypatch, "py")
        assert module.NATIVE is False
        assert module.backend_name() == "py"
        assert module.find_way is module.pylib.find_way

    def test_invalid_value_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="REPRO_KERNELS"):
            _fresh_kernels(monkeypatch, "fast")

    def test_compiled_without_extension_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="not.*built"):
            _fresh_kernels(monkeypatch, "compiled", block_native=True)

    def test_default_falls_back_silently(self, monkeypatch):
        module = _fresh_kernels(monkeypatch, None, block_native=True)
        assert module.NATIVE is False
        assert module.backend_name() == "py"


# -- consumer routing (works with no compiler: kernel path = pylib) ---------


class TestConsumerRouting:
    def test_set_assoc_kernel_path_matches_inline(self, monkeypatch):
        from repro.cache import set_assoc

        def build():
            return set_assoc.SetAssociativeCache(
                size_bytes=4096, ways=4, line_bytes=64
            )

        rng = random.Random(31)
        stream = [rng.randrange(1 << 14) * 4 for _ in range(4000)]

        monkeypatch.setattr(set_assoc, "_native_find_way", None)
        inline = build()
        for address in stream:
            inline.access(address)

        monkeypatch.setattr(
            set_assoc, "_native_find_way", pylib.find_way
        )
        routed = build()
        for address in stream:
            routed.access(address)

        assert routed._tags == inline._tags
        assert routed._policy._order == inline._policy._order
        assert routed.stats.hits == inline.stats.hits
        assert routed.stats.misses == inline.stats.misses

    def test_btb_kernel_path_matches_inline(self, monkeypatch):
        from repro.branch import btb as btb_module

        rng = random.Random(33)
        stream = [
            (rng.randrange(1 << 12) * 4, rng.randrange(1 << 16))
            for _ in range(3000)
        ]

        monkeypatch.setattr(btb_module, "_native_probe", None)
        inline = btb_module.BranchTargetBuffer(entries=256)
        inline_correct = [
            inline.predict_and_update(a, t) for a, t in stream
        ]

        monkeypatch.setattr(btb_module, "_native_probe", pylib.btb_probe)
        routed = btb_module.BranchTargetBuffer(entries=256)
        routed_correct = [
            routed.predict_and_update(a, t) for a, t in stream
        ]

        assert routed_correct == inline_correct
        assert routed._tags == inline._tags
        assert routed._targets == inline._targets
        assert routed.stats == inline.stats

    def test_warmer_kernel_path_matches_inline(self, monkeypatch):
        from repro.machine.model import get_model
        from repro.sampling import BatchedWarmer, SamplingPlan
        from repro.sampling import warmer as warmer_module
        from repro.sampling.slicer import IntervalKind, slice_traces
        from repro.trace.synthesis import synthesize_benchmark

        model = get_model("acmp")
        config = model.shared_config(itlb_enabled=True)
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        plan = SamplingPlan(
            detail_instructions=2_000,
            skip_instructions=6_000,
            warmup_instructions=6_000,
        )
        intervals = [
            interval
            for interval in slice_traces(traces, plan)
            if interval.kind is not IntervalKind.SKIP
        ]
        assert intervals, "probe trace too small to slice"

        # Pin the whole-span kernel off: this test isolates the
        # per-block warm_lines routing.
        monkeypatch.setattr(warmer_module, "_native_span", None)
        monkeypatch.setattr(warmer_module, "_native_warm", None)
        inline_system = model.build_system(config, traces)
        inline_warmer = BatchedWarmer(inline_system, traces)
        inline_blocks = sum(
            inline_warmer.warm_interval(i) for i in intervals
        )

        monkeypatch.setattr(
            warmer_module, "_native_warm", pylib.warm_lines
        )
        routed_system = model.build_system(config, traces)
        routed_warmer = BatchedWarmer(routed_system, traces)
        routed_blocks = sum(
            routed_warmer.warm_interval(i) for i in intervals
        )

        assert routed_blocks == inline_blocks > 0
        assert (
            routed_system.capture_warm_state().to_dict()
            == inline_system.capture_warm_state().to_dict()
        )


# -- whole-span warming kernel ----------------------------------------------


def _sampled_warm_setup(scale=0.2, **config_overrides):
    """A sliced UA trace plus builders for span-walk routing tests."""
    from repro.machine.model import get_model
    from repro.sampling import SamplingPlan
    from repro.sampling.slicer import IntervalKind, slice_traces
    from repro.trace.synthesis import synthesize_benchmark

    model = get_model("acmp")
    config = model.shared_config(itlb_enabled=True, **config_overrides)
    traces = synthesize_benchmark(
        "UA", thread_count=config.core_count, scale=scale
    )
    plan = SamplingPlan(
        detail_instructions=2_000,
        skip_instructions=6_000,
        warmup_instructions=6_000,
    )
    intervals = [
        interval
        for interval in slice_traces(traces, plan)
        if interval.kind is not IntervalKind.SKIP
    ]
    assert intervals, "probe trace too small to slice"
    return model, config, traces, intervals


class TestWarmerSpanRouting:
    def test_span_path_matches_inline(self, monkeypatch):
        from repro.sampling import BatchedWarmer
        from repro.sampling import warmer as warmer_module

        model, config, traces, intervals = _sampled_warm_setup()

        monkeypatch.setattr(warmer_module, "_native_span", None)
        monkeypatch.setattr(warmer_module, "_native_warm", None)
        inline_system = model.build_system(config, traces)
        inline_blocks = sum(
            BatchedWarmer(inline_system, traces).warm_interval(i)
            for i in intervals
        )

        monkeypatch.setattr(
            warmer_module, "_native_span", pylib.warm_span
        )
        routed_system = model.build_system(config, traces)
        routed_warmer = BatchedWarmer(routed_system, traces)
        assert all(shape is not None for shape in routed_warmer._shapes)
        routed_blocks = sum(
            routed_warmer.warm_interval(i) for i in intervals
        )

        assert routed_blocks == inline_blocks > 0
        assert (
            routed_system.capture_warm_state().to_dict()
            == inline_system.capture_warm_state().to_dict()
        )

    def test_non_lru_l1_takes_fallback(self, monkeypatch):
        from repro.sampling import BatchedWarmer
        from repro.sampling import warmer as warmer_module

        model, config, traces, intervals = _sampled_warm_setup(
            icache_policy="plru"
        )

        def forbidden(*args):
            raise AssertionError(
                "span kernel engaged for a non-LRU L1"
            )

        monkeypatch.setattr(warmer_module, "_native_span", forbidden)
        monkeypatch.setattr(warmer_module, "_native_warm", None)
        routed_system = model.build_system(config, traces)
        routed_warmer = BatchedWarmer(routed_system, traces)
        assert all(shape is None for shape in routed_warmer._shapes)
        routed_blocks = sum(
            routed_warmer.warm_interval(i) for i in intervals
        )

        monkeypatch.setattr(warmer_module, "_native_span", None)
        inline_system = model.build_system(config, traces)
        inline_blocks = sum(
            BatchedWarmer(inline_system, traces).warm_interval(i)
            for i in intervals
        )

        assert routed_blocks == inline_blocks > 0
        assert (
            routed_system.capture_warm_state().to_dict()
            == inline_system.capture_warm_state().to_dict()
        )

    def test_span_path_safe_after_restore(self, monkeypatch):
        """Restores adopt snapshot storage; the span walk must re-read
        the inner tables and keep warming the adopted ones."""
        from repro.sampling import BatchedWarmer
        from repro.sampling import warmer as warmer_module

        model, config, traces, intervals = _sampled_warm_setup()
        assert len(intervals) >= 2

        def round_trip(span_impl):
            monkeypatch.setattr(warmer_module, "_native_span", span_impl)
            monkeypatch.setattr(warmer_module, "_native_warm", None)
            first = model.build_system(config, traces)
            BatchedWarmer(first, traces).warm_interval(intervals[0])
            snapshot = first.capture_warm_state()
            second = model.build_system(config, traces)
            warmer = BatchedWarmer(second, traces)
            second.restore_warm_state(snapshot)
            warmer.warm_interval(intervals[1])
            return second.capture_warm_state().to_dict()

        assert round_trip(pylib.warm_span) == round_trip(None)

    def test_span_encoding_cache_invalidation(self):
        from repro.sampling import BatchedWarmer

        model, config, traces, _ = _sampled_warm_setup()
        warmer = BatchedWarmer(model.build_system(config, traces), traces)
        records = traces.threads[0].records

        first = warmer._span_encoding(0, records)
        assert warmer._span_encoding(0, records) is first  # cached

        replaced = list(records)
        rebuilt = warmer._span_encoding(0, replaced)
        assert rebuilt is not first  # new list identity
        assert rebuilt.prefix == first.prefix

        replaced.append(replaced[0])
        regrown = warmer._span_encoding(0, replaced)
        assert regrown is not rebuilt  # same list, new length
        assert regrown.length == rebuilt.length + 1


# -- replay_walk: spec, consumer routing, compiled equivalence ---------------


def _random_engine(rng):
    from repro.backend.backend import CommitEngine

    engine = CommitEngine(
        iq_capacity=rng.choice([8, 16, 64]),
        initial_ipc=rng.choice([0.3, 0.6, 0.75, 1.0, 1.6, 2.3]),
    )
    engine.iq_push(rng.randrange(0, engine.iq_capacity + 1))
    engine._credit = rng.uniform(0.0, 0.99)
    return engine


class TestReplayWalkSpec:
    """pylib.replay_walk against the stepped CommitEngine loops."""

    def test_planning_modes_match_inline_walks(self, monkeypatch):
        from repro.backend import backend as backend_module

        monkeypatch.setattr(backend_module, "_native_replay", None)
        rng = random.Random(51)
        for _ in range(300):
            engine = _random_engine(rng)
            cap = rng.choice([5, 64, 4096])
            space = rng.randrange(0, engine.iq_capacity + 1)
            credit, ipc = engine._credit, engine._ipc
            iq = engine._iq_count

            next_commit = pylib.replay_walk(
                pylib.REPLAY_NEXT, credit, ipc, iq, cap, -1
            )
            assert engine.cycles_to_next_commit(cap) == (
                (next_commit or None) if iq else None
            )

            space_limit = engine.iq_capacity - space if space else -1
            horizon = pylib.replay_walk(
                pylib.REPLAY_HORIZON, credit, ipc, iq, cap, space_limit
            )
            assert engine.replay_horizon(space, cap) == (
                horizon if iq else None
            )

            drain = pylib.replay_walk(
                pylib.REPLAY_DRAIN, credit, ipc, iq, cap, -1
            )
            assert engine.drain_horizon(cap) == (
                (drain or None) if iq else None
            )

    def test_steps_mode_matches_stepped_settlement(self, monkeypatch):
        from repro.backend import backend as backend_module
        from repro.errors import SimulationError

        monkeypatch.setattr(backend_module, "_native_replay", None)
        rng = random.Random(52)
        stalls = 0
        for _ in range(400):
            engine = _random_engine(rng)
            cycles = rng.randrange(1, 60)
            committed, base, last, iq, credit, stalled = pylib.replay_walk(
                pylib.REPLAY_STEPS,
                engine._credit,
                engine._ipc,
                engine._iq_count,
                cycles,
                -1,
            )
            before = (engine.stats.committed, engine.stats.base_cycles)
            if stalled:
                stalls += 1
                with pytest.raises(SimulationError, match="stall boundary"):
                    engine.replay_steps(cycles)
            else:
                assert engine.replay_steps(cycles) == (
                    committed,
                    last if last else None,
                )
            # Identical post state either way: the walk stops on the
            # stall cycle with its credit earned and nothing charged.
            assert engine._iq_count == iq
            assert repr(engine._credit) == repr(credit)
            assert engine.stats.committed == before[0] + committed
            assert engine.stats.base_cycles == before[1] + base
        assert stalls > 0, "trial mix never crossed a stall boundary"


class TestBackendReplayRouting:
    """The CommitEngine kernel path (bound to pylib) vs its inline loops."""

    def test_routed_walks_match_inline(self, monkeypatch):
        from repro.backend import backend as backend_module

        rng = random.Random(53)
        for _ in range(200):
            seed = rng.randrange(1 << 30)
            cap = rng.choice([7, 64, 4096])
            capacity = _random_engine(random.Random(seed)).iq_capacity
            space = rng.randrange(0, capacity + 1)

            def walk(engine):
                results = [
                    engine.cycles_to_next_commit(cap),
                    engine.replay_horizon(space, cap),
                    engine.drain_horizon(cap),
                ]
                span = (engine.replay_horizon(0, cap) or 1) - 1
                if span:
                    results.append(engine.replay_steps(span))
                    results.append(engine._iq_count)
                    results.append(repr(engine._credit))
                    results.append(engine.stats.committed)
                    results.append(engine.stats.base_cycles)
                return results

            # The binding is module-level, so run each engine's full walk
            # under its own binding before switching.
            monkeypatch.setattr(backend_module, "_native_replay", None)
            inline = _random_engine(random.Random(seed))
            inline_results = walk(inline)
            assert inline.replay_walk_engaged == 0

            monkeypatch.setattr(
                backend_module, "_native_replay", pylib.replay_walk
            )
            routed = _random_engine(random.Random(seed))
            occupied = routed._iq_count > 0
            assert walk(routed) == inline_results
            # An empty queue short-circuits before the kernel call.
            assert (routed.replay_walk_engaged > 0) == occupied

    def test_routed_stall_matches_inline(self, monkeypatch):
        from repro.backend import backend as backend_module
        from repro.errors import SimulationError

        def drained_engine():
            engine = backend_module.CommitEngine(
                iq_capacity=8, initial_ipc=2.0
            )
            engine.iq_push(3)
            return engine

        monkeypatch.setattr(backend_module, "_native_replay", None)
        inline = drained_engine()
        with pytest.raises(SimulationError, match="stall boundary"):
            inline.replay_steps(10)  # drains on cycle 2, stalls on 3

        monkeypatch.setattr(
            backend_module, "_native_replay", pylib.replay_walk
        )
        routed = drained_engine()
        with pytest.raises(SimulationError, match="stall boundary"):
            routed.replay_steps(10)

        assert routed._iq_count == inline._iq_count == 0
        assert repr(routed._credit) == repr(inline._credit)
        assert routed.stats.committed == inline.stats.committed
        assert routed.stats.base_cycles == inline.stats.base_cycles


def _random_span_columns(rng, blocks):
    """Flat span columns covering every branch kind and zero-line blocks."""
    starts, counts, kinds, keys, targets, takens = [], [], [], [], [], []
    for _ in range(blocks):
        starts.append(rng.randrange(1 << 16) & -64)
        counts.append(rng.randrange(0, 6))
        kind = rng.choice([0, 1, 1, 1, 2])
        kinds.append(kind)
        keys.append(rng.randrange(1 << 16))
        targets.append(rng.randrange(1 << 16))
        takens.append(rng.randrange(2))
    return starts, counts, kinds, keys, targets, takens


def _random_span_state(rng, have_itlb):
    """One randomized full warm-structure state for a warm_span trial."""
    l1_sets, l1_ways = 8, 2
    l2_sets, l2_ways = 16, 4
    return {
        "lb_lines": [None] * 4,
        "lb_uses": [0] * 4,
        "lb_clock": rng.randrange(64),
        "l1_tags": [[None] * l1_ways for _ in range(l1_sets)],
        "l1_order": [None] * l1_sets,
        "l1_ways": l1_ways,
        "l1_shift": 6,
        "l1_set_mask": l1_sets - 1,
        "l1_seen": set(),
        "l2_tags": [[None] * l2_ways for _ in range(l2_sets)],
        "l2_order": [None] * l2_sets,
        "l2_ways": l2_ways,
        "l2_shift": 6,
        "l2_set_mask": l2_sets - 1,
        "l2_seen": set(),
        "g_counters": bytearray(rng.randrange(4) for _ in range(64)),
        "g_history": rng.randrange(64),
        "g_mask": 63,
        "g_shift": 2,
        "lp_tags": [-1] * 16,
        "lp_trips": [0] * 16,
        "lp_currents": [0] * 16,
        "lp_conf": [0] * 16,
        "lp_mask": 15,
        "lp_shift": 2,
        "b_tags": [-1] * 32,
        "b_targets": [0] * 32,
        "b_mask": 31,
        "b_shift": 2,
        "t_map": {} if have_itlb else None,
        "t_seen": set() if have_itlb else None,
        "t_clock": rng.randrange(64),
        "t_shift": 12,
        "t_capacity": 4,
    }


_SPAN_ARG_ORDER = (
    "lb_lines", "lb_uses", "lb_clock",
    "l1_tags", "l1_order", "l1_ways", "l1_shift", "l1_set_mask", "l1_seen",
    "l2_tags", "l2_order", "l2_ways", "l2_shift", "l2_set_mask", "l2_seen",
    "g_counters", "g_history", "g_mask", "g_shift",
    "lp_tags", "lp_trips", "lp_currents", "lp_conf", "lp_mask", "lp_shift",
    "b_tags", "b_targets", "b_mask", "b_shift",
    "t_map", "t_seen", "t_clock", "t_shift", "t_capacity",
)


class TestCompiledSpanEquivalence:
    def test_warm_span(self, native):
        for trial in range(60):
            rng = random.Random(6200 + trial)
            columns = _random_span_columns(rng, rng.randrange(1, 40))
            have_itlb = trial % 2 == 0
            # Identically-seeded states, not deepcopies: a copy would
            # rebuild seen-sets/dicts in iteration order and silently
            # perturb their internal layout.
            state = _random_span_state(random.Random(trial), have_itlb)
            mirror = _random_span_state(random.Random(trial), have_itlb)
            bend = len(columns[0])
            bstart = rng.randrange(0, bend)

            def run(impl, s):
                return impl(
                    bstart, bend, 64, *columns,
                    *(s[name] for name in _SPAN_ARG_ORDER),
                )

            result_native = run(native.warm_span, state)
            result_py = run(pylib.warm_span, mirror)
            assert result_native == result_py, trial
            for name in _SPAN_ARG_ORDER:
                value, expected = state[name], mirror[name]
                if isinstance(value, set):
                    # Insertion order must match, not just membership.
                    assert list(value) == list(expected), (trial, name)
                elif isinstance(value, dict):
                    assert list(value.items()) == list(expected.items()), (
                        trial, name,
                    )
                else:
                    assert value == expected, (trial, name)

    def test_replay_walk(self, native):
        rng = random.Random(63)
        for trial in range(4000):
            mode = rng.randrange(4)
            credit = rng.uniform(0.0, 1.5)
            ipc = rng.choice(
                [0.3, 0.6, 0.75, 1.0, 1.6, 2.3, rng.uniform(0.05, 4.0)]
            )
            iq = rng.randrange(0, 80)
            count = rng.randrange(0, 300)
            space_limit = rng.choice([-1, rng.randrange(0, 80)])
            result_py = pylib.replay_walk(
                mode, credit, ipc, iq, count, space_limit
            )
            result_native = native.replay_walk(
                mode, credit, ipc, iq, count, space_limit
            )
            assert result_py == result_native, (trial, mode)
            if mode == pylib.REPLAY_STEPS:
                # Float credit must match bit for bit, not just ==.
                assert repr(result_py[4]) == repr(result_native[4]), trial


# -- build CLI ---------------------------------------------------------------


def _fresh_kernels_with_stale_native(monkeypatch, value, abi=None):
    """Re-import repro.kernels against a fake native module built from
    older source, restoring real bindings afterwards. By default it
    carries only the earliest entry points and no ``ABI``; with ``abi``
    it carries every current entry point but reports that version."""
    import types

    if value is None:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNELS", value)
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro.kernels" or name.startswith("repro.kernels.")
    }
    stale = types.ModuleType("repro.kernels._native")
    stale.find_way = pylib.find_way
    stale.btb_probe = pylib.btb_probe
    stale.warm_lines = pylib.warm_lines  # no warm_span / replay_walk
    if abi is not None:
        stale.warm_span = pylib.warm_span
        stale.replay_walk = pylib.replay_walk
        stale.ABI = abi
    sys.modules["repro.kernels._native"] = stale
    try:
        return importlib.import_module("repro.kernels")
    finally:
        for name in list(sys.modules):
            if name == "repro.kernels" or name.startswith("repro.kernels."):
                del sys.modules[name]
        sys.modules.update(saved)


class TestStaleExtension:
    def test_compiled_with_stale_extension_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="stale"):
            _fresh_kernels_with_stale_native(monkeypatch, "compiled")

    def test_default_demotes_stale_extension(self, monkeypatch):
        module = _fresh_kernels_with_stale_native(monkeypatch, None)
        assert module.NATIVE is False
        assert module.backend_name() == "py"

    def test_older_abi_is_stale(self, monkeypatch):
        """An extension with every entry point but an older table
        layout (list-typed gshare counters) must not engage."""
        from repro import kernels

        older = kernels.ABI - 1
        with pytest.raises(ConfigurationError, match="stale"):
            _fresh_kernels_with_stale_native(monkeypatch, "compiled", older)
        module = _fresh_kernels_with_stale_native(monkeypatch, None, older)
        assert module.NATIVE is False


class TestBuildCli:
    def test_check_reports_backend_and_staleness(self, capsys):
        from repro.kernels import build as build_module

        status = build_module.main(["--check"])
        out = capsys.readouterr().out
        assert "backend:" in out
        assert "cc:" in out
        assert "staleness:" in out
        assert status in (0, 1)
        assert (status == 0) == ("staleness: current" in out)

    def test_build_failure_surfaces_compiler_stderr(
        self, monkeypatch, tmp_path
    ):
        from repro.kernels import build as build_module

        class _Failed:
            returncode = 1
            stderr = "synthetic-diagnostic: expected ';'"
            stdout = ""

        monkeypatch.setattr(
            build_module.subprocess,
            "run",
            lambda command, capture_output, text: _Failed(),
        )
        with pytest.raises(
            build_module.BuildError, match="synthetic-diagnostic"
        ):
            build_module.build(out_dir=tmp_path, verbose=False)
