"""Kernel backend tests: compiled equivalence, routing, selection.

Each compiled entry point replaces one consumer's inline Python loop
and must be bit-identical to it, including tie-breaks, seen-set and
dict insertion order and float rounding:

* ``warm_span`` against ``BatchedWarmer._walk_span_py`` — compared
  through the warmer itself, on real sliced traces with deliberately
  small structures;
* ``replay_walk`` against the four ``CommitEngine`` walks — compared
  through the engine's methods.

Every comparison runs the consumer twice, once with its module-level
binding set to the ``native`` fixture's function and once set to
``None`` (the inline path). The fixture uses the loaded extension, or
builds one into a temp directory, and skips only on a host with no C
compiler. Behind the inline paths stand the two oracles, tested
elsewhere: the scalar warming walk (``tests/test_sampling*.py``) and the
stepped engine (``tests/test_scheduler_equivalence.py``).
"""

import importlib
import importlib.util
import random
import sys

import pytest

from repro.errors import ConfigurationError


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


class TestCompiledEquivalence:
    def test_reports_current_abi(self, native):
        from repro import kernels

        assert native.ABI == kernels.ABI

    def test_exports_only_the_two_entry_points(self, native):
        public = {name for name in dir(native) if not name.startswith("_")}
        assert public == {"ABI", "warm_span", "replay_walk"}


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
        assert module.warm_span is None
        assert module.replay_walk is None

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


# -- warm_span: BatchedWarmer routing ----------------------------------------


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


def _warm_with(monkeypatch, span_impl, model, config, traces, intervals):
    """Warm every interval with ``_native_span`` bound to ``span_impl``;
    returns the warmer (its ``system`` holds the warm state) and the
    blocks walked."""
    from repro.sampling import BatchedWarmer
    from repro.sampling import warmer as warmer_module

    monkeypatch.setattr(warmer_module, "_native_span", span_impl)
    system = model.build_system(config, traces)
    warmer = BatchedWarmer(system, traces)
    blocks = sum(warmer.warm_interval(i) for i in intervals)
    return warmer, blocks


def _insertion_orders(system):
    """Iteration order of every live set and dict warming fills in:
    ``to_dict()`` sorts the sets, and dict equality ignores order."""
    orders = []
    for hardware in system.group_hardware:
        for cache in (hardware.cache, hardware.hierarchy.l2):
            orders.append(list(cache.stats._seen_lines))
    for core in system.cores:
        itlb = core.frontend.itlb
        if itlb is not None:
            orders.append(list(itlb._seen_pages))
            orders.append(list(itlb._translations.items()))
    return orders


class TestWarmerSpanRouting:
    def test_span_path_matches_inline(self, native, monkeypatch):
        setup = _sampled_warm_setup()
        inline, inline_blocks = _warm_with(monkeypatch, None, *setup)
        routed, routed_blocks = _warm_with(
            monkeypatch, native.warm_span, *setup
        )
        assert all(shape is not None for shape in routed._shapes)
        assert routed_blocks == inline_blocks > 0
        assert (
            routed.system.capture_warm_state().to_dict()
            == inline.system.capture_warm_state().to_dict()
        )
        assert _insertion_orders(routed.system) == _insertion_orders(
            inline.system
        )

    def test_non_lru_l1_takes_fallback(self, monkeypatch):
        setup = _sampled_warm_setup(icache_policy="plru")

        def forbidden(*args):
            raise AssertionError("span kernel engaged for a non-LRU L1")

        routed, routed_blocks = _warm_with(monkeypatch, forbidden, *setup)
        assert all(shape is None for shape in routed._shapes)
        inline, inline_blocks = _warm_with(monkeypatch, None, *setup)
        assert routed_blocks == inline_blocks > 0
        assert (
            routed.system.capture_warm_state().to_dict()
            == inline.system.capture_warm_state().to_dict()
        )

    def test_span_path_safe_after_restore(self, native, monkeypatch):
        """Restores adopt snapshot storage; the span walk must re-read
        the inner tables and keep warming the adopted ones."""
        from repro.sampling import BatchedWarmer
        from repro.sampling import warmer as warmer_module

        model, config, traces, intervals = _sampled_warm_setup()
        assert len(intervals) >= 2

        def round_trip(span_impl):
            monkeypatch.setattr(warmer_module, "_native_span", span_impl)
            first = model.build_system(config, traces)
            BatchedWarmer(first, traces).warm_interval(intervals[0])
            snapshot = first.capture_warm_state()
            second = model.build_system(config, traces)
            warmer = BatchedWarmer(second, traces)
            second.restore_warm_state(snapshot)
            warmer.warm_interval(intervals[1])
            return second.capture_warm_state().to_dict()

        assert round_trip(native.warm_span) == round_trip(None)

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


# -- replay_walk: CommitEngine routing ---------------------------------------


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
    """The raw ``replay_walk`` kernel, called directly with its packed
    arguments, against the stepped CommitEngine loops: pins its return
    conventions (0 for "no such cycle", the six-field steps tuple)."""

    def test_planning_modes_match_inline_walks(self, native, monkeypatch):
        from repro import kernels
        from repro.backend import backend as backend_module

        monkeypatch.setattr(backend_module, "_native_replay", None)
        rng = random.Random(51)
        for _ in range(300):
            engine = _random_engine(rng)
            cap = rng.choice([5, 64, 4096])
            space = rng.randrange(0, engine.iq_capacity + 1)
            credit, ipc = engine._credit, engine._ipc
            iq = engine._iq_count

            space_limit = engine.iq_capacity - space if space else -1
            horizon = native.replay_walk(
                kernels.REPLAY_HORIZON, credit, ipc, iq, cap, space_limit
            )
            assert engine.replay_horizon(space, cap) == (
                (horizon or None) if iq else None
            )

    def test_steps_mode_matches_stepped_settlement(self, native, monkeypatch):
        from repro import kernels
        from repro.backend import backend as backend_module
        from repro.errors import SimulationError

        monkeypatch.setattr(backend_module, "_native_replay", None)
        rng = random.Random(52)
        stalls = 0
        for _ in range(400):
            engine = _random_engine(rng)
            cycles = rng.randrange(1, 60)
            committed, base, last, iq, credit, stalled = native.replay_walk(
                kernels.REPLAY_STEPS,
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
    """The CommitEngine kernel path (bound to native) vs its inline loops."""

    def test_routed_walks_match_inline(self, native, monkeypatch):
        from repro.backend import backend as backend_module

        rng = random.Random(53)
        for _ in range(200):
            seed = rng.randrange(1 << 30)
            cap = rng.choice([7, 64, 4096])
            capacity = _random_engine(random.Random(seed)).iq_capacity
            space = rng.randrange(0, capacity + 1)

            def walk(engine):
                results = [
                    engine.replay_horizon(space, cap),
                    engine.replay_horizon(0, cap),
                ]
                # Up to the drain, or the whole cap when the queue does
                # not drain inside it: every such cycle is replayable.
                span = results[-1] or (cap if engine._iq_count else 0)
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
                backend_module, "_native_replay", native.replay_walk
            )
            routed = _random_engine(random.Random(seed))
            occupied = routed._iq_count > 0
            assert walk(routed) == inline_results
            # An empty queue short-circuits before the kernel call.
            assert (routed.replay_walk_engaged > 0) == occupied

    def test_routed_stall_matches_inline(self, native, monkeypatch):
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
            backend_module, "_native_replay", native.replay_walk
        )
        routed = drained_engine()
        with pytest.raises(SimulationError, match="stall boundary"):
            routed.replay_steps(10)

        assert routed._iq_count == inline._iq_count == 0
        assert repr(routed._credit) == repr(inline._credit)
        assert routed.stats.committed == inline.stats.committed
        assert routed.stats.base_cycles == inline.stats.base_cycles


# -- randomized trials, native vs inline --------------------------------------


def _with_indirect_branches(traces, rng, fraction=0.2):
    """``traces`` with a random share of conditional branches turned
    into taken indirect ones, so warming trains the BTB (synthesized
    traces carry only conditional branches)."""
    from repro.trace.records import (
        BasicBlockRecord,
        BranchKind,
        BranchOutcome,
    )
    from repro.trace.stream import ThreadTrace, TraceSet

    threads = []
    for thread in traces.threads:
        records = []
        for record in thread.records:
            if (
                type(record) is BasicBlockRecord
                and record.branch is not None
                and rng.random() < fraction
            ):
                record = BasicBlockRecord(
                    record.address,
                    record.instruction_count,
                    BranchOutcome(
                        BranchKind.INDIRECT, True, rng.randrange(1 << 20) * 4
                    ),
                )
            records.append(record)
        threads.append(ThreadTrace(thread.thread_id, records))
    return TraceSet(traces.benchmark, threads)


def _overwrites(addresses, shift, mask):
    """True when two distinct tags share one table index."""
    tags_by_index = {}
    for address in addresses:
        tags_by_index.setdefault((address >> shift) & mask, set()).add(
            address >> shift
        )
    return any(len(tags) > 1 for tags in tags_by_index.values())


class TestCompiledSpanEquivalence:
    def test_warm_span(self, native, monkeypatch):
        """BatchedWarmer with ``warm_span`` bound vs ``_walk_span_py``,
        over several benchmarks, seeds and machine shapes. The caches,
        iTLB and gshare are shrunk so that evictions, lazy LRU order
        lists, iTLB evictions and loop/BTB overwrites all occur."""
        from repro.machine.model import get_model
        from repro.sampling import SamplingPlan
        from repro.sampling.slicer import IntervalKind, slice_traces
        from repro.trace.records import BasicBlockRecord, BranchKind
        from repro.trace.synthesis import synthesize_benchmark

        model = get_model("acmp")
        small = {
            "master_icache_bytes": 2048,
            "l2_bytes": 4096,
            "itlb_entries": 2,
            "gshare_bytes": 256,
        }
        plan = SamplingPlan(
            detail_instructions=2_000,
            skip_instructions=6_000,
            warmup_instructions=6_000,
        )
        seen = {"l1": 0, "l2": 0, "itlb": 0, "loop": 0, "btb": 0}
        trials = [("UA", 0), ("CG", 1), ("CoMD", 2), ("BT", 3), ("SP", 4)]
        for trial, (bench, seed) in enumerate(trials):
            itlb = trial != 1  # one trial walks with no iTLB at all
            if trial % 2:
                config = model.baseline_config(
                    itlb_enabled=itlb, worker_icache_bytes=2048, **small
                )
            else:
                config = model.shared_config(
                    icache_kb=2, itlb_enabled=itlb, **small
                )
            rng = random.Random(seed)
            traces = _with_indirect_branches(
                synthesize_benchmark(
                    bench,
                    thread_count=config.core_count,
                    scale=0.2,
                    seed=seed,
                ),
                rng,
            )
            intervals = [
                interval
                for interval in slice_traces(traces, plan)
                if interval.kind is not IntervalKind.SKIP
            ]
            setup = (model, config, traces, intervals)
            inline, inline_blocks = _warm_with(monkeypatch, None, *setup)
            routed, routed_blocks = _warm_with(
                monkeypatch, native.warm_span, *setup
            )
            assert routed_blocks == inline_blocks > 0, bench
            assert (
                routed.system.capture_warm_state().to_dict()
                == inline.system.capture_warm_state().to_dict()
            ), bench
            assert _insertion_orders(routed.system) == _insertion_orders(
                inline.system
            ), bench

            for hardware in inline.system.group_hardware:
                l1, l2 = hardware.cache, hardware.hierarchy.l2
                seen["l1"] += len(l1.stats._seen_lines) > l1.set_count * l1.ways
                seen["l2"] += len(l2.stats._seen_lines) > l2.set_count * l2.ways
            for core in inline.system.cores:
                frontend = core.frontend
                if frontend.itlb is not None:
                    seen["itlb"] += (
                        len(frontend.itlb._seen_pages) > frontend.itlb.entries
                    )
                predictor = frontend.predictor
                records = traces.threads[core.core_id].records
                blocks = [
                    record
                    for interval in intervals
                    for record in records[slice(*interval.spans[core.core_id])]
                    if type(record) is BasicBlockRecord
                    and record.branch is not None
                ]
                loop, btb = predictor.loop, predictor.btb
                seen["loop"] += _overwrites(
                    [
                        b.branch_address
                        for b in blocks
                        if b.branch.kind is BranchKind.CONDITIONAL
                    ],
                    loop._index_shift,
                    loop._mask,
                )
                seen["btb"] += _overwrites(
                    [
                        b.branch_address
                        for b in blocks
                        if b.branch.kind is BranchKind.INDIRECT
                    ],
                    btb._index_shift,
                    btb._mask,
                )
        assert all(seen.values()), seen

    def test_replay_walk(self, native, monkeypatch):
        """Every CommitEngine walk, native-bound vs inline, over random
        credit trajectories; the float credit must match bit for bit."""
        from repro import kernels
        from repro.backend import backend as backend_module
        from repro.errors import SimulationError

        capacity = 80

        def run(binding, mode, credit, ipc, iq, count, space_limit):
            monkeypatch.setattr(backend_module, "_native_replay", binding)
            engine = backend_module.CommitEngine(iq_capacity=capacity)
            engine._credit = credit
            engine._ipc = ipc
            engine._iq_count = iq
            if mode == kernels.REPLAY_HORIZON:
                space = capacity - space_limit if space_limit >= 0 else 0
                result = engine.replay_horizon(space, count)
            else:
                try:
                    result = engine.replay_steps(count)
                except SimulationError:
                    result = "stall"
            state = (
                result,
                engine._iq_count,
                # Float credit must match bit for bit, not just ==.
                repr(engine._credit),
                engine.stats.committed,
                engine.stats.base_cycles,
            )
            return state, engine.replay_walk_engaged

        rng = random.Random(63)
        stalls = 0
        for trial in range(4000):
            mode = rng.choice([kernels.REPLAY_HORIZON, kernels.REPLAY_STEPS])
            credit = rng.uniform(0.0, 1.5)
            ipc = rng.choice(
                [0.3, 0.6, 0.75, 1.0, 1.6, 2.3, rng.uniform(0.05, 4.0)]
            )
            iq = rng.randrange(0, 80)
            count = rng.randrange(0, 300)
            space_limit = rng.choice([-1, rng.randrange(0, 80)])
            args = (mode, credit, ipc, iq, count, space_limit)
            inline, inline_engaged = run(None, *args)
            routed, routed_engaged = run(native.replay_walk, *args)
            assert routed == inline, (trial, args)
            assert inline_engaged == 0
            # Planning walks short-circuit on an empty queue.
            assert routed_engaged == (
                1 if iq or mode == kernels.REPLAY_STEPS else 0
            ), (trial, args)
            stalls += inline[0] == "stall"
        assert stalls > 0, "trial mix never crossed a stall boundary"


# -- stale extension -----------------------------------------------------------


def _fresh_kernels_with_stale_native(monkeypatch, value, abi=None):
    """Re-import repro.kernels against a fake native module built from
    older source, restoring real bindings afterwards. The fake carries
    both entry points as plain stubs; by default it reports no ``ABI``
    (a build older than the interface version), with ``abi`` that
    version."""
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

    def stub(*args):
        raise AssertionError("a stale extension's entry point was called")

    stale = types.ModuleType("repro.kernels._native")
    stale.warm_span = stub
    stale.replay_walk = stub
    if abi is not None:
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
        with pytest.raises(ConfigurationError, match="stale.*ABI None"):
            _fresh_kernels_with_stale_native(monkeypatch, "compiled")

    def test_default_demotes_stale_extension(self, monkeypatch):
        module = _fresh_kernels_with_stale_native(monkeypatch, None)
        assert module.NATIVE is False
        assert module.backend_name() == "py"
        assert module.warm_span is None

    def test_older_abi_is_stale(self, monkeypatch):
        """An extension with both entry points but an older table
        layout (list-typed gshare counters) must not engage."""
        from repro import kernels

        older = kernels.ABI - 1
        with pytest.raises(ConfigurationError, match=f"ABI {older}"):
            _fresh_kernels_with_stale_native(monkeypatch, "compiled", older)
        module = _fresh_kernels_with_stale_native(monkeypatch, None, older)
        assert module.NATIVE is False


# -- build CLI ---------------------------------------------------------------


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

    def test_check_names_a_stale_builds_abi(self, monkeypatch, tmp_path):
        # repro.kernels rejects a stale build by resetting its `_native`
        # attribute to None; the check must still report the ABI the
        # loaded extension carries.
        import types

        from repro import kernels
        from repro.kernels import build as build_module

        target = build_module.extension_path(tmp_path)
        target.touch()
        stale = types.ModuleType("repro.kernels._native")
        stale.ABI = kernels.ABI - 1
        monkeypatch.setitem(sys.modules, "repro.kernels._native", stale)
        monkeypatch.setattr(kernels, "_native", None)
        assert build_module.staleness(tmp_path) == (
            f"{target.name} reports ABI {kernels.ABI - 1}, "
            f"expected {kernels.ABI}"
        )

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
