"""The warm-checkpoint store and the batched functional warmer.

Three contracts:

* the :class:`BatchedWarmer` is a pure speedup — the warm state it
  produces is bit-identical to the scalar reference walk's;
* :class:`CheckpointStore` entries are served only under their exact
  identity (header verification, shape digests) and degrade to misses,
  never to wrong state;
* the campaign maintenance commands treat the checkpoint tree as
  first-class: ``gc`` prunes stale/unparsable/legacy entries, ``merge``
  unions trees newest-wins.

Plus the binary container itself: byte-exact round trips, and a
corruption battery in which every damaged entry is a miss that the
next ``put`` heals.
"""

import gc
import json
import os
import time
from dataclasses import replace

import pytest

from repro.campaign.store import ResultStore, merge_stores
from repro.errors import ConfigurationError
from repro.machine.model import get_model
from repro.machine.system import warm_shape_digest
from repro.machine.warm import WarmState
from repro.sampling import (
    BatchedWarmer,
    CheckpointKey,
    CheckpointStore,
    SamplingPlan,
    trace_fingerprint,
)
from repro.sampling.checkpoints import (
    _MAGIC,
    _PREFIX,
    _pack,
    _unpack,
    decode_state,
    encode_state,
)
from repro.sampling.simulator import _warm_interval
from repro.sampling.slicer import IntervalKind, slice_traces
from repro.trace.synthesis import synthesize_benchmark

TINY_PLAN = SamplingPlan(
    detail_instructions=2_000,
    skip_instructions=6_000,
    warmup_instructions=6_000,
)


def _warm_intervals(traces):
    return [
        interval
        for interval in slice_traces(traces, TINY_PLAN)
        if interval.kind is not IntervalKind.SKIP
    ]


class TestBatchedWarmer:
    @pytest.mark.parametrize("machine", ["acmp", "scmp"])
    @pytest.mark.parametrize("point", ["baseline", "shared"])
    def test_batched_walk_is_bit_identical_to_scalar(self, machine, point):
        model = get_model(machine)
        config = (
            model.baseline_config() if point == "baseline"
            else model.shared_config()
        )
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        intervals = _warm_intervals(traces)
        assert intervals, "probe trace too small to slice"

        scalar = model.build_system(config, traces)
        for interval in intervals:
            _warm_interval(scalar, traces, interval)

        batched = model.build_system(config, traces)
        warmer = BatchedWarmer(batched, traces)
        blocks = sum(warmer.warm_interval(i) for i in intervals)
        assert blocks > 0

        assert (
            batched.capture_warm_state().to_dict()
            == scalar.capture_warm_state().to_dict()
        )

    def test_batched_walk_survives_a_restore(self):
        """Restores adopt snapshot storage; the warmer must keep
        warming the adopted tables, not stranded pre-restore ones."""
        model = get_model("acmp")
        config = model.shared_config()
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        intervals = _warm_intervals(traces)
        assert len(intervals) >= 2

        scalar = model.build_system(config, traces)
        for interval in intervals:
            _warm_interval(scalar, traces, interval)

        batched = model.build_system(config, traces)
        warmer = BatchedWarmer(batched, traces)
        warmer.warm_interval(intervals[0])
        batched.restore_warm_state(batched.capture_warm_state())
        for interval in intervals[1:]:
            warmer.warm_interval(interval)
        assert (
            batched.capture_warm_state().to_dict()
            == scalar.capture_warm_state().to_dict()
        )


def _key(**overrides):
    fields = dict(
        machine="acmp", benchmark="UA", seed=0, scale=1.0, threads=9,
        fingerprint="a" * 12, plan="d2000:s6000:w6000:r0",
        warm_l2=True, shape="b" * 12,
    )
    fields.update(overrides)
    return CheckpointKey(**fields)


def _blob(label="shared::32KB"):
    """A small valid encoded state; ``label`` tells writers apart."""
    return encode_state(WarmState(machine="acmp", config_label=label))


def _label(entry):
    return decode_state(entry).config_label


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get(_key(), 0) is None
        store.put(_key(), 0, _blob(), "shared::32KB")
        assert decode_state(store.get(_key(), 0)) == decode_state(_blob())
        assert store.path_for(_key(), 0).name == "detail0.ckpt"
        assert len(store) == 1
        assert store.total_bytes() > 0

    @pytest.mark.parametrize(
        "mismatch",
        [
            {"fingerprint": "c" * 12},
            {"shape": "c" * 12},
            {"machine": "scmp"},
            {"seed": 1},
            {"scale": 0.5},
            {"plan": "d1000:s6000:w6000:r0"},
            {"warm_l2": False},
        ],
    )
    def test_identity_mismatch_is_a_miss(self, tmp_path, mismatch):
        store = CheckpointStore(tmp_path)
        store.put(_key(), 0, _blob())
        other = _key(**mismatch)
        # A differing key lands in a different directory; force the
        # collision by copying the entry onto the other key's path.
        victim = store.path_for(other, 0)
        victim.parent.mkdir(parents=True, exist_ok=True)
        victim.write_bytes(store.path_for(_key(), 0).read_bytes())
        assert store.get(other, 0) is None

    def test_wrong_detail_index_and_corruption_are_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.put(_key(), 2, _blob())
        assert store.get(_key(), 2) is not None
        bad = store.path_for(_key(), 3)
        bad.write_bytes(path.read_bytes())  # claims detail=2, named 3
        assert store.get(_key(), 3) is None
        path.write_bytes(b"not a checkpoint")
        assert store.get(_key(), 2) is None

    def test_put_refuses_a_non_container(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ConfigurationError, match="encoded warm state"):
            store.put(_key(), 0, b"{}")

    def test_gc_prunes_stale_and_unparsable_entries(self, tmp_path):
        traces = synthesize_benchmark("CG", thread_count=3, scale=0.05)
        live_key = _key(
            benchmark="CG", threads=3, scale=0.05,
            fingerprint=trace_fingerprint(traces),
        )
        store = CheckpointStore(tmp_path)
        live = store.put(live_key, 0, _blob())
        stale = store.put(
            replace(live_key, fingerprint="d" * 12), 0, _blob()
        )
        retired = store.put(_key(machine="vliw9000"), 0, _blob())
        corrupt = store.path_for(_key(benchmark="BT"), 0)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_bytes(_MAGIC + b"\x00" * 4)

        preview = set(store.gc(dry_run=True))
        assert preview == {stale, retired, corrupt}
        assert all(path.exists() for path in preview)
        assert set(store.gc()) == preview
        assert live.exists()
        assert not any(path.exists() for path in preview)

    def test_merge_unions_checkpoint_trees_newest_wins(self, tmp_path):
        roots = [tmp_path / name for name in ("host_a", "host_b", "merged")]
        for root in roots:
            ResultStore(root)  # materialise the result-store trees
        key = _key()
        store_a = CheckpointStore(roots[0] / CheckpointStore.SUBDIR)
        store_b = CheckpointStore(roots[1] / CheckpointStore.SUBDIR)
        store_a.put(key, 0, _blob("a"))
        store_a.put(key, 1, _blob("a"))
        store_b.put(key, 1, _blob("b"))
        store_b.put(key, 2, _blob("b"))
        # Host B's detail1 is strictly newer than host A's.
        newer = time.time() + 10
        os.utime(store_b.path_for(key, 1), (newer, newer))

        report = merge_stores([roots[0], roots[1]], roots[2])
        assert report.checkpoints >= 3
        assert "checkpoint" in report.summary()
        merged = CheckpointStore(roots[2] / CheckpointStore.SUBDIR)
        assert _label(merged.get(key, 0)) == "a"
        assert _label(merged.get(key, 1)) == "b"
        assert _label(merged.get(key, 2)) == "b"


def _legacy_entry(store, key, detail_index):
    """Plant an entry of the retired JSON format beside the new ones."""
    path = store.path_for(key, detail_index).with_suffix(".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"key": key.header(), "detail": detail_index, "state": {}}
        )
    )
    return path


class TestLegacyEntries:
    """``detail<k>.json`` entries of the retired format are never
    served, never merged, and pruned by gc."""

    def test_get_treats_a_legacy_entry_as_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _legacy_entry(store, _key(), 0)
        assert store.get(_key(), 0) is None
        assert len(store) == 0

    def test_gc_prunes_legacy_entries(self, tmp_path):
        traces = synthesize_benchmark("CG", thread_count=3, scale=0.05)
        live_key = _key(
            benchmark="CG", threads=3, scale=0.05,
            fingerprint=trace_fingerprint(traces),
        )
        store = CheckpointStore(tmp_path)
        live = store.put(live_key, 0, _blob())
        legacy = _legacy_entry(store, live_key, 1)
        assert store.gc(dry_run=True) == [legacy]
        assert legacy.exists()
        assert store.gc() == [legacy]
        assert not legacy.exists()
        assert live.exists()

    def test_merge_lists_entries_through_the_store(self, tmp_path):
        source, destination = tmp_path / "host", tmp_path / "merged"
        ResultStore(source)
        store = CheckpointStore(source / CheckpointStore.SUBDIR)
        current = store.put(_key(), 0, _blob())
        legacy = _legacy_entry(store, _key(), 1)

        report = merge_stores([source], destination)
        assert report.checkpoints == 1
        merged_root = destination / CheckpointStore.SUBDIR
        relative = current.relative_to(store.root)
        assert (merged_root / relative).read_bytes() == current.read_bytes()
        assert not (merged_root / legacy.relative_to(store.root)).exists()


def _warmed_state(machine="acmp"):
    model = get_model(machine)
    config = model.baseline_config()
    traces = synthesize_benchmark(
        "UA", thread_count=config.core_count, scale=0.2
    )
    system = model.build_system(config, traces)
    system.warm_instruction_l2s()
    warmer = BatchedWarmer(system, traces)
    for interval in _warm_intervals(traces):
        warmer.warm_interval(interval)
    return model, config, traces, system.capture_warm_state()


class TestCodec:
    @pytest.mark.parametrize("machine", ["acmp", "scmp"])
    def test_round_trip_is_byte_identical(self, machine):
        _, _, _, state = _warmed_state(machine)
        blob = encode_state(state)
        decoded = decode_state(blob)
        assert encode_state(decoded) == blob
        assert decoded.to_dict() == state.to_dict()
        assert encode_state(state) == blob  # deterministic

    def test_dense_tables_are_compressed_sections(self):
        _, _, _, state = _warmed_state()
        blob = encode_state(state)
        header, _ = _unpack(blob)
        typecodes = {typecode for typecode, _, _ in header["sections"]}
        assert typecodes == {"B", "h", "i", "q"}
        # Nine 64 Ki-counter gshare tables alone inflate to 576 KiB.
        assert header["body"] > 9 * 65536
        assert len(blob) < header["body"] // 10

    def test_gshare_tables_are_untracked_by_gc(self):
        model, config, traces, state = _warmed_state()
        system = model.build_system(config, traces)
        directions = [core.frontend.predictor.direction
                      for core in system.cores]
        assert not any(gc.is_tracked(d._counters) for d in directions)
        system.restore_warm_state(decode_state(encode_state(state)))
        assert all(type(d._counters) is bytearray for d in directions)
        assert not any(gc.is_tracked(d._counters) for d in directions)


def _rewrite_header(blob, mutate):
    """Re-pack ``blob`` with ``mutate`` applied to its header (the CRC
    is recomputed, so only the mutation itself is wrong)."""
    header, compressed = _unpack(blob)
    mutate(header)
    return _pack(header, compressed)


def _shrink_body(header):
    """Declare 8 bytes less body (the last section shrinks to match),
    so the stream inflates past the declared size."""
    header["body"] -= 8
    header["sections"][-1][2] -= 8


def _stretch_last_section(header):
    header["sections"][-1][2] += 8


def _header_end(blob):
    length, _ = _PREFIX.unpack_from(blob, len(_MAGIC))
    return len(_MAGIC) + _PREFIX.size + length


def _flip_compressed_byte(blob):
    start = _header_end(blob)
    middle = start + (len(blob) - start) // 2
    return blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1:]


_CORRUPTIONS = {
    "bad_magic": lambda blob: b"X" + blob[1:],
    "truncated_header": lambda blob: blob[: _header_end(blob) - 5],
    "truncated_body": lambda blob: blob[:-6],
    "flipped_compressed_byte": _flip_compressed_byte,
    "section_past_body_end": lambda blob: _rewrite_header(
        blob, _stretch_last_section
    ),
    "body_inflates_beyond_declared_size": lambda blob: _rewrite_header(
        blob, _shrink_body
    ),
}


class TestCorruptionBattery:
    """Every damaged entry is a miss, never an exception or wrong
    state, and the next ``put`` heals it."""

    @pytest.fixture(scope="class")
    def blob(self):
        return encode_state(_warmed_state()[3])

    @pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
    def test_damage_is_a_miss_and_put_self_heals(self, tmp_path, blob, case):
        store = CheckpointStore(tmp_path)
        path = store.put(_key(), 0, blob)
        good = path.read_bytes()
        assert store.get(_key(), 0) == good
        damaged = _CORRUPTIONS[case](good)
        assert damaged != good
        path.write_bytes(damaged)
        # A fresh reader: no memo of the verified entry.
        assert CheckpointStore(tmp_path).get(_key(), 0) is None
        with pytest.raises(ConfigurationError):
            decode_state(damaged)
        store.put(_key(), 0, blob)
        assert path.read_bytes() == good
        assert CheckpointStore(tmp_path).get(_key(), 0) == good


class TestShapeDigest:
    def test_digest_ignores_timing_but_not_geometry(self):
        model = get_model("acmp")
        config = model.baseline_config()
        digest = warm_shape_digest(config, model.build_topology(config))
        again = warm_shape_digest(config, model.build_topology(config))
        assert digest == again
        bigger = model.baseline_config(worker_icache_bytes=64 * 1024)
        assert digest != warm_shape_digest(
            bigger, model.build_topology(bigger)
        )

    def test_restore_refuses_a_different_shape(self):
        model = get_model("acmp")
        config = model.baseline_config()
        traces = synthesize_benchmark(
            "CG", thread_count=config.core_count, scale=0.05
        )
        state = model.build_system(config, traces).capture_warm_state()
        bigger = model.baseline_config(worker_icache_bytes=64 * 1024)
        target = model.build_system(bigger, traces)
        with pytest.raises(ConfigurationError, match="design point"):
            target.restore_warm_state(state)
