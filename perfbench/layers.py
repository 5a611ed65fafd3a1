"""Spans and counts at the program's layer boundaries, from outside it.

:func:`install` replaces public entry points of each layer with timing
wrappers for the life of the process (a timed pass is one process, so
nothing is ever restored). Each wrapper records a span — layer, start,
end, parent span — and the layer's self time: the span's duration minus
the time its child spans cover. No file under ``src/`` changes.

Two wrappers reach below the public surface because no public call
brackets the work: ``ChunkedThreadReader._chunk`` (one call per decoded
``.trcz`` chunk) and the ``instructions == 0`` test that tells the
sampled simulator's transient-probe walks apart from warming of the
real trace.

:func:`module_shares` rolls a ``cProfile`` run up into self-time shares
per ``repro`` subpackage.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

#: Subpackages reported by name in the profile split; every other
#: frame that the rollup cannot charge to one of them lands in "other".
PROFILE_MODULES = (
    "engine",
    "machine",
    "frontend",
    "backend",
    "interconnect",
    "cache",
    "branch",
    "trace",
    "sampling",
    "campaign",
    "experiments",
    "other",
)

#: Raw spans kept for the trace file; the aggregates never drop any.
SPAN_LIMIT = 200_000


class LayerTracer:
    """Nested wall-clock spans plus per-layer counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Seconds covered by outermost spans; the rest of a pass is the
        #: experiment code's own time.
        self.top_s = 0.0
        self.spans: list[tuple[str, float, float, int]] = []
        # Open frames: [layer, start, child seconds, span index].
        self._stack: list[list] = []
        self._origin = time.perf_counter()

    def wrap(self, layer, function, observe=None):
        """``function`` timed as a ``layer`` span; ``observe(result,
        args)`` updates counts after each call that returns."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            frame = [layer, clock(), 0.0, len(self.spans)]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_s += duration
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append(
                        (layer, frame[1] - self._origin, end - self._origin, parent)
                    )
            if observe is not None:
                observe(result, args)
            return result

        traced.__wrapped__ = function
        return traced

    def chrome_trace(self) -> dict:
        """The kept spans as a Chrome-trace / Perfetto document."""
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": 0,
                "args": {"parent": parent},
            }
            for layer, start, end, parent in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def install_run_timer(
    runs: list[float], sampler=None, chunk_ranges: list | None = None
) -> None:
    """Append the host seconds of every ``execute_run`` call to ``runs``.

    Installed in every pass, traced or not: it costs two clock reads per
    design point. With a running ``sampler`` (``reference.py``), the
    chunks it timed during a run are taken out of the run's seconds,
    and the run's range of ``sampler.speeds`` goes to ``chunk_ranges``.
    """
    import repro.campaign.runner as runner

    original = runner.execute_run

    def timed_run(*args, **kwargs):
        if sampler is not None:
            first, spent = len(sampler.speeds), sampler.spent_s
        started = time.perf_counter()
        result = original(*args, **kwargs)
        elapsed = time.perf_counter() - started
        if sampler is not None:
            elapsed -= sampler.spent_s - spent
            chunk_ranges.append((first, len(sampler.speeds)))
        runs.append(elapsed)
        return result

    runner.execute_run = timed_run


def install(tracer: LayerTracer, reports: list) -> None:
    """Wrap each layer's entry points; campaign reports go to ``reports``."""
    import repro.campaign.runner as runner
    import repro.experiments.common as common
    import repro.sampling as sampling
    import repro.sampling.simulator as sampled
    import repro.trace.provider as provider
    import repro.trace.synthesis as synthesis
    from repro.campaign.store import ResultStore
    from repro.machine.model import get_model
    from repro.machine.simulator import SystemSimulator
    from repro.sampling.checkpoints import CheckpointStore
    from repro.sampling.warmer import BatchedWarmer
    from repro.trace.chunked import ChunkedThreadReader

    counts = tracer.counts

    def synthesized(traces, _args):
        counts["trace.records"] += sum(len(t.records) for t in traces.threads)

    synthesis.synthesize_benchmark = tracer.wrap(
        "trace", synthesis.synthesize_benchmark, synthesized
    )
    provider.open_trace_set = tracer.wrap("trace", provider.open_trace_set)

    chunk = ChunkedThreadReader._chunk
    traced_chunk = tracer.wrap("trace", chunk)

    def decode(reader, ordinal):
        # Record reads hit the reader's chunk cache; only a miss decodes.
        if ordinal in reader._cache:
            return chunk(reader, ordinal)
        records = traced_chunk(reader, ordinal)
        counts["trace.records"] += len(records)
        counts["trace.bytes_read"] += reader._entries[ordinal].length
        return records

    ChunkedThreadReader._chunk = decode

    model_class = type(get_model("acmp"))
    model_class.build_system = tracer.wrap("machine", model_class.build_system)

    sampled.slice_traces = tracer.wrap("sampling.slice", sampled.slice_traces)

    warm_interval = BatchedWarmer.warm_interval

    def warm(warmer, interval):
        # The transient probe walks a synthetic zero-instruction interval;
        # it is not warming of the sampled trace.
        if interval.instructions == 0:
            counts["sampling.probe_warm_intervals"] += 1
            return warm_interval(warmer, interval)
        blocks = traced_warm(warmer, interval)
        counts["sampling.warm_intervals"] += 1
        counts["sampling.warm_blocks"] += blocks
        return blocks

    traced_warm = tracer.wrap("sampling.warm", warm_interval)
    BatchedWarmer.warm_interval = warm

    def got(state, _args):
        counts["sampling.ckpt_hits" if state is not None else "sampling.ckpt_misses"] += 1

    def put(path, _args):
        counts["sampling.ckpt_bytes"] += path.stat().st_size

    CheckpointStore.get = tracer.wrap("sampling.ckpt_get", CheckpointStore.get, got)
    CheckpointStore.put = tracer.wrap("sampling.ckpt_put", CheckpointStore.put, put)
    ResultStore.get = tracer.wrap("campaign.result_get", ResultStore.get)
    ResultStore.put = tracer.wrap("campaign.result_put", ResultStore.put)
    SystemSimulator.run = tracer.wrap("engine", SystemSimulator.run)
    sampling.simulate_sampled = tracer.wrap("sampling.simulate", sampling.simulate_sampled)
    runner.execute_run = tracer.wrap("campaign.run", runner.execute_run)

    run_specs = common.run_specs

    def captured(*args, **kwargs):
        report = run_specs(*args, **kwargs)
        reports.append(report)
        return report

    common.run_specs = captured


def _package(filename: str, root: str) -> str | None:
    """The ``repro`` subpackage a profiled frame belongs to, or None
    for a frame outside the package directory ``root``."""
    if not filename.startswith(root):
        return None
    head = filename[len(root):].split(os.sep, 1)[0]
    package = head[:-3] if head.endswith(".py") else head
    return package if package in PROFILE_MODULES else "other"


def module_shares(stats) -> dict[str, float]:
    """Self-time shares per ``repro`` subpackage from a ``pstats.Stats``.

    Frames outside ``repro`` (builtins, the standard library, these
    wrappers) are charged to their callers: a frame's self time splits
    over its direct callers by the time each caller spent in it, and
    each part moves on up the same way until it reaches a ``repro``
    frame. Time with no ``repro`` caller stays in "other".
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    table = stats.stats
    # Where one second spent in a frame ends up, per subpackage.
    destinations: dict[tuple, dict[str, float]] = {}
    pending = object()

    def destination(function, weight_index: int) -> dict[str, float]:
        package = _package(function[0], root)
        if package is not None:
            return {package: 1.0}
        key = (function, weight_index)
        known = destinations.get(key)
        if known is pending:  # a cycle among non-repro frames
            return {"other": 1.0}
        if known is not None:
            return known
        destinations[key] = pending
        callers = table.get(function, (0, 0, 0, 0, {}))[4]
        # A frame's own self time splits by each caller's tottime in it;
        # time passed up from a callee splits by cumulative time.
        weights = {caller: entry[weight_index] for caller, entry in callers.items()}
        total = sum(weights.values())
        spread: dict[str, float] = defaultdict(float)
        if total <= 0:
            spread["other"] = 1.0
        else:
            for caller, weight in weights.items():
                for package, part in destination(caller, 3).items():
                    spread[package] += part * weight / total
        destinations[key] = spread
        return spread

    charged: dict[str, float] = defaultdict(float)
    for function, (_cc, _nc, tottime, _ct, _callers) in table.items():
        if tottime > 0:
            for package, part in destination(function, 2).items():
                charged[package] += tottime * part
    grand = sum(charged.values()) or 1.0
    return {module: charged.get(module, 0.0) / grand for module in PROFILE_MODULES}
