"""Batched functional warming: the scalar trace walk, vectorized.

Functional warming is pure bookkeeping — no cycles pass, no results are
read — so its cost is entirely Python dispatch: per walked line, the
scalar walk (`repro.sampling.simulator._warm_interval`) pays an iTLB
method call, a line-buffer probe with per-entry attribute access, and on
misses a cache access that threads through policy objects and stats
counters. :class:`BatchedWarmer` flattens all of that into one tight
loop over each thread's span with every table bound to a local:

* line buffers become two flat lists (lines, last-use clocks) written
  back once per span;
* the gshare/loop/BTB updates are inlined (prediction *reads* touch only
  stats counters, which are not warm state, so the warmer skips them
  entirely and replicates just the state-mutating updates);
* L1I/L2 accesses operate on the tag rows and LRU order lists directly,
  with non-LRU policies falling back to their policy-object methods;
* stats counters are not maintained — except the compulsory-miss
  classifier sets (lines/pages ever seen), which are warm state.

Bit-identity with the scalar walk is a contract, enforced by tests: the
first-minimum victim tie-breaks, clock-bump counts and dict insertion
orders all replicate the scalar structures exactly. The warmer wraps a
*real* warming :class:`~repro.machine.system.System` (holding only
references to its structures and re-reading the inner tables each span,
so a ``restore_warm_state`` — which adopts new storage — never leaves
the warmer stale), which keeps capture/restore and every policy variant
working without a parallel implementation.

Warming has exactly three walks: the scalar ``_warm_interval``, which
stays the oracle; :meth:`BatchedWarmer._walk_span_py`, the one Python
batched walk; and the compiled ``warm_span`` (:mod:`repro.kernels`),
which replaces ``_walk_span_py`` on cores whose structures match its
fast path (:class:`_CoreShape`: LRU L1I, stock gshare).
"""

from __future__ import annotations

from typing import NamedTuple

from repro import kernels
from repro.branch.gshare import GsharePredictor
from repro.cache.replacement import LruPolicy
from repro.machine.system import System
from repro.sampling.slicer import Interval
from repro.trace.records import BasicBlockRecord, BranchKind
from repro.trace.stream import TraceSet

__all__ = ["BatchedWarmer"]

#: Compiled whole-span walk (iTLB + lb/L1/L2 + branch structures in one
#: call over the flat span encoding), or None on the pure-Python
#: backend. Engaged per core when the structures match the kernel's
#: fast path exactly (LRU L1, stock gshare); other cores take
#: ``_walk_span_py``.
_native_span = kernels.warm_span

_CONDITIONAL = BranchKind.CONDITIONAL
_INDIRECT = BranchKind.INDIRECT


class _CoreShape(NamedTuple):
    """Construction-time constants of one core's warm structures.

    Geometry — masks, shifts, way counts, iTLB capacity — is fixed when
    the structures are built; warm-state restores adopt new *tables*,
    never new shapes, so these are captured once per core instead of
    being re-read on every span (the tables themselves still are).
    """

    g_mask: int
    g_shift: int
    lp_mask: int
    lp_shift: int
    b_mask: int
    b_shift: int
    t_shift: int
    t_capacity: int
    l1_ways: int
    l1_shift: int
    l1_set_mask: int
    l2_ways: int
    l2_shift: int
    l2_set_mask: int


class _SpanEncoding:
    """One thread's records flattened to parallel span columns.

    Per basic block: the first line address and line count of its fetch
    walk, and its terminating branch as (kind, key, target, taken) with
    kind 0 = trains nothing, 1 = conditional, 2 = indirect. ``prefix``
    maps a record index to the number of encoded blocks before it, so a
    record span ``[start, end)`` becomes the block range
    ``[prefix[start], prefix[end])``. ``source`` keeps the records list
    alive so an identity check can never alias a recycled id.
    """

    __slots__ = (
        "source",
        "length",
        "prefix",
        "starts",
        "counts",
        "kinds",
        "keys",
        "targets",
        "takens",
    )

    def __init__(self, records, line_bytes: int) -> None:
        self.source = records
        self.length = len(records)
        prefix = [0] * (self.length + 1)
        self.starts = starts = []
        self.counts = counts = []
        self.kinds = kinds = []
        self.keys = keys = []
        self.targets = targets = []
        self.takens = takens = []
        line_mask = -line_bytes
        blocks = 0
        for index, record in enumerate(records):
            prefix[index] = blocks
            if type(record) is not BasicBlockRecord:
                continue
            blocks += 1
            start_line = record.address & line_mask
            span = record.end_address - start_line
            starts.append(start_line)
            counts.append(
                (span + line_bytes - 1) // line_bytes if span > 0 else 0
            )
            kind = 0
            key = 0
            target = 0
            taken = 0
            branch = record.branch
            if branch is not None:
                branch_kind = branch.kind
                if branch_kind is _CONDITIONAL:
                    kind = 1
                    key = record.branch_address
                    taken = 1 if branch.taken else 0
                elif branch_kind is _INDIRECT:
                    kind = 2
                    key = record.branch_address
                    target = branch.target
            kinds.append(kind)
            keys.append(key)
            targets.append(target)
            takens.append(taken)
        prefix[self.length] = blocks
        self.prefix = prefix


class BatchedWarmer:
    """Walks intervals through a warming system's warm structures."""

    def __init__(self, system: System, traces: TraceSet) -> None:
        self.system = system
        self.traces = traces
        self._line_bytes = system.config.icache_line_bytes
        # Observability (construction-time grab; None when disabled).
        from repro.obs.recorder import metrics_registry

        self._metrics = metrics_registry()
        hardware_by_group = {
            id(hardware.group): hardware
            for hardware in system.group_hardware
        }
        #: Per-core structure tuples. Only the *objects* are cached —
        #: their inner tables are re-read every span, because restores
        #: adopt snapshot storage and would strand deeper references.
        self._contexts = []
        #: Per-core :class:`_CoreShape`, or None when the core's
        #: structures do not match the compiled span walk (non-LRU L1,
        #: subclassed direction predictor) and must take
        #: ``_walk_span_py``.
        self._shapes = []
        #: Per-core :class:`_SpanEncoding` cache, built lazily on the
        #: first compiled span walk and rebuilt when the thread's
        #: records list is replaced or resized.
        self._encodings = []
        for core in system.cores:
            frontend = core.frontend
            hardware = hardware_by_group[id(core.cache_group)]
            predictor = frontend.predictor
            itlb = frontend.itlb
            l1 = hardware.cache
            l2 = hardware.hierarchy.l2
            self._contexts.append(
                (frontend.line_buffers, predictor, itlb, l1, l2)
            )
            direction = predictor.direction
            # Strict type checks, like _walk_span_py's own: a
            # subclass overriding update() must take the method-call
            # path to keep bit-identity with the scalar walk.
            if (
                type(direction) is GsharePredictor
                and type(l1._policy) is LruPolicy
            ):
                loop = predictor.loop
                btb = predictor.btb
                self._shapes.append(
                    _CoreShape(
                        g_mask=direction._mask,
                        g_shift=direction._index_shift,
                        lp_mask=loop._mask,
                        lp_shift=loop._index_shift,
                        b_mask=btb._mask,
                        b_shift=btb._index_shift,
                        t_shift=itlb._page_shift if itlb is not None else 0,
                        t_capacity=itlb.entries if itlb is not None else 0,
                        l1_ways=l1.ways,
                        l1_shift=l1._line_shift,
                        l1_set_mask=l1._set_mask,
                        l2_ways=l2.ways,
                        l2_shift=l2._line_shift,
                        l2_set_mask=l2._set_mask,
                    )
                )
            else:
                self._shapes.append(None)
            self._encodings.append(None)

    def warm_interval(self, interval: Interval) -> int:
        """Functionally warm one interval; returns basic blocks walked."""
        blocks = 0
        for core_id, context in enumerate(self._contexts):
            start, end = interval.spans[core_id]
            if start == end:
                continue
            blocks += self._walk_span(
                core_id,
                context,
                self.traces.threads[core_id].records,
                start,
                end,
            )
        if self._metrics is not None:
            from repro.kernels import backend_name

            labels = {
                "machine": self.system.machine_name,
                "kernel_backend": backend_name(),
            }
            self._metrics.counter("warming.intervals", **labels).inc()
            self._metrics.counter("warming.blocks", **labels).inc(blocks)
        return blocks

    def _walk_span(self, core_id, context, records, start, end) -> int:
        shape = self._shapes[core_id]
        if _native_span is not None and shape is not None:
            return self._walk_span_native(
                core_id, context, shape, records, start, end
            )
        return self._walk_span_py(context, records, start, end)

    def _span_encoding(self, core_id, records) -> _SpanEncoding:
        """The cached flat encoding of one thread's records.

        Rebuilt when the thread's records list was replaced or resized;
        the ``source`` reference keeps the identity check sound (a
        collected list's id can be recycled, a referenced one's never).
        """
        encoding = self._encodings[core_id]
        if (
            encoding is None
            or encoding.source is not records
            or encoding.length != len(records)
        ):
            encoding = _SpanEncoding(records, self._line_bytes)
            self._encodings[core_id] = encoding
        return encoding

    def _walk_span_native(
        self, core_id, context, shape, records, start, end
    ) -> int:
        """Warm one span in a single compiled call over the encoding."""
        encoding = self._span_encoding(core_id, records)
        prefix = encoding.prefix
        bstart = prefix[start]
        bend = prefix[end]
        if bstart == bend:
            return 0
        buffers, predictor, itlb, l1, l2 = context
        lb_entries = buffers._entries
        lb_lines = [entry.line for entry in lb_entries]
        lb_uses = [entry.last_use for entry in lb_entries]
        direction = predictor.direction
        loop = predictor.loop
        btb = predictor.btb
        if itlb is not None:
            t_map = itlb._translations
            t_seen = itlb._seen_pages
            t_clock = itlb._clock
        else:
            t_map = None
            t_seen = None
            t_clock = 0
        lb_clock, g_history, t_clock = _native_span(
            bstart,
            bend,
            self._line_bytes,
            encoding.starts,
            encoding.counts,
            encoding.kinds,
            encoding.keys,
            encoding.targets,
            encoding.takens,
            lb_lines,
            lb_uses,
            buffers._clock,
            l1._tags,
            l1._policy._order,
            shape.l1_ways,
            shape.l1_shift,
            shape.l1_set_mask,
            l1.stats._seen_lines,
            l2._tags,
            l2._policy._order,
            shape.l2_ways,
            shape.l2_shift,
            shape.l2_set_mask,
            l2.stats._seen_lines,
            direction._counters,
            direction._history,
            shape.g_mask,
            shape.g_shift,
            loop._tags,
            loop._trips,
            loop._currents,
            loop._confidences,
            shape.lp_mask,
            shape.lp_shift,
            btb._tags,
            btb._targets,
            shape.b_mask,
            shape.b_shift,
            t_map,
            t_seen,
            t_clock,
            shape.t_shift,
            shape.t_capacity,
        )
        for slot, entry in enumerate(lb_entries):
            entry.line = lb_lines[slot]
            entry.last_use = lb_uses[slot]
        buffers._clock = lb_clock
        direction._history = g_history
        if itlb is not None:
            itlb._clock = t_clock
        return bend - bstart

    def _walk_span_py(self, context, records, start, end) -> int:
        """Warm one span in Python: the walk ``warm_span`` must match,
        and the only one for cores without a :class:`_CoreShape`."""
        buffers, predictor, itlb, l1, l2 = context
        line_bytes = self._line_bytes
        line_mask = -line_bytes  # ~(line_bytes - 1) for powers of two

        # Line buffers: flatten to parallel lists, write back at the end.
        lb_entries = buffers._entries
        lb_lines = [entry.line for entry in lb_entries]
        lb_uses = [entry.last_use for entry in lb_entries]
        lb_clock = buffers._clock
        lb_range = range(len(lb_entries))
        lb_uses_get = lb_uses.__getitem__

        # Branch structures. Prediction reads only move stats counters
        # (not warm state); the inlined updates below replicate exactly
        # the state mutations of FetchPredictor.resolve.
        direction = predictor.direction
        # Strict type checks: a subclass overriding update() must take
        # the method-call path to keep bit-identity with the scalar walk.
        inline_gshare = type(direction) is GsharePredictor
        if inline_gshare:
            g_counters = direction._counters
            g_mask = direction._mask
            g_history = direction._history
            g_shift = direction._index_shift
        loop = predictor.loop
        lp_tags = loop._tags
        lp_trips = loop._trips
        lp_currents = loop._currents
        lp_conf = loop._confidences
        lp_mask = loop._mask
        lp_shift = loop._index_shift
        btb = predictor.btb
        b_tags = btb._tags
        b_targets = btb._targets
        b_mask = btb._mask
        b_shift = btb._index_shift

        have_itlb = itlb is not None
        if have_itlb:
            t_map = itlb._translations
            t_map_get = t_map.__getitem__
            t_seen = itlb._seen_pages
            t_clock = itlb._clock
            t_shift = itlb._page_shift
            t_capacity = itlb.entries

        # L1I: inline the LRU fast path, fall back to the policy object
        # for fifo/plru/random. The instruction-side L2 is always LRU.
        l1_tags = l1._tags
        l1_policy = l1._policy
        l1_shift = l1._line_shift
        l1_set_mask = l1._set_mask
        l1_seen = l1.stats._seen_lines
        l1_ways = l1.ways
        l1_lru = type(l1_policy) is LruPolicy
        l1_order = l1_policy._order if l1_lru else None
        l2_tags = l2._tags
        l2_order = l2._policy._order
        l2_shift = l2._line_shift
        l2_set_mask = l2._set_mask
        l2_seen = l2.stats._seen_lines
        l2_ways = l2.ways

        blocks = 0
        for record in records[start:end]:
            if type(record) is not BasicBlockRecord:
                continue
            blocks += 1
            line = record.address & line_mask
            end_address = record.end_address
            while line < end_address:
                if have_itlb:
                    page = line >> t_shift
                    t_clock += 1
                    if page in t_map:
                        t_map[page] = t_clock
                    else:
                        t_seen.add(page)
                        if len(t_map) >= t_capacity:
                            del t_map[min(t_map, key=t_map_get)]
                        t_map[page] = t_clock
                lb_clock += 1
                for slot in lb_range:
                    if lb_lines[slot] == line:
                        lb_uses[slot] = lb_clock
                        break
                else:
                    # Buffer miss: allocate the first least-recently-used
                    # slot (nothing is ever pending during warming), then
                    # access L1, and L2 on an L1 miss.
                    victim = min(lb_range, key=lb_uses_get)
                    lb_clock += 1
                    lb_lines[victim] = line
                    lb_uses[victim] = lb_clock
                    set_index = (line >> l1_shift) & l1_set_mask
                    row = l1_tags[set_index]
                    try:
                        way = row.index(line)
                        hit = True
                    except ValueError:
                        hit = False
                    if hit:
                        if l1_lru:
                            order = l1_order[set_index]
                            if order is None:
                                order = list(range(l1_ways))
                                l1_order[set_index] = order
                            order.remove(way)
                            order.append(way)
                        else:
                            l1_policy.on_access(set_index, way)
                    else:
                        try:
                            way = row.index(None)
                        except ValueError:
                            if l1_lru:
                                order = l1_order[set_index]
                                if order is None:
                                    order = list(range(l1_ways))
                                    l1_order[set_index] = order
                                way = order[0]
                            else:
                                way = l1_policy.victim(set_index)
                        row[way] = line
                        if l1_lru:
                            order = l1_order[set_index]
                            if order is None:
                                order = list(range(l1_ways))
                                l1_order[set_index] = order
                            order.remove(way)
                            order.append(way)
                        else:
                            l1_policy.on_fill(set_index, way)
                        l1_seen.add(line)
                        # L1 miss: walk the line through the L2 (LRU).
                        l2_set = (line >> l2_shift) & l2_set_mask
                        l2_row = l2_tags[l2_set]
                        try:
                            l2_way = l2_row.index(line)
                            l2_hit = True
                        except ValueError:
                            l2_hit = False
                        if not l2_hit:
                            try:
                                l2_way = l2_row.index(None)
                            except ValueError:
                                order = l2_order[l2_set]
                                if order is None:
                                    order = list(range(l2_ways))
                                    l2_order[l2_set] = order
                                l2_way = order[0]
                            l2_row[l2_way] = line
                            l2_seen.add(line)
                        order = l2_order[l2_set]
                        if order is None:
                            order = list(range(l2_ways))
                            l2_order[l2_set] = order
                        order.remove(l2_way)
                        order.append(l2_way)
                line += line_bytes
            branch = record.branch
            if branch is not None:
                kind = branch.kind
                if kind is _CONDITIONAL:
                    address = record.branch_address
                    taken = branch.taken
                    if inline_gshare:
                        index = ((address >> g_shift) ^ g_history) & g_mask
                        counter = g_counters[index]
                        if taken:
                            if counter < 3:
                                g_counters[index] = counter + 1
                        elif counter > 0:
                            g_counters[index] = counter - 1
                        g_history = (
                            (g_history << 1) | (1 if taken else 0)
                        ) & g_mask
                    else:
                        direction.update(address, taken)
                    lp_index = (address >> lp_shift) & lp_mask
                    tag = address >> lp_shift
                    if lp_tags[lp_index] != tag:
                        if not taken:
                            lp_tags[lp_index] = tag
                            lp_trips[lp_index] = 0
                            lp_currents[lp_index] = 0
                            lp_conf[lp_index] = 0
                    elif taken:
                        lp_currents[lp_index] += 1
                    else:
                        observed = lp_currents[lp_index] + 1
                        if observed == lp_trips[lp_index]:
                            confidence = lp_conf[lp_index]
                            if confidence < 3:
                                lp_conf[lp_index] = confidence + 1
                        else:
                            lp_trips[lp_index] = observed
                            lp_conf[lp_index] = 0
                        lp_currents[lp_index] = 0
                elif kind is _INDIRECT:
                    address = record.branch_address
                    b_index = (address >> b_shift) & b_mask
                    b_tags[b_index] = address
                    b_targets[b_index] = branch.target

        # Write back the scalars and flattened tables.
        for slot in lb_range:
            entry = lb_entries[slot]
            entry.line = lb_lines[slot]
            entry.last_use = lb_uses[slot]
        buffers._clock = lb_clock
        if inline_gshare:
            direction._history = g_history
        if have_itlb:
            itlb._clock = t_clock
        return blocks
