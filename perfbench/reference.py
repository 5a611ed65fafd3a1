"""A fixed reference workload that measures the host's current speed.

The shared host this benchmark runs on changes speed from second to
second: the same pure-Python loop takes anywhere from 0.6x to 1.2x its
usual time, depending on what the machine's other tenants do, while the
process loses no time to the scheduler (CPU time follows wall time).
Host seconds alone therefore spread by 10-25 % between runs of the
same code.

A chunk is a short, fixed piece of interpreter work that uses nothing
from ``src/``, in two halves timed apart: a 4-way LRU cache model over
a fixed address stream (small dicts and integers, all in cache, as in
the simulator's hot loops) and a dependent walk over a 32 MB buffer
(memory latency, as in the simulator's large object graph). A tenant
that competes for the core slows the first half more, one that competes
for memory the second; the chunk's speed is the geometric mean of the
two halves' speeds, each relative to its time on a quiet host.

A :class:`Sampler` runs one chunk every ``PERIOD_S`` of wall time from
a ``SIGALRM`` handler, so the chunks sample the host's speed evenly over
a timed region, inside long design-point runs too. Host seconds
(chunks excluded) times the mean chunk speed over a region are seconds
at the reference speed: a change to the simulator moves them in full,
a change in the host's speed mostly does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Host seconds of each half of a chunk on a quiet 2-CPU x86 host
#: (CPython 3.11). Only the scale of the reference-speed metrics
#: depends on them.
NOMINAL_CACHE_S = 0.0005
NOMINAL_MEMORY_S = 0.0003
#: Wall seconds between chunks: the chunks cost about 4 % of a region.
PERIOD_S = 0.02
#: The memory half's buffer; the sampler's share of a pass's resident
#: memory.
MEMORY_BYTES = 1 << 25

_SETS = 64
_WAYS = 4
_ACCESSES = 500
_HOPS = 1500


def _cache_model(table: list[dict]) -> int:
    for ways in table:
        ways.clear()
    x = 12345
    clock = hits = 0
    for _ in range(_ACCESSES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 16) & 0x7FF
        ways = table[line & (_SETS - 1)]
        tag = line >> 6
        clock += 1
        if tag in ways:
            hits += 1
        elif len(ways) >= _WAYS:
            del ways[min(ways, key=ways.get)]
        ways[tag] = clock
    return hits


def _memory_walk(memory: bytes) -> int:
    mask = len(memory) - 1
    i = 0
    for _ in range(_HOPS):
        i = (i * 1103515245 + memory[i] + 12345) & mask
    return i


class Reference:
    """The chunk, the buffer its memory half walks (written through, so
    every page is resident) and the cache model's table.

    A chunk allocates no container the garbage collector counts: a
    chunk that did would move the program's collections to other points
    of its run, and with them its peak resident memory (by 13 MB on
    one sampled sweep).
    """

    def __init__(self) -> None:
        self.memory = bytes(range(256)) * (MEMORY_BYTES >> 8)
        self.table: list[dict] = [{} for _ in range(_SETS)]

    def chunk(self) -> tuple[float, float]:
        """One chunk: its speed relative to a quiet host, and its host
        seconds. The garbage collector is off meanwhile, so a
        collection of the program's heap never lands in a chunk."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _cache_model(self.table)
            middle = time.perf_counter()
            _memory_walk(self.memory)
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        cache_speed = NOMINAL_CACHE_S / (middle - started)
        memory_speed = NOMINAL_MEMORY_S / (ended - middle)
        return (cache_speed * memory_speed) ** 0.5, ended - started


def speed(speeds: list[float]) -> float:
    """Mean host speed over a region from its chunks' speeds: 1.0 on a
    quiet host, 0.8 when the host runs at four fifths of that. Chunks
    sample evenly in time, so their mean is the region's mean."""
    return statistics.fmean(speeds)


class Sampler:
    """Times a chunk every ``PERIOD_S`` of wall time, between two
    bytecodes of whatever the process runs, from :meth:`start` to
    :meth:`stop`. ``speeds`` holds each chunk's speed; ``spent_s`` the
    host seconds the sampler took (its buffer and its chunks), which
    the caller takes out of its own clock readings."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.reference = Reference()
        self.speeds: list[float] = []
        self.spent_s = time.perf_counter() - started
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrived during a chunk
            return
        self._busy = True
        chunk_speed, took = self.reference.chunk()
        self.speeds.append(chunk_speed)
        self.spent_s += took
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
