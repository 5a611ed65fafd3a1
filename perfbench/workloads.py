"""The benchmark's three fig07 workloads and the pass schedule per run.

Every workload regenerates the paper's fig07 (private baseline plus
naive sharing at cpc = 2/4/8 on the acmp machine) through
``repro.experiments`` with ``jobs=1`` against a result store, so every
design point goes through ``repro.campaign.runner.execute_run``. The
``--seed`` argument is the trace-synthesis seed; nothing else varies
with it.

Sizes are chosen so that one benchmark invocation stays well under a
minute on a 2-CPU host:

* ``fig07-full`` runs all 24 benchmarks at scale 0.02. Synthesis has a
  per-benchmark instruction floor, so smaller scales cost the same.
* The sampled workloads use the ``fast`` plan (8k detail per 160k
  aggregate instructions), which only samples once a trace spans
  several periods: scale 1.0 gives every benchmark 5 to 9 detail
  intervals. A sampled fig07 over all 24 benchmarks at that scale takes
  about 100 s cold on such a host, so these workloads sweep a fixed
  subset of benchmarks instead.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's worst cpc=8 slowdown in fig07 (UA, about +18 %).
PAPER_WORST_CPC8 = 1.18

#: Design points the correctness check reruns on the reference engine
#: per run, drawn from the run's seed.
REFERENCE_DRAWS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    #: ``None`` means all 24 benchmarks.
    benchmarks: tuple[str, ...] | None
    sampling: str
    #: Streams traces from a captured corpus and reads a checkpoint tree
    #: that set-up filled; the timed pass then writes only results.
    warm: bool
    #: Host seconds one timed pass takes on a 2-CPU x86 host; turns
    #: ``--seconds`` into a fixed pass count, so every run of one
    #: workload pools the same number of design-point timings.
    nominal_pass_s: float
    min_passes: int
    #: Independent set-ups per untraced run (``setup_s`` is their median).
    setups: int
    #: Benchmarks whose baseline and cpc=8 points are rerun at full
    #: detail to score the sampled figure (sampled workloads only).
    accuracy_benchmarks: tuple[str, ...] = ()

    def passes(self, seconds: int) -> int:
        return max(self.min_passes, round(seconds / self.nominal_pass_s))


#: UA is the paper's worst cpc=8 case; BT and SP are the cheapest
#: benchmarks to sample at scale 1.0 (about 2 s each for the four
#: design points, cold).
SAMPLED_BENCHMARKS = ("UA", "BT", "SP")

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig07-full",
            scale=0.02,
            benchmarks=None,
            sampling="",
            warm=False,
            nominal_pass_s=13.0,
            min_passes=2,
            setups=5,
        ),
        Workload(
            name="fig07-sampled-cold",
            scale=1.0,
            benchmarks=SAMPLED_BENCHMARKS,
            sampling="fast",
            warm=False,
            nominal_pass_s=7.0,
            min_passes=3,
            setups=5,
            accuracy_benchmarks=("UA",),
        ),
        Workload(
            name="fig07-sampled-warm",
            scale=1.0,
            benchmarks=SAMPLED_BENCHMARKS,
            sampling="fast",
            warm=True,
            nominal_pass_s=5.0,
            min_passes=3,
            setups=2,
            accuracy_benchmarks=("UA",),
        ),
    )
}
