"""repro: reproduction of "Sharing the Instruction Cache Among Lean Cores
on an Asymmetric CMP for HPC Applications" (Milic et al., ISPASS 2017).

A trace-driven cycle-level simulator built on a machine-model
abstraction layer (:mod:`repro.machine`): the paper's asymmetric CMP
(1 big master core + 8 lean workers whose I-caches may be shared behind
a single/double bus, :mod:`repro.acmp`) and a symmetric CMP of uniform
lean cores with per-core or banked front-ends (:mod:`repro.scmp`), plus
every substrate the paper's methodology depends on: a Pin-style trace
model with synthetic HPC workload generation, a decoupled front-end
(gshare + loop predictor, FTQ, line buffers), an OpenMP-like runtime
replay layer, an L2/DDR3 memory hierarchy, and McPAT/CACTI-style
area/energy models.

Quickstart::

    from repro import baseline_config, worker_shared_config, simulate
    from repro import synthesize_benchmark

    traces = synthesize_benchmark("UA", thread_count=9, scale=0.5)
    base = simulate(baseline_config(), traces)
    shared = simulate(worker_shared_config(), traces)
    print(shared.cycles / base.cycles)

``simulate`` accepts any registered machine model's configuration; see
``repro.machine.get_model`` / ``model_names`` for the registry.

To regenerate a paper figure::

    python -m repro.experiments fig07
"""

from repro.acmp import (
    AcmpConfig,
    AcmpSystem,
    all_shared_config,
    baseline_config,
    worker_shared_config,
)
from repro.acmp import (
    simulate as simulate_acmp,
)
from repro.machine import (
    MachineModel,
    SimulationResult,
    SystemSimulator,
    get_model,
    model_for_config,
    model_names,
    register_model,
    simulate,
)
from repro.scmp import (
    ScmpConfig,
    ScmpSystem,
    banked_config,
    private_config,
)
from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultStore,
    RunSpec,
    run_campaign,
)
from repro.engine import Clock, EventQueue, SimulationKernel
from repro.sampling import SamplingPlan, simulate_sampled
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ReproError,
    SimulationError,
    TraceError,
    TraceFormatError,
    WorkloadError,
)
from repro.power import PowerReport, evaluate_power, worker_cluster_area
from repro.trace import ThreadTrace, TraceSet
from repro.trace.synthesis import synthesize, synthesize_benchmark
from repro.workloads import (
    ALL_BENCHMARKS,
    WorkloadModel,
    benchmark_names,
    get_benchmark,
)

__version__ = "1.0.0"

__all__ = [
    "AcmpConfig",
    "AcmpSystem",
    "MachineModel",
    "ScmpConfig",
    "ScmpSystem",
    "SimulationResult",
    "SystemSimulator",
    "all_shared_config",
    "banked_config",
    "baseline_config",
    "get_model",
    "model_for_config",
    "model_names",
    "private_config",
    "register_model",
    "simulate",
    "simulate_sampled",
    "simulate_acmp",
    "worker_shared_config",
    "Campaign",
    "CampaignReport",
    "ResultStore",
    "RunSpec",
    "SamplingPlan",
    "run_campaign",
    "Clock",
    "EventQueue",
    "SimulationKernel",
    "ConfigurationError",
    "DeadlockError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "TraceFormatError",
    "WorkloadError",
    "PowerReport",
    "evaluate_power",
    "worker_cluster_area",
    "TraceSet",
    "ThreadTrace",
    "synthesize",
    "synthesize_benchmark",
    "ALL_BENCHMARKS",
    "WorkloadModel",
    "benchmark_names",
    "get_benchmark",
    "__version__",
]
