"""ACMP build-and-run helper over the machine-neutral simulator.

The main loop is machine-agnostic
(:class:`repro.machine.simulator.SystemSimulator`); this module keeps
the ACMP-pinned :func:`simulate` the seed API and many callers use.
"""

from __future__ import annotations

from repro.acmp.config import AcmpConfig
from repro.acmp.system import AcmpSystem
from repro.machine.results import SimulationResult
from repro.machine.simulator import SystemSimulator
from repro.trace.stream import TraceSet

__all__ = ["simulate"]


def simulate(
    config: AcmpConfig,
    traces: TraceSet,
    max_cycles: int = 500_000_000,
    warm_l2: bool = True,
    cycle_skip: bool = True,
) -> SimulationResult:
    """Build and run one ACMP design point over one trace set.

    See :func:`repro.machine.simulator.simulate` for the argument
    semantics; this wrapper only pins the machine to the ACMP.
    """
    system = AcmpSystem(config, traces)
    if warm_l2:
        system.warm_instruction_l2s()
    return SystemSimulator(system, cycle_skip=cycle_skip).run(
        max_cycles=max_cycles
    )
