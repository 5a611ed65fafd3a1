"""ACMP assembly: configuration, topology and wiring over repro.machine.

The ACMP is the first implementation of the
:class:`repro.machine.MachineModel` protocol (registered as ``acmp``);
importing this package registers the model.
"""

from repro.acmp.config import (
    AcmpConfig,
    all_shared_config,
    baseline_config,
    worker_shared_config,
)
from repro.acmp.model import MODEL
from repro.acmp.simulator import simulate
from repro.acmp.system import AcmpSystem, EventQueue
from repro.acmp.topology import CacheGroup, Topology, build_topology

__all__ = [
    "MODEL",
    "AcmpConfig",
    "all_shared_config",
    "baseline_config",
    "worker_shared_config",
    "simulate",
    "AcmpSystem",
    "EventQueue",
    "CacheGroup",
    "Topology",
    "build_topology",
]
