"""Hot-loop kernels: backend selection and the two compiled entry points.

Two hot loops have a hand-written C replacement in
``repro.kernels._native``, built by ``python -m repro.kernels.build``
(any C compiler; no third-party packages):

* ``warm_span`` — the :class:`~repro.sampling.warmer.BatchedWarmer`
  span walk (iTLB, line buffers, LRU L1I/L2, gshare, loop predictor and
  BTB over one thread's flat span encoding), replacing
  ``BatchedWarmer._walk_span_py``;
* ``replay_walk`` — the two deterministic credit-trajectory walks of
  :class:`~repro.backend.backend.CommitEngine` (the planning walk and
  the batched settlement), replacing their inline loops (the mode
  selectors are the ``REPLAY_*`` constants below).

Each consumer keeps its inline loop as the one Python implementation;
the compiled entry point must be bit-identical to it, and
:mod:`tests.test_kernels` checks exactly that. Behind the inline loops
stand the two oracles: the scalar warming walk
(``repro.sampling.simulator._warm_interval``) and the stepped engine
(``cycle_skip=False``).

Selection happens once at import: the native module is used when its
shared object is present, otherwise the inline loops run — the
compiler is never a hard dependency. The ``REPRO_KERNELS`` environment
variable overrides the choice: ``py`` forces the inline loops even when
the extension is built; ``compiled`` demands the extension and raises
:class:`~repro.errors.ConfigurationError` when it is missing or stale
(so CI legs cannot silently test the wrong backend).

Consumers bind the entry points at *their* import time (``None`` on the
pure-Python backend), so the inline path pays only an ``is not None``
guard.
"""

from __future__ import annotations

import importlib
import os

from repro.errors import ConfigurationError

__all__ = [
    "ABI",
    "NATIVE",
    "backend_name",
    "warm_span",
    "replay_walk",
    "REPLAY_HORIZON",
    "REPLAY_STEPS",
]

_REQUESTED = os.environ.get("REPRO_KERNELS", "").strip().lower()
if _REQUESTED not in ("", "py", "compiled"):
    raise ConfigurationError(
        f"REPRO_KERNELS must be 'py' or 'compiled', got {_REQUESTED!r}"
    )

#: Interface version the compiled extension must report as ``ABI``.
#: Bumped whenever an entry point's signature or table types change
#: (2: ``warm_span`` takes the gshare table as a ``bytearray``; 3:
#: ``replay_walk`` keeps only the planning and settlement modes), so an
#: extension built from older source is treated as stale rather than
#: failing mid-run on a type check or a mode mismatch.
ABI = 3

#: :func:`replay_walk` mode selectors, one per
#: :class:`~repro.backend.backend.CommitEngine` walk.
REPLAY_HORIZON = 0  # replay_horizon: drain/space trigger cycle, else none
REPLAY_STEPS = 1  # replay_steps: settle a span, return the new state

_native = None
if _REQUESTED != "py":
    try:
        _native = importlib.import_module("repro.kernels._native")
    except ImportError:
        if _REQUESTED == "compiled":
            raise ConfigurationError(
                "REPRO_KERNELS=compiled but the native extension is not "
                "built; run `python -m repro.kernels.build` first"
            ) from None
    else:
        # A stale build from older source must not half-engage: either
        # the whole current surface is native or none of it.
        found = getattr(_native, "ABI", None)
        if found != ABI:
            if _REQUESTED == "compiled":
                raise ConfigurationError(
                    "REPRO_KERNELS=compiled but the built extension is "
                    f"stale (it reports ABI {found}, expected {ABI}); "
                    "rerun `python -m repro.kernels.build` "
                    "(`--check` shows the staleness)"
                )
            _native = None

#: True when the compiled backend is active for this process.
NATIVE = _native is not None

#: The compiled entry points, or None on the pure-Python backend.
warm_span = _native.warm_span if NATIVE else None
replay_walk = _native.replay_walk if NATIVE else None


def backend_name() -> str:
    """The active kernel backend: ``"compiled"`` or ``"py"``."""
    return "compiled" if NATIVE else "py"
