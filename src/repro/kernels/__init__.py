"""Hot-structure kernels: an optional compiled backend with a pure spec.

The timing hot paths — set-associative tag probes
(:mod:`repro.cache.set_assoc`), BTB probes
(:mod:`repro.branch.btb`) and the batched functional-warming line walk
(:mod:`repro.sampling.warmer`) — are plain loops over Python lists.
This package provides them twice:

* :mod:`repro.kernels.pylib` — the pure-Python reference
  implementations. Always available; they *are* the contract the
  compiled backend is tested against.
* ``repro.kernels._native`` — a hand-written C extension built by
  ``python -m repro.kernels.build`` (any C compiler; no third-party
  packages). Bit-identical to ``pylib`` on every operation, enforced by
  :mod:`tests.test_kernels` and the CI compiled-vs-python matrix leg.

Selection happens once at import: the native module is used when its
shared object is present, otherwise the pure-Python fallback — the
compiler is never a hard dependency. The ``REPRO_KERNELS`` environment
variable overrides the choice: ``py`` forces the fallback even when the
extension is built; ``compiled`` demands the extension and raises
:class:`~repro.errors.ConfigurationError` when it is missing (so CI
legs cannot silently test the wrong backend).

Consumers branch on :data:`NATIVE` at *their* import time and keep
their original inline loops when it is False, so the pure-Python path
pays no extra call indirection for the abstraction.
"""

from __future__ import annotations

import importlib
import os

from repro.errors import ConfigurationError
from repro.kernels import pylib

__all__ = [
    "NATIVE",
    "backend_name",
    "find_way",
    "btb_probe",
    "warm_lines",
    "warm_span",
    "replay_walk",
    "REPLAY_NEXT",
    "REPLAY_HORIZON",
    "REPLAY_DRAIN",
    "REPLAY_STEPS",
]

_REQUESTED = os.environ.get("REPRO_KERNELS", "").strip().lower()
if _REQUESTED not in ("", "py", "compiled"):
    raise ConfigurationError(
        f"REPRO_KERNELS must be 'py' or 'compiled', got {_REQUESTED!r}"
    )

#: Interface version the compiled extension must report as ``ABI``.
#: Bumped whenever an entry point's signature or table types change
#: (2: ``warm_span`` takes the gshare table as a ``bytearray``), so an
#: extension built from older source is treated as stale rather than
#: failing mid-run on a type check.
ABI = 2

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
        if getattr(_native, "ABI", None) != ABI:
            if _REQUESTED == "compiled":
                raise ConfigurationError(
                    "REPRO_KERNELS=compiled but the built extension is "
                    "stale (missing entry points); rerun "
                    "`python -m repro.kernels.build` "
                    "(`--check` shows the staleness)"
                )
            _native = None

#: True when the compiled backend is active for this process.
NATIVE = _native is not None

#: :func:`replay_walk` mode selectors (see :mod:`repro.kernels.pylib`).
REPLAY_NEXT = pylib.REPLAY_NEXT
REPLAY_HORIZON = pylib.REPLAY_HORIZON
REPLAY_DRAIN = pylib.REPLAY_DRAIN
REPLAY_STEPS = pylib.REPLAY_STEPS

if NATIVE:
    find_way = _native.find_way
    btb_probe = _native.btb_probe
    warm_lines = _native.warm_lines
    warm_span = _native.warm_span
    replay_walk = _native.replay_walk
else:
    find_way = pylib.find_way
    btb_probe = pylib.btb_probe
    warm_lines = pylib.warm_lines
    warm_span = pylib.warm_span
    replay_walk = pylib.replay_walk


def backend_name() -> str:
    """The active kernel backend: ``"compiled"`` or ``"py"``."""
    return "compiled" if NATIVE else "py"
