"""Build the compiled kernel extension with the system C compiler.

``python -m repro.kernels.build`` compiles ``_native.c`` into
``_native<EXT_SUFFIX>`` next to the source, after which
:mod:`repro.kernels` selects it automatically on import (override with
``REPRO_KERNELS=py|compiled``). Only a C compiler and the Python
headers are required — no pip packages, no build system; the command
is the whole build.

``python -m repro.kernels.build --check`` reports the selected backend,
the compiler the build would use, and whether the built extension is
stale (older than ``_native.c``, or reporting an interface version
other than :data:`repro.kernels.ABI`) — the first stop when a run is
unexpectedly on the pure-Python backend.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import shlex
import subprocess
import sysconfig

__all__ = ["build", "check", "extension_path", "BuildError"]


class BuildError(RuntimeError):
    """Compiler failure, carrying the compiler's own diagnostics."""


def extension_path(out_dir: pathlib.Path | None = None) -> pathlib.Path:
    """Where the built extension lands (package dir by default)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    directory = (
        pathlib.Path(__file__).parent if out_dir is None else out_dir
    )
    return directory / f"_native{suffix}"


def compiler_command() -> list[str]:
    """The compiler invocation prefix the build uses."""
    compiler = sysconfig.get_config_var("CC") or "cc"
    return shlex.split(compiler)


def build(
    out_dir: pathlib.Path | None = None, verbose: bool = True
) -> pathlib.Path:
    """Compile ``_native.c``; returns the built extension's path.

    Raises:
        BuildError: when the compiler fails, with its stderr in the
            message (not just a bare non-zero-exit traceback).
        FileNotFoundError: when no C compiler is available.
    """
    source = pathlib.Path(__file__).with_name("_native.c")
    target = extension_path(out_dir)
    command = [
        *compiler_command(),
        "-O2",
        "-fPIC",
        "-shared",
        f"-I{sysconfig.get_path('include')}",
        str(source),
        "-o",
        str(target),
    ]
    if verbose:
        print(" ".join(command))
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        stderr = result.stderr.strip()
        raise BuildError(
            f"compiler exited with status {result.returncode}:\n"
            f"  {' '.join(command)}\n{stderr}"
        )
    if result.stderr and verbose:
        print(result.stderr.rstrip())  # warnings from a successful build
    if verbose:
        print(f"built {target}")
    return target


def staleness(out_dir: pathlib.Path | None = None) -> str | None:
    """Why the built extension cannot serve the current source, or None.

    Returns a human-readable reason — missing, older than ``_native.c``,
    or reporting a different ``ABI`` — or ``None`` when the build is
    present and current.
    """
    source = pathlib.Path(__file__).with_name("_native.c")
    target = extension_path(out_dir)
    if not target.exists():
        return f"{target.name} is not built"
    if target.stat().st_mtime < source.stat().st_mtime:
        return f"{target.name} is older than {source.name}"
    try:
        # Not `import repro.kernels._native as native`: that binds the
        # package attribute, which repro.kernels resets to None when it
        # rejects a stale build.
        native = importlib.import_module("repro.kernels._native")
    except ImportError as error:
        return f"{target.name} does not import: {error}"
    from repro.kernels import ABI

    if getattr(native, "ABI", None) != ABI:
        return (
            f"{target.name} reports ABI {getattr(native, 'ABI', None)}, "
            f"expected {ABI}"
        )
    return None


def check() -> int:
    """Print backend/compiler/staleness status; exit 0 when healthy.

    Healthy means the active backend is the one that would be selected
    with a fresh, current build — a stale or missing extension under
    ``REPRO_KERNELS=`` (auto) or ``=compiled`` returns 1 so scripts can
    gate on it.
    """
    from repro import kernels

    print(f"backend: {kernels.backend_name()}")
    print(f"cc: {' '.join(compiler_command())}")
    print(f"extension: {extension_path()}")
    reason = staleness()
    print(f"staleness: {reason if reason else 'current'}")
    if reason and kernels.backend_name() != "compiled":
        print("hint: run `python -m repro.kernels.build` to (re)build")
    return 1 if reason else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels.build",
        description="Build or inspect the compiled kernel extension.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="report selected backend, compiler and extension staleness "
        "instead of building",
    )
    arguments = parser.parse_args(argv)
    if arguments.check:
        return check()
    build()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
