"""Persistent warm-state checkpoints for sampled simulation.

Functional warming dominates sampled-run cost, and without persistence
every design point of a campaign re-walks the same trace prefix from
cold. This module amortizes that cost across whole campaigns: a
:class:`CheckpointStore` living beside the campaign's ``ResultStore``
persists the warm state entering every measurement interval, keyed by
everything the state is actually a function of —

* the trace prefix: ``(benchmark, threads, seed, scale)`` plus a
  content fingerprint of the synthesized records (stale traces can
  never masquerade as fresh ones), and the sampling plan + interval
  ordinal that select the prefix boundary;
* the structural *shape* of the warm structures
  (:func:`repro.machine.system.warm_shape_digest`) — and nothing else.
  Warm state is independent of timing parameters, so a whole timing
  sweep (bus counts, latencies, arbitration policies) shares one set of
  checkpoints per trace prefix;
* the machine model and the ``warm_l2`` mode (a pre-filled L2 is part
  of the functional state).

Layout::

    <root>/
      <machine>/
        <benchmark>/
          seed<seed>__scale<scale>__t<threads>/
            <trace-fingerprint>/
              <plan>__<warm|cold>__<shape>/
                detail<k>.ckpt      # state entering detail interval k

Each entry is one binary container, and this module is the only code
that knows its layout (:func:`encode_state` / :func:`decode_state`
produce and read it; the store adds the identity):

* the magic/version line ``REPRO-WARM-CKPT 1``;
* the header's byte length and CRC-32, as two little-endian ``uint32``;
* the header, compact JSON with sorted keys: the entry's identity
  (``key``, ``detail``, ``config_label``), the section table
  (``[typecode, offset, length]`` per section, tiling the body in
  order), the declared decompressed ``body`` size, and the small state
  — line buffers, iTLBs, gshare histories, shapes — whose dense tables
  are section indices;
* one zlib stream (fixed level) holding every dense table verbatim:
  gshare counters as raw bytes, loop/BTB tables, cache tags (``-1`` for
  an invalid way), seen-sets (sorted) and LRU/PLRU orders as
  little-endian ``array`` data with fixed-width typecodes ``q``/``i``/
  ``h``.

Encoding goes through ``bytes()`` and ``array.tobytes()``, decoding
through ``bytearray()`` and ``array.frombytes().tolist()``, so neither
runs a per-cell Python loop. An acmp snapshot (nine cores, nine gshare
tables, nine private 1 MB L2 tag arrays at the baseline) inflates to
about 2.3 MB and is stored in a few tens of KB; the encoding is
byte-deterministic, so equal states give equal files.

Unlike the ``ResultStore``, the checkpoint store is a pure cache:
``get`` answers ``None`` for anything it cannot fully verify — bad
magic, a header that fails its length, CRC or JSON check, a section
outside the body, a body that does not inflate to exactly its declared
size (inflation is capped at that size), a mismatched identity, or a
legacy ``detail<k>.json`` entry — never an error. The caller warms
from the trace instead, and a later ``put`` self-heals the entry.
Writes use the same mkstemp-then-rename discipline as
``ResultStore.put``, so concurrent shard hosts can share one tree. No
``pickle`` or ``marshal``: trees are shared across hosts.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import time
import zlib
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from repro.campaign.store import _UMASK, _format_scale, _sanitize
from repro.errors import ConfigurationError
from repro.machine.warm import WarmState
from repro.obs.recorder import metrics_registry as _active_metrics

__all__ = [
    "CheckpointKey",
    "CheckpointStore",
    "Checkpointing",
    "decode_state",
    "encode_state",
    "trace_fingerprint",
]


# -- trace fingerprints ----------------------------------------------------

# The digest moved to the trace layer so the on-disk codec can stamp
# manifests without importing sampling; re-exported here because every
# existing checkpoint-key call site imports it from this module.
from repro.trace.fingerprint import trace_fingerprint  # noqa: E402, F401


# -- the binary container --------------------------------------------------

_MAGIC = b"REPRO-WARM-CKPT 1\n"
#: Header byte length and CRC-32, after the magic line.
_PREFIX = struct.Struct("<II")
_COMPRESSION_LEVEL = 1
#: Inflation cap: no legitimate snapshot comes near it, and a header
#: declaring more is rejected before anything is allocated.
_MAX_BODY = 1 << 30
#: Item size of every section typecode ("B": raw bytes).
_ITEMSIZE = {"B": 1, "h": 2, "i": 4, "q": 8}
_SWAP = sys.byteorder != "little"
#: Invalid cache ways are stored as -1, which no line address can be
#: (lines are aligned to the line size, a power of two above 1).
_NONE_TO_SENTINEL = {None: -1}
_SENTINEL_TO_NONE = {-1: None}


class _SectionWriter:
    """Appends dense tables to the body; each add returns its index."""

    def __init__(self) -> None:
        self.table: list[list] = []
        self.chunks: list[bytes] = []
        self.size = 0

    def add(self, typecode: str, values) -> int:
        if typecode == "B":
            raw = bytes(values)
        else:
            data = array(typecode, values)
            if _SWAP:  # pragma: no cover - big-endian hosts
                data.byteswap()
            raw = data.tobytes()
        self.table.append([typecode, self.size, len(raw)])
        self.chunks.append(raw)
        self.size += len(raw)
        return len(self.table) - 1


class _SectionReader:
    """Typed views of an inflated body's sections."""

    def __init__(self, table: list, body: bytes) -> None:
        self.table = table
        self.body = memoryview(body)

    def _raw(self, index: int, typecode: str) -> memoryview:
        if type(index) is not int or index < 0:
            raise ValueError(f"bad section index {index!r}")
        stored, offset, length = self.table[index]
        if stored != typecode:
            raise ValueError(
                f"section {index} holds {stored!r} data, expected "
                f"{typecode!r}"
            )
        return self.body[offset:offset + length]

    def byte_table(self, index: int) -> bytearray:
        return bytearray(self._raw(index, "B"))

    def ints(self, index: int, typecode: str) -> list[int]:
        data = array(typecode)
        data.frombytes(self._raw(index, typecode))
        if _SWAP:  # pragma: no cover - big-endian hosts
            data.byteswap()
        return data.tolist()


def _pack(header: dict, compressed: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return _MAGIC + _PREFIX.pack(len(text), zlib.crc32(text)) + text + compressed


def _unpack(blob: bytes) -> tuple[dict, bytes]:
    """Split a container into its verified header and compressed body.

    Raises ``ValueError`` (JSON and Unicode errors included) on bad
    magic or a truncated or corrupt header.
    """
    if not blob.startswith(_MAGIC):
        raise ValueError("not a warm-state checkpoint (bad magic)")
    start = len(_MAGIC) + _PREFIX.size
    if len(blob) < start:
        raise ValueError("truncated checkpoint prefix")
    length, crc = _PREFIX.unpack_from(blob, len(_MAGIC))
    text = blob[start:start + length]
    if len(text) != length or zlib.crc32(text) != crc:
        raise ValueError("truncated or corrupt checkpoint header")
    header = json.loads(text)
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not an object")
    return header, blob[start + length:]


def _inflate(header: dict, compressed: bytes) -> _SectionReader:
    """Check the section table against the declared body size, then
    inflate the body — at most that many bytes — and demand exactly
    that many and a complete stream. Raises ``ValueError`` (or
    ``zlib.error``, ``TypeError``) on any mismatch."""
    size = header["body"]
    table = header["sections"]
    if type(size) is not int or not 0 <= size <= _MAX_BODY:
        raise ValueError(f"bad declared body size {size!r}")
    if type(table) is not list:
        raise ValueError("section table is not a list")
    position = 0
    for entry in table:
        typecode, offset, length = entry
        itemsize = _ITEMSIZE[typecode]
        if (
            type(offset) is not int
            or type(length) is not int
            or offset != position
            or length < 0
            or length % itemsize
        ):
            raise ValueError(f"bad section {entry!r}")
        position += length
    if position != size:
        raise ValueError(
            f"sections end at {position}, body declares {size} bytes"
        )
    inflater = zlib.decompressobj()
    body = inflater.decompress(compressed, max(size, 1))
    if len(body) == size and not inflater.eof:
        # Output stopped at the cap; a sound stream ends right here.
        body += inflater.decompress(inflater.unconsumed_tail, 1)
    if len(body) != size or not inflater.eof or inflater.unused_data:
        raise ValueError("checkpoint body does not match its declared size")
    return _SectionReader(table, body)


# -- warm-state codec ------------------------------------------------------


def _encode_gshare(state: dict, sections: _SectionWriter) -> dict:
    return {
        "history": state["history"],
        "counters": sections.add("B", state["counters"]),
    }


def _decode_gshare(payload: dict, sections: _SectionReader) -> dict:
    return {
        "counters": sections.byte_table(payload["counters"]),
        "history": int(payload["history"]),
    }


_LOOP_TABLES = (("tags", "q"), ("trips", "q"), ("currents", "q"),
                ("confidences", "h"))
_BTB_TABLES = (("tags", "q"), ("targets", "q"))


def _encode_tables(state: dict, layout, sections: _SectionWriter) -> dict:
    return {
        name: sections.add(typecode, state[name])
        for name, typecode in layout
    }


def _decode_tables(payload: dict, layout, sections: _SectionReader) -> dict:
    return {
        name: sections.ints(payload[name], typecode)
        for name, typecode in layout
    }


def _encode_policy(state, sections: _SectionWriter):
    if state is None:
        return None
    if all(isinstance(entry, int) for entry in state):
        # FIFO-style dense int vector.
        return {"dense": sections.add("i", state)}
    # LRU/PLRU-style per-set lists (None marks an untouched set).
    lengths = [-1 if row is None else len(row) for row in state]
    # array() fills from a list about twice as fast as from an iterator.
    cells = list(chain.from_iterable(row for row in state if row is not None))
    return {
        "lengths": sections.add("i", lengths),
        "cells": sections.add("h", cells),
    }


def _decode_policy(payload, sections: _SectionReader):
    if payload is None:
        return None
    if "dense" in payload:
        return sections.ints(payload["dense"], "i")
    cells = sections.ints(payload["cells"], "h")
    rows: list[list[int] | None] = []
    position = 0
    for length in sections.ints(payload["lengths"], "i"):
        if length == -1:
            rows.append(None)
            continue
        if length < 0:
            raise ValueError(f"bad policy row length {length}")
        rows.append(cells[position:position + length])
        position += length
    if position != len(cells):
        raise ValueError("policy rows do not cover their cells")
    return rows


def _encode_cache(state: dict, sections: _SectionWriter) -> dict:
    tags = state["tags"]
    ways = len(tags[0]) if tags else 0
    cells = list(chain.from_iterable(tags))
    if len(cells) != len(tags) * ways:
        raise ValueError("cache tag rows differ in length")
    return {
        "sets": len(tags),
        "ways": ways,
        "tags": sections.add(
            "q", list(map(_NONE_TO_SENTINEL.get, cells, cells))
        ),
        "policy": _encode_policy(state["policy"], sections),
        "seen": sections.add("q", sorted(state["seen"])),
    }


def _decode_cache(payload: dict, sections: _SectionReader) -> dict:
    sets = int(payload["sets"])
    ways = int(payload["ways"])
    cells = sections.ints(payload["tags"], "q")
    if len(cells) != sets * ways:
        raise ValueError("cache tag section does not match its shape")
    cells = list(map(_SENTINEL_TO_NONE.get, cells, cells))
    return {
        "tags": [cells[start:start + ways]
                 for start in range(0, len(cells), ways)],
        "policy": _decode_policy(payload["policy"], sections),
        "seen": set(sections.ints(payload["seen"], "q")),
    }


def _copy_line_buffers(state: dict) -> dict:
    return {
        "clock": state["clock"],
        "entries": [list(entry) for entry in state["entries"]],
    }


def _encode_itlb(state: dict) -> dict:
    return {
        "clock": state["clock"],
        "pages": [list(page) for page in state["pages"]],
        "seen": sorted(state["seen"]),
    }


def _decode_itlb(payload: dict) -> dict:
    return {
        "clock": int(payload["clock"]),
        "pages": [list(page) for page in payload["pages"]],
        "seen": set(payload["seen"]),
    }


def encode_state(state: WarmState) -> bytes:
    """The binary container of a :class:`WarmState`, without identity.

    A pure read: the snapshot (and any system sharing its storage) is
    untouched, so the sampled simulator encodes mid-run without copying
    the dense tables first. Byte-deterministic, and
    ``encode_state(decode_state(blob)) == blob``.
    """
    sections = _SectionWriter()
    small = {
        "machine": state.machine,
        "config_label": state.config_label,
        "shape": state.shape,
        "cores": [
            {
                "line_buffers": _copy_line_buffers(core["line_buffers"]),
                "predictor": core["predictor"],
                "itlb": core["itlb"],
            }
            for core in state.cores
        ],
        "predictors": [
            {
                "direction": _encode_gshare(predictor["direction"], sections),
                "loop": _encode_tables(
                    predictor["loop"], _LOOP_TABLES, sections
                ),
                "btb": _encode_tables(predictor["btb"], _BTB_TABLES, sections),
            }
            for predictor in state.predictors
        ],
        "itlbs": [_encode_itlb(itlb) for itlb in state.itlbs],
        "groups": [
            {
                "icache": _encode_cache(group["icache"], sections),
                "l2": _encode_cache(group["l2"], sections),
            }
            for group in state.groups
        ],
    }
    body = b"".join(sections.chunks)
    header = {"body": len(body), "sections": sections.table, "state": small}
    return _pack(header, zlib.compress(body, _COMPRESSION_LEVEL))


def decode_state(blob: bytes) -> WarmState:
    """Rebuild a :class:`WarmState` with fresh dense storage.

    The inverse of :func:`encode_state`; it also reads whole store
    entries (their identity fields are ignored). Every decode owns
    independent tables, so restoring the result never couples two
    systems. Raises :class:`ConfigurationError` on a malformed blob.
    """
    try:
        header, compressed = _unpack(blob)
        sections = _inflate(header, compressed)
        small = header["state"]
        return WarmState(
            machine=small["machine"],
            config_label=small["config_label"],
            shape=small["shape"],
            cores=[
                {
                    "line_buffers": _copy_line_buffers(
                        core["line_buffers"]
                    ),
                    "predictor": core["predictor"],
                    "itlb": core["itlb"],
                }
                for core in small["cores"]
            ],
            predictors=[
                {
                    "direction": _decode_gshare(
                        predictor["direction"], sections
                    ),
                    "loop": _decode_tables(
                        predictor["loop"], _LOOP_TABLES, sections
                    ),
                    "btb": _decode_tables(
                        predictor["btb"], _BTB_TABLES, sections
                    ),
                }
                for predictor in small["predictors"]
            ],
            itlbs=[_decode_itlb(itlb) for itlb in small["itlbs"]],
            groups=[
                {
                    "icache": _decode_cache(group["icache"], sections),
                    "l2": _decode_cache(group["l2"], sections),
                }
                for group in small["groups"]
            ],
        )
    except (
        KeyError, TypeError, ValueError, IndexError, zlib.error
    ) as exc:
        raise ConfigurationError(
            f"malformed checkpoint payload: {exc}"
        ) from exc


# -- the on-disk store -----------------------------------------------------


@dataclass(frozen=True)
class CheckpointKey:
    """Everything the warm state entering an interval is a function of."""

    machine: str
    benchmark: str
    seed: int
    scale: float
    threads: int
    fingerprint: str
    plan: str
    warm_l2: bool
    shape: str

    def directory(self) -> Path:
        mode = "warm" if self.warm_l2 else "cold"
        return (
            Path(_sanitize(self.machine))
            / _sanitize(self.benchmark)
            / (
                f"seed{self.seed}__scale{_format_scale(self.scale)}"
                f"__t{self.threads}"
            )
            / _sanitize(self.fingerprint)
            / f"{_sanitize(self.plan)}__{mode}__{_sanitize(self.shape)}"
        )

    def header(self) -> dict:
        return {
            "machine": self.machine,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "scale": self.scale,
            "threads": self.threads,
            "fingerprint": self.fingerprint,
            "plan": self.plan,
            "warm_l2": self.warm_l2,
            "shape": self.shape,
        }


class CheckpointStore:
    """Directory-backed store of per-interval warm-state checkpoints.

    A pure cache over re-derivable state: reads verify the container
    and the full identity header and answer ``None`` on any mismatch or
    corruption (the caller re-warms and re-puts), so a damaged tree
    degrades to cold warming, never to wrong results.
    """

    #: Subdirectory name used when co-locating with a ``ResultStore``.
    SUBDIR = "checkpoints"

    #: Verified entries kept in memory (a campaign worker re-reads the
    #: same checkpoints for every design point of a timing sweep).
    _CACHE_LIMIT = 64

    _ENTRY_GLOB = "*/*/*/*/*/detail*.ckpt"
    #: Entries of the retired JSON format: never served, pruned by gc.
    _LEGACY_GLOB = "*/*/*/*/*/detail*.json"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._verified: dict[Path, tuple[tuple[int, int], dict, bytes]] = {}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigurationError(
                f"checkpoint store root {self.root} is not a usable "
                f"directory: {exc}"
            ) from exc

    def path_for(self, key: CheckpointKey, detail_index: int) -> Path:
        return self.root / key.directory() / f"detail{detail_index}.ckpt"

    def _remember(self, path: Path, header: dict, blob: bytes) -> None:
        try:
            stat = path.stat()
        except OSError:  # pragma: no cover - a concurrent gc raced us
            return
        if len(self._verified) >= self._CACHE_LIMIT:
            self._verified.clear()
        self._verified[path] = (
            (stat.st_mtime_ns, stat.st_size), header, blob
        )

    def _read(self, path: Path) -> tuple[dict, bytes] | None:
        """One verified entry as ``(header, blob)``, or ``None``.

        Verification inflates the body once; the result is memoised by
        ``(mtime, size)``, so the design points of a sweep sharing an
        entry pay for it once.
        """
        try:
            stat = path.stat()
        except OSError:
            self._verified.pop(path, None)
            return None
        stamp = (stat.st_mtime_ns, stat.st_size)
        cached = self._verified.get(path)
        if cached is not None and cached[0] == stamp:
            return cached[1], cached[2]
        try:
            blob = path.read_bytes()
            header, compressed = _unpack(blob)
            _inflate(header, compressed)
        except (OSError, ValueError, TypeError, KeyError, zlib.error):
            return None
        self._remember(path, header, blob)
        return header, blob

    def get(self, key: CheckpointKey, detail_index: int) -> bytes | None:
        """The encoded warm state entering detail interval
        ``detail_index`` (a whole entry, which :func:`decode_state`
        reads), or ``None`` when absent or unverifiable."""
        registry = _active_metrics()
        if registry is None:
            return self._get(key, detail_index)
        started = time.perf_counter()
        state = self._get(key, detail_index)
        registry.histogram("store.checkpoint.get_s").observe(
            time.perf_counter() - started
        )
        registry.counter(
            "store.checkpoint.requests",
            outcome="hit" if state is not None else "miss",
        ).inc()
        return state

    def _get(self, key: CheckpointKey, detail_index: int) -> bytes | None:
        entry = self._read(self.path_for(key, detail_index))
        if entry is None:
            return None
        header, blob = entry
        if header.get("key") != key.header():
            return None
        if header.get("detail") != detail_index:
            return None
        return blob

    def put(
        self,
        key: CheckpointKey,
        detail_index: int,
        state: bytes,
        config_label: str = "",
    ) -> Path:
        """Persist one :func:`encode_state` blob under its identity;
        returns the written path.

        Same write discipline as ``ResultStore.put``: a uniquely-named
        tmp file in the final directory, atomically renamed, so
        concurrent writers (shard hosts warming the same prefix) cannot
        interleave half-written payloads.
        """
        registry = _active_metrics()
        started = time.perf_counter() if registry is not None else 0.0
        try:
            header, compressed = _unpack(state)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"not an encoded warm state: {exc}"
            ) from exc
        header = dict(
            header,
            key=key.header(),
            detail=detail_index,
            config_label=config_label,
        )
        blob = _pack(header, compressed)
        path = self.path_for(key, detail_index)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem + ".", suffix=".tmp", dir=path.parent
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.chmod(tmp, 0o666 & ~_UMASK)
            tmp.replace(path)  # atomic within one filesystem
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._remember(path, header, blob)
        if registry is not None:
            registry.histogram("store.checkpoint.put_s").observe(
                time.perf_counter() - started
            )
        return path

    # -- maintenance -------------------------------------------------------

    def entry_paths(self) -> list[Path]:
        """Every entry of the current format, in path order."""
        return sorted(self.root.glob(self._ENTRY_GLOB))

    def __len__(self) -> int:
        return len(self.entry_paths())

    def total_bytes(self) -> int:
        total = 0
        for path in self.entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def gc(self, dry_run: bool = False) -> list[Path]:
        """Drop checkpoints that can no longer be served.

        A checkpoint is collectable when it is a legacy
        ``detail<k>.json`` entry, its container fails verification, its
        identity header no longer parses (unknown machine model,
        unparseable plan spec), or its trace fingerprint is stale — the
        synthesizer for its ``(benchmark, threads, seed, scale)`` now
        produces different records, so the stored state describes a
        trace that no longer exists. Fingerprints are re-derived once
        per distinct trace identity; identities whose synthesis fails
        (retired benchmark names) are collected too. Returns the victim
        paths; ``dry_run`` only reports them. Empty key directories
        left behind are pruned as well.
        """
        from repro.machine.model import model_names
        from repro.sampling.plan import resolve_plan
        from repro.trace.synthesis import synthesize_benchmark

        known_machines = set(model_names())
        current: dict[tuple, str | None] = {}

        def current_fingerprint(identity: tuple) -> str | None:
            if identity not in current:
                benchmark, threads, seed, scale = identity
                try:
                    traces = synthesize_benchmark(
                        benchmark,
                        thread_count=threads,
                        scale=scale,
                        seed=seed,
                    )
                    current[identity] = trace_fingerprint(traces)
                except Exception:
                    current[identity] = None
            return current[identity]

        victims: list[Path] = sorted(self.root.glob(self._LEGACY_GLOB))
        for path in self.entry_paths():
            entry = self._read(path)
            try:
                if entry is None:
                    raise ValueError("unverifiable entry")
                header = entry[0]["key"]
                machine = str(header["machine"])
                benchmark = str(header["benchmark"])
                seed = int(header["seed"])
                scale = float(header["scale"])
                threads = int(header["threads"])
                fingerprint = str(header["fingerprint"])
                plan = str(header["plan"])
            except (KeyError, TypeError, ValueError):
                victims.append(path)
                continue
            parseable = machine in known_machines
            if parseable:
                try:
                    resolve_plan(plan)
                except ConfigurationError:
                    parseable = False
            if not parseable:
                victims.append(path)
                continue
            expected = current_fingerprint((benchmark, threads, seed, scale))
            if expected is None or expected != fingerprint:
                victims.append(path)
        if not dry_run:
            for path in victims:
                path.unlink(missing_ok=True)
                self._verified.pop(path, None)
            # Prune now-empty key directories bottom-up.
            directories = sorted(
                (p for p in self.root.rglob("*") if p.is_dir()),
                key=lambda p: len(p.parts),
                reverse=True,
            )
            for directory in directories:
                try:
                    directory.rmdir()  # fails (kept) unless empty
                except OSError:
                    pass
        return victims


@dataclass(frozen=True)
class Checkpointing:
    """Checkpoint policy for one sampled run.

    Attributes:
        store: the checkpoint tree to read/write.
        seed: trace synthesis seed of the run (a key component the
            trace set itself does not carry).
        scale: trace scale of the run (same reason).
        refresh: when True, ignore existing entries (every interval
            warms from the trace) but still write fresh ones — the
            ``--checkpoints refresh`` recovery mode.
    """

    store: CheckpointStore
    seed: int = 0
    scale: float = 1.0
    refresh: bool = False
