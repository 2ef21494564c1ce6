"""Streamed access-trace readers and writers (CSV, packed binary).

A trace *file* is a flat, time-ordered stream of access events — one
``(processor, op, address, gap)`` record per memory operation — in
contrast to the in-memory :class:`~repro.workloads.trace.MultiTrace`,
which keeps one per-processor stream. Files are how captured workloads
arrive from external tools; this module streams them (chunked, never
fully in memory), validates every record, and materializes them into
the existing ``Trace``/``MultiTrace`` shapes so trace-driven runs flow
through the simulator, harness, and conformance machinery unchanged.

Two on-disk formats, both transparently gzip-compressed when the file
carries the gzip magic (or is written with a ``.gz`` suffix):

* **CSV** (``cgct-trace-csv/v1``) — a ``proc,op,address,gap`` header
  row, one record per line, ops by name (``LOAD``) or code (``0``),
  addresses decimal or ``0x`` hex. An optional leading comment
  ``# cgct-trace-csv/v1 processors=N`` declares the machine width so
  processors with zero accesses survive a round trip.
* **Packed binary** (``cgct-trace/v1``) — a 24-byte header (magic,
  version, processor count, record count) followed by fixed 16-byte
  little-endian records. The record count may be the
  :data:`UNKNOWN_COUNT` sentinel for single-pass writers that cannot
  seek (gzip); the reader then requires a whole number of records at
  EOF instead.

Every malformed input — unknown op, negative address/gap, bad processor
id, truncated binary tail, foreign magic — raises a typed
:class:`~repro.common.errors.WorkloadError` naming the offending record.

``load_workload`` additionally accepts ``.npz`` files written by
:meth:`MultiTrace.save`, so all three persistence formats funnel into
one entry point; :func:`repro.workloads.benchmarks.build_benchmark`
resolves ``trace:<path>`` workload names through it.
"""

from __future__ import annotations

import gzip
import io
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.common.errors import WorkloadError
from repro.workloads.trace import MultiTrace, Trace, TraceOp

#: Packed-binary magic + version (8 bytes).
BINARY_MAGIC = b"CGCTTRC\x01"

#: Binary header: magic(8) + u32 version + u32 processors + u64 records.
_HEADER = struct.Struct("<8sIIQ")

#: One binary record: u64 address, u32 gap, u16 proc, u8 op, u8 flags.
RECORD_DTYPE = np.dtype([
    ("address", "<u8"),
    ("gap", "<u4"),
    ("proc", "<u2"),
    ("op", "u1"),
    ("flags", "u1"),
])

RECORD_BYTES = RECORD_DTYPE.itemsize  # 16

#: record_count sentinel for writers that cannot seek back to patch it.
UNKNOWN_COUNT = (1 << 64) - 1

#: CSV header comment prefix declaring the schema + machine width.
CSV_SCHEMA = "cgct-trace-csv/v1"

#: Hard ceiling on processor ids (the binary format's u16 field).
MAX_PROCESSORS = 1 << 16

#: Default streaming chunk size, in records.
DEFAULT_CHUNK = 65_536

_OP_NAMES = {op.name: op for op in TraceOp}
_MAX_OP = max(TraceOp)


@dataclass(frozen=True)
class EventChunk:
    """A contiguous slice of the event stream, as parallel arrays."""

    procs: np.ndarray      # int64
    ops: np.ndarray        # uint8
    addresses: np.ndarray  # uint64
    gaps: np.ndarray       # uint32

    def __len__(self) -> int:
        return len(self.procs)


@dataclass(frozen=True)
class TraceInfo:
    """What a trace file declares about itself."""

    format: str                      # "csv" | "binary" | "npz"
    compressed: bool
    num_processors: Optional[int]    # None when the file does not declare it
    record_count: Optional[int]      # None when unknown (CSV / sentinel)


# ----------------------------------------------------------------------
# Stream plumbing
# ----------------------------------------------------------------------
def _open_stream(path: Union[str, Path]) -> io.BufferedReader:
    """Open *path* for binary reading, transparently gunzipping."""
    raw = open(path, "rb")
    magic = raw.peek(2)[:2] if hasattr(raw, "peek") else b""
    if magic == b"\x1f\x8b":
        return io.BufferedReader(gzip.GzipFile(fileobj=raw))
    return io.BufferedReader(raw) if not isinstance(raw, io.BufferedReader) \
        else raw


def _open_sink(path: Union[str, Path]):
    """Open *path* for binary writing; ``.gz`` suffixes gzip-compress.

    The gzip header carries no timestamp, so equal content gives equal
    bytes (and an equal :func:`trace_file_digest`); zlib's default level
    6 compresses several times faster than level 9 for a few per cent
    more bytes.
    """
    if str(path).endswith(".gz"):
        return gzip.GzipFile(path, "wb", compresslevel=6, mtime=0)
    return open(path, "wb")


def detect_format(path: Union[str, Path]) -> TraceInfo:
    """Sniff a trace file's format from its content (never its name)."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"{path}: no such trace file")
    compressed = False
    with open(path, "rb") as raw:
        head = raw.read(2)
    if head == b"\x1f\x8b":
        compressed = True
    with _open_stream(path) as stream:
        head = stream.read(len(BINARY_MAGIC))
        if head == BINARY_MAGIC:
            rest = stream.read(_HEADER.size - len(BINARY_MAGIC))
            if len(rest) < _HEADER.size - len(BINARY_MAGIC):
                raise WorkloadError(f"{path}: truncated binary trace header")
            _, _, nprocs, count = _HEADER.unpack(head + rest)
            return TraceInfo(
                "binary", compressed, nprocs,
                None if count == UNKNOWN_COUNT else count,
            )
        if head[:2] == b"PK":  # zip container: a saved MultiTrace .npz
            return TraceInfo("npz", compressed, None, None)
        if head[:4] == b"CGCT":
            raise WorkloadError(
                f"{path}: unsupported binary trace version "
                f"(magic {head!r}, expected {BINARY_MAGIC!r})"
            )
    return TraceInfo("csv", compressed, _csv_declared_processors(path), None)


def _csv_declared_processors(path: Path) -> Optional[int]:
    """The ``processors=N`` declaration from a CSV schema comment."""
    with _open_stream(path) as stream:
        text = io.TextIOWrapper(stream, encoding="utf-8")
        for line in text:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                return None
            if CSV_SCHEMA in line:
                for token in line.split():
                    if token.startswith("processors="):
                        try:
                            return int(token.partition("=")[2])
                        except ValueError:
                            raise WorkloadError(
                                f"{path}: bad processor declaration "
                                f"{token!r}"
                            ) from None
    return None


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_events(
    path: Union[str, Path],
    chunk_records: int = DEFAULT_CHUNK,
) -> Iterator[EventChunk]:
    """Stream a CSV or binary trace file as validated event chunks.

    The chunk size only affects memory use: concatenating the yielded
    chunks is bit-identical for every ``chunk_records`` (the property
    tests pin this). ``.npz`` workloads are not event streams; load
    them with :func:`load_workload`.
    """
    if chunk_records <= 0:
        raise WorkloadError(f"chunk_records must be positive, got "
                            f"{chunk_records}")
    info = detect_format(path)
    if info.format == "npz":
        raise WorkloadError(
            f"{path}: .npz workloads have no event order; use "
            f"load_workload()"
        )
    if info.format == "binary":
        return _read_binary(Path(path), chunk_records, info)
    return _read_csv(Path(path), chunk_records, info)


def _read_binary(
    path: Path, chunk_records: int, info: TraceInfo,
) -> Iterator[EventChunk]:
    expected = info.record_count
    seen = 0
    with _open_stream(path) as stream:
        stream.read(_HEADER.size)
        while True:
            payload = stream.read(chunk_records * RECORD_BYTES)
            if not payload:
                break
            if len(payload) % RECORD_BYTES:
                raise WorkloadError(
                    f"{path}: truncated binary trace tail "
                    f"({len(payload) % RECORD_BYTES} stray bytes after "
                    f"record {seen + len(payload) // RECORD_BYTES})"
                )
            records = np.frombuffer(payload, dtype=RECORD_DTYPE)
            _validate_binary_chunk(path, records, seen, info.num_processors)
            seen += len(records)
            if expected is not None and seen > expected:
                raise WorkloadError(
                    f"{path}: {seen}+ records but the header declares "
                    f"{expected}"
                )
            yield EventChunk(
                procs=records["proc"].astype(np.int64),
                ops=records["op"].copy(),
                addresses=records["address"].copy(),
                gaps=records["gap"].copy(),
            )
    if expected is not None and seen != expected:
        raise WorkloadError(
            f"{path}: truncated binary trace — header declares "
            f"{expected} records, file holds {seen}"
        )


def _validate_binary_chunk(
    path: Path, records: np.ndarray, offset: int, nprocs: Optional[int],
) -> None:
    if len(records) == 0:
        return
    bad = np.nonzero(records["op"] > _MAX_OP)[0]
    if len(bad):
        k = int(bad[0])
        raise WorkloadError(
            f"{path}: record {offset + k}: unknown op code "
            f"{int(records['op'][k])}"
        )
    bad = np.nonzero(records["flags"] != 0)[0]
    if len(bad):
        k = int(bad[0])
        raise WorkloadError(
            f"{path}: record {offset + k}: reserved flags byte is "
            f"{int(records['flags'][k])} (must be 0)"
        )
    if nprocs is not None:
        bad = np.nonzero(records["proc"] >= nprocs)[0]
        if len(bad):
            k = int(bad[0])
            raise WorkloadError(
                f"{path}: record {offset + k}: processor "
                f"{int(records['proc'][k])} outside the declared "
                f"{nprocs}-processor machine"
            )


def _read_csv(
    path: Path, chunk_records: int, info: TraceInfo,
) -> Iterator[EventChunk]:
    procs: List[int] = []
    ops: List[int] = []
    addresses: List[int] = []
    gaps: List[int] = []

    def flush() -> EventChunk:
        chunk = EventChunk(
            procs=np.array(procs, dtype=np.int64),
            ops=np.array(ops, dtype=np.uint8),
            addresses=np.array(addresses, dtype=np.uint64),
            gaps=np.array(gaps, dtype=np.uint32),
        )
        procs.clear(); ops.clear(); addresses.clear(); gaps.clear()
        return chunk

    nprocs = info.num_processors
    saw_header = False
    with _open_stream(path) as stream:
        text = io.TextIOWrapper(stream, encoding="utf-8")
        for lineno, line in enumerate(text, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                header = [c.strip().lower() for c in line.split(",")]
                if header != ["proc", "op", "address", "gap"]:
                    raise WorkloadError(
                        f"{path}:{lineno}: expected header "
                        f"'proc,op,address,gap', got {line!r}"
                    )
                saw_header = True
                continue
            fields = [c.strip() for c in line.split(",")]
            if len(fields) != 4:
                raise WorkloadError(
                    f"{path}:{lineno}: expected 4 fields, got "
                    f"{len(fields)} ({line!r})"
                )
            proc = _parse_int(path, lineno, "proc", fields[0])
            if proc < 0 or proc >= MAX_PROCESSORS:
                raise WorkloadError(
                    f"{path}:{lineno}: bad processor id {proc}"
                )
            if nprocs is not None and proc >= nprocs:
                raise WorkloadError(
                    f"{path}:{lineno}: processor {proc} outside the "
                    f"declared {nprocs}-processor machine"
                )
            op = _parse_op(path, lineno, fields[1])
            address = _parse_int(path, lineno, "address", fields[2])
            if address < 0 or address >= (1 << 64):
                raise WorkloadError(
                    f"{path}:{lineno}: address {fields[2]} outside "
                    f"[0, 2^64)"
                )
            gap = _parse_int(path, lineno, "gap", fields[3])
            if gap < 0 or gap >= (1 << 32):
                raise WorkloadError(
                    f"{path}:{lineno}: gap {fields[3]} outside [0, 2^32)"
                )
            procs.append(proc)
            ops.append(op)
            addresses.append(address)
            gaps.append(gap)
            if len(procs) >= chunk_records:
                yield flush()
        if not saw_header:
            raise WorkloadError(
                f"{path}: not a CSV trace (missing 'proc,op,address,gap' "
                f"header)"
            )
    if procs:
        yield flush()


def _parse_int(path: Path, lineno: int, label: str, text: str) -> int:
    try:
        return int(text, 0)  # base 0: decimal or 0x-prefixed hex
    except ValueError:
        raise WorkloadError(
            f"{path}:{lineno}: {label} {text!r} is not an integer"
        ) from None


def _parse_op(path: Path, lineno: int, text: str) -> int:
    op = _OP_NAMES.get(text.upper())
    if op is not None:
        return int(op)
    try:
        code = int(text, 0)
    except ValueError:
        raise WorkloadError(
            f"{path}:{lineno}: unknown op {text!r} (names: "
            f"{', '.join(_OP_NAMES)})"
        ) from None
    if not 0 <= code <= _MAX_OP:
        raise WorkloadError(f"{path}:{lineno}: unknown op code {code}")
    return code


# ----------------------------------------------------------------------
# Event stream <-> MultiTrace
# ----------------------------------------------------------------------
def events_to_workload(
    chunks: Iterable[EventChunk],
    num_processors: Optional[int] = None,
    name: str = "trace",
) -> MultiTrace:
    """Materialize an event stream into per-processor traces.

    Each processor's records keep their stream order, so a workload
    round-tripped through any event interleaving comes back with
    bit-identical per-processor arrays. ``num_processors`` widens the
    machine beyond the highest processor id seen (processors with no
    accesses get empty traces).
    """
    per_proc: Dict[int, List[EventChunk]] = {}
    top = -1
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        top = max(top, int(chunk.procs.max()))
        for proc in np.unique(chunk.procs):
            mask = chunk.procs == proc
            per_proc.setdefault(int(proc), []).append(EventChunk(
                procs=chunk.procs[mask],
                ops=chunk.ops[mask],
                addresses=chunk.addresses[mask],
                gaps=chunk.gaps[mask],
            ))
    width = top + 1
    if num_processors is not None:
        if width > num_processors:
            raise WorkloadError(
                f"trace {name}: processor {top} outside the requested "
                f"{num_processors}-processor machine"
            )
        width = num_processors
    traces = []
    for proc in range(width):
        parts = per_proc.get(proc, [])
        if parts:
            trace = Trace(
                ops=np.concatenate([p.ops for p in parts]),
                addresses=np.concatenate([p.addresses for p in parts]),
                gaps=np.concatenate([p.gaps for p in parts]),
                name=f"{name}[p{proc}]",
            )
        else:
            trace = Trace(
                ops=np.array([], dtype=np.uint8),
                addresses=np.array([], dtype=np.uint64),
                gaps=np.array([], dtype=np.uint32),
                name=f"{name}[p{proc}]",
            )
        traces.append(trace)
    return MultiTrace(per_processor=traces, name=name)


def workload_to_events(
    workload: MultiTrace,
    chunk_records: int = DEFAULT_CHUNK,
) -> Iterator[EventChunk]:
    """Interleave a workload's per-processor streams round-robin.

    Round-robin by per-processor index is the canonical interleaving the
    golden model and the profiler use for in-memory workloads; each
    processor's subsequence keeps its program order, which is all that
    materializing back preserves or needs.
    """
    procs_parts = []
    ks_parts = []
    for proc, trace in enumerate(workload.per_processor):
        n = len(trace)
        procs_parts.append(np.full(n, proc, dtype=np.int64))
        ks_parts.append(np.arange(n, dtype=np.int64))
    if not procs_parts:
        return
    procs = np.concatenate(procs_parts)
    ks = np.concatenate(ks_parts)
    order = np.lexsort((procs, ks))
    ops = np.concatenate([t.ops for t in workload.per_processor])
    addresses = np.concatenate(
        [t.addresses for t in workload.per_processor]
    )
    gaps = np.concatenate([t.gaps for t in workload.per_processor])
    total = len(order)
    for start in range(0, total, chunk_records):
        index = order[start:start + chunk_records]
        yield EventChunk(
            procs=procs[index],
            ops=ops[index].astype(np.uint8, copy=False),
            addresses=addresses[index].astype(np.uint64, copy=False),
            gaps=gaps[index].astype(np.uint32, copy=False),
        )


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_binary(
    path: Union[str, Path],
    chunks: Iterable[EventChunk],
    num_processors: int,
    record_count: Optional[int] = None,
) -> int:
    """Write an event stream as a packed-binary trace; returns records.

    When ``record_count`` is unknown the header carries the
    :data:`UNKNOWN_COUNT` sentinel (single-pass friendly — gzip sinks
    cannot seek back to patch it).
    """
    if not 0 < num_processors <= MAX_PROCESSORS:
        raise WorkloadError(
            f"{path}: processor count {num_processors} outside "
            f"[1, {MAX_PROCESSORS}]"
        )
    written = 0
    with _open_sink(path) as sink:
        count = UNKNOWN_COUNT if record_count is None else record_count
        sink.write(_HEADER.pack(BINARY_MAGIC, 1, num_processors, count))
        for chunk in chunks:
            n = len(chunk)
            if n == 0:
                continue
            if int(chunk.procs.max()) >= num_processors:
                raise WorkloadError(
                    f"{path}: record {written}: processor "
                    f"{int(chunk.procs.max())} outside the declared "
                    f"{num_processors}-processor machine"
                )
            records = np.empty(n, dtype=RECORD_DTYPE)
            records["address"] = chunk.addresses
            records["gap"] = chunk.gaps
            records["proc"] = chunk.procs
            records["op"] = chunk.ops
            records["flags"] = 0
            sink.write(records.tobytes())
            written += n
    if record_count is not None and written != record_count:
        raise WorkloadError(
            f"{path}: wrote {written} records but the header promised "
            f"{record_count}"
        )
    return written


def write_csv(
    path: Union[str, Path],
    chunks: Iterable[EventChunk],
    num_processors: int,
) -> int:
    """Write an event stream as a CSV trace; returns records written."""
    written = 0
    with _open_sink(path) as sink:
        text = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
        text.write(f"# {CSV_SCHEMA} processors={num_processors}\n")
        text.write("proc,op,address,gap\n")
        names = [op.name for op in TraceOp]
        for chunk in chunks:
            rows = zip(
                chunk.procs.tolist(), chunk.ops.tolist(),
                chunk.addresses.tolist(), chunk.gaps.tolist(),
            )
            for proc, op, address, gap in rows:
                text.write(f"{proc},{names[op]},{address:#x},{gap}\n")
            written += len(chunk)
        text.flush()
        text.detach()
    return written


def save_workload(
    workload: MultiTrace, path: Union[str, Path], format: str,
) -> int:
    """Persist a workload as ``csv``, ``binary``, or ``npz``."""
    if format == "npz":
        workload.save(path)
        return len(workload)
    chunks = workload_to_events(workload)
    if format == "binary":
        return write_binary(path, chunks, workload.num_processors,
                            record_count=len(workload))
    if format == "csv":
        return write_csv(path, chunks, workload.num_processors)
    raise WorkloadError(f"unknown trace format {format!r} "
                        f"(csv, binary, npz)")


# ----------------------------------------------------------------------
# Loading into the simulator
# ----------------------------------------------------------------------
def load_workload(
    path: Union[str, Path],
    num_processors: Optional[int] = None,
    ops_per_processor: Optional[int] = None,
    name: Optional[str] = None,
    chunk_records: int = DEFAULT_CHUNK,
) -> MultiTrace:
    """Materialize any supported trace file into a :class:`MultiTrace`.

    ``num_processors`` pads the machine with empty traces up to the
    requested width (a file wider than the machine is a
    :class:`WorkloadError`); ``ops_per_processor`` truncates each
    processor's stream, mirroring the generated benchmarks' scaling.
    """
    path = Path(path)
    info = detect_format(path)
    name = name or f"trace:{path.name}"
    if info.format == "npz":
        workload = MultiTrace.load(path)
        workload = MultiTrace(per_processor=workload.per_processor,
                              name=name)
        if num_processors is not None:
            workload = _pad_processors(workload, num_processors, name)
    else:
        declared = info.num_processors
        width = num_processors if num_processors is not None else declared
        workload = events_to_workload(
            read_events(path, chunk_records=chunk_records),
            num_processors=width, name=name,
        )
        if width is None and declared is None and num_processors is None \
                and workload.num_processors == 0:
            raise WorkloadError(f"{path}: empty trace with no declared "
                                f"processor count")
    if ops_per_processor is not None:
        workload = workload.scaled(ops_per_processor)
    return workload


def _pad_processors(
    workload: MultiTrace, num_processors: int, name: str,
) -> MultiTrace:
    if workload.num_processors > num_processors:
        raise WorkloadError(
            f"trace {name}: file holds {workload.num_processors} "
            f"processors but the machine has {num_processors}"
        )
    traces = list(workload.per_processor)
    for proc in range(len(traces), num_processors):
        traces.append(Trace(
            ops=np.array([], dtype=np.uint8),
            addresses=np.array([], dtype=np.uint64),
            gaps=np.array([], dtype=np.uint32),
            name=f"{name}[p{proc}]",
        ))
    return MultiTrace(per_processor=traces, name=name)


# ----------------------------------------------------------------------
# Content identity (for the harness result cache)
# ----------------------------------------------------------------------
_DIGEST_CACHE: Dict[str, Tuple[Tuple[int, int], str]] = {}


def trace_file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of the file bytes (16 hex chars), memoised by mtime+size.

    ``trace:<path>`` workload names embed a *path*, not content; the
    harness disk cache folds this digest into its keys so editing the
    file invalidates cached results instead of silently replaying them.
    """
    import hashlib

    path = Path(path)
    try:
        stat = path.stat()
    except OSError:
        raise WorkloadError(f"{path}: no such trace file") from None
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _DIGEST_CACHE.get(str(path))
    if cached is not None and cached[0] == stamp:
        return cached[1]
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    short = digest.hexdigest()[:16]
    _DIGEST_CACHE[str(path)] = (stamp, short)
    return short
