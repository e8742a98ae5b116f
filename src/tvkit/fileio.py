"""File formats: netpbm PGM images, Middlebury .flo flow fields, kernel
grids and CSV convergence reports.

PGM values are scaled to [0,1] on read and quantized (round half-up) on
write; 16-bit samples are big-endian per netpbm. The .flo layout is the
4-byte tag "PIEH", little-endian int32 width and height, then row-major
interleaved (u, v) float32 pairs. A kernel grid has one row of weights per
line and '#' comments. .flo and grid round trips are bit-exact. Reports are
RFC-4180-style CSV with LF line endings. A malformed PGM, .flo, grid or
report file raises a `FileFormatError` that names the byte offset of the
fault (for a report, of its line).
"""

from __future__ import annotations

import csv
import math
import re
import struct
from pathlib import Path

import numpy as np

from .grid import Kernel, VectorField, ensure_field
from .solvers import SolveReport

FLO_MAGIC = b"PIEH"
# the report columns after "iteration": CSV name, SolveReport history, cell type
_REPORT_COLUMNS = (("objective", "objective_history", float),
                   ("step_norm", "step_norm_history", float),
                   ("cg_iters", "cg_iters_history", int))
REPORT_HEADER = ("iteration", *(name for name, _, _ in _REPORT_COLUMNS))

# whitespace and '#' comments, then one token (empty only at the end of data)
_TOKEN = re.compile(rb"(?:\s+|#[^\r\n]*)*(\S*)")


class FileFormatError(ValueError):
    """Malformed input file; the message names the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PgmParseError(FileFormatError):
    """Malformed PGM input."""


class FloFormatError(FileFormatError):
    """Malformed .flo input."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """(token, token_offset, position_after_token) of the next token at or
    after ``pos``; the token is empty at the end of the data."""
    m = _TOKEN.match(data, pos)
    return m[1], m.start(1), m.end()


def _check_payload(data: bytes, start: int, size: int, what: str, error) -> None:
    """Raise ``error`` unless exactly ``size`` bytes follow ``start``."""
    available = len(data) - start
    if available < size:
        raise error(f"truncated {what}: need {size} bytes, have {available}", len(data))
    if available > size:
        raise error(f"trailing data after {what} of {size} bytes", start + size)


def _check_maxval(maxval: int) -> None:
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be in [1, 65535], got {maxval}")


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) grayscale image, scaled to [0,1]."""
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise PgmParseError("file too short for a PGM magic number", 0)
    magic = data[:2]
    if magic in (b"P1", b"P3", b"P4", b"P6", b"P7"):
        raise PgmParseError(
            f"unsupported netpbm type {magic.decode('ascii')}: "
            "only grayscale P2/P5 input is accepted",
            0,
        )
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"bad magic {magic!r}, expected P2 or P5", 0)

    pos, header = 2, []
    for name in ("width", "height", "maxval"):
        token, start, pos = _next_token(data, pos)
        if not token:
            raise PgmParseError("unexpected end of file in header", start)
        try:
            value = int(token)
        except ValueError:
            raise PgmParseError(f"invalid {name} token {token!r}", start) from None
        if value <= 0:
            raise PgmParseError(f"{name} must be positive, got {value}", start)
        header.append(value)
    width, height, maxval = header
    if maxval > 65535:
        raise PgmParseError(f"maxval {maxval} exceeds 65535", start)
    count = width * height

    if magic == b"P5":
        if not data[pos : pos + 1].isspace():
            raise PgmParseError("expected single whitespace after maxval", pos)
        payload = pos + 1
        dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
        _check_payload(data, payload, count * dtype.itemsize, "P5 payload", PgmParseError)
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=payload)
        over = np.nonzero(samples > maxval)[0]
        if over.size:
            raise PgmParseError(
                f"sample value {int(samples[over[0]])} exceeds maxval {maxval}",
                payload + int(over[0]) * dtype.itemsize,
            )
        values = samples.astype(np.float64)
    else:
        # every P2 sample takes at least a separator and a digit, so a header
        # claiming more samples than the file can hold fails before allocating
        if count > (len(data) - pos) // 2:
            raise PgmParseError(
                f"truncated P2 payload: {count} samples cannot fit in "
                f"{len(data) - pos} bytes",
                len(data),
            )
        values = np.empty(count, dtype=np.float64)
        for k in range(count):
            token, start, pos = _next_token(data, pos)
            if not token:
                raise PgmParseError(f"truncated P2 payload: read {k} of {count} samples", start)
            try:
                sample = int(token)
            except ValueError:
                raise PgmParseError(f"invalid sample token {token!r}", start) from None
            if sample < 0 or sample > maxval:
                raise PgmParseError(f"sample value {sample} outside [0, {maxval}]", start)
            values[k] = sample
        # only whitespace/comments may follow the last sample
        token, start, _ = _next_token(data, pos)
        if token:
            raise PgmParseError("trailing data after P2 samples", start)

    return values.reshape(height, width) / float(maxval)


def write_pgm(path, f: np.ndarray, maxval: int = 255) -> None:
    """Write a P5 binary grayscale image.

    Values must be finite; they are clamped to [0,1] and rounded half-up to
    integer levels.  maxval above 255 switches to 16-bit big-endian samples.
    """
    f = ensure_field(f)
    _check_maxval(maxval)
    levels = np.floor(np.clip(f, 0.0, 1.0) * maxval + 0.5)
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    h, w = f.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(levels.astype(dtype).tobytes())


def read_flo(path) -> VectorField:
    """Read a Middlebury .flo flow field."""
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FloFormatError("file too short for a .flo header", len(data))
    if data[:4] != FLO_MAGIC:
        raise FloFormatError(f"bad magic {data[:4]!r}, expected {FLO_MAGIC!r}", 0)
    width, height = struct.unpack_from("<ii", data, 4)
    if width <= 0 or height <= 0:
        raise FloFormatError(f"bad dimensions {width}x{height}", 4)
    _check_payload(data, 12, 8 * width * height, ".flo payload", FloFormatError)
    arr = np.frombuffer(data, dtype="<f4", offset=12).reshape(height, width, 2)
    return VectorField(
        arr[..., 0].astype(np.float64), arr[..., 1].astype(np.float64)
    )


def write_flo(path, w: VectorField) -> None:
    """Write a Middlebury .flo flow field (float32 little-endian).

    The components must be non-empty, finite 2-d fields of one shape, each
    value within the float32 range; otherwise `ValueError` is raised before
    the file is opened.  tvkit never estimates non-finite flow, and the
    format marks unknown flow by values above 1e9, not by NaN."""
    u, v = ensure_field(w.u), ensure_field(w.v)
    if u.shape != v.shape:
        raise ValueError("flow components must be matching 2-d fields")
    if max(np.abs(u).max(), np.abs(v).max()) > np.finfo(np.float32).max:
        raise ValueError("flow exceeds the float32 range of .flo")
    h, wd = u.shape
    interleaved = np.empty((h, wd, 2), dtype="<f4")
    interleaved[..., 0] = u
    interleaved[..., 1] = v
    with open(path, "wb") as fh:
        fh.write(FLO_MAGIC)
        fh.write(struct.pack("<ii", wd, h))
        fh.write(interleaved.tobytes())


def read_kernel_text(path) -> Kernel:
    """Read a kernel grid: one row of weights per line, '#' comments."""
    data = Path(path).read_bytes()
    rows, start = [], 0
    for line in data.splitlines(keepends=True):
        row, (token, offset, pos) = [], _next_token(line, 0)
        while token:
            try:
                row.append(float(token))
                if not math.isfinite(row[-1]):
                    raise ValueError
            except ValueError:
                raise FileFormatError(f"invalid kernel weight {token!r}", start + offset) from None
            token, offset, pos = _next_token(line, pos)
        if row and rows and len(row) != len(rows[0]):
            raise FileFormatError(f"ragged kernel row of {len(row)} weights", start)
        if row:
            rows.append(row)
        start += len(line)
    if not rows:
        raise FileFormatError("no kernel weights", len(data))
    try:
        return Kernel(np.array(rows))
    except ValueError as err:  # even dimensions
        raise FileFormatError(str(err), 0) from None


def write_kernel_text(path, kernel: Kernel) -> None:
    """Write a kernel grid that `read_kernel_text` reads back exactly."""
    lines = [" ".join(repr(float(w)) for w in row) for row in kernel.weights]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(path, report: SolveReport) -> None:
    """Write the per-iteration histories of a solve as CSV.  Each cell is
    written as its column's type, so a numpy scalar writes as a plain
    number; a non-integral CG count raises ValueError and writes nothing."""
    histories = [getattr(report, history) for _, history, _ in _REPORT_COLUMNS]
    if any(len(h) != len(histories[0]) for h in histories):
        raise ValueError("report histories have inconsistent lengths")
    rows = [[k, *(_report_cell(kind, v) for (_, _, kind), v in zip(_REPORT_COLUMNS, values))]
            for k, values in enumerate(zip(*histories), start=1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        writer.writerows(rows)


def _report_cell(kind, value) -> str:
    """``value`` as a report cell of type ``kind``; an int cell must be integral."""
    if kind is int and not float(value).is_integer():
        raise ValueError(f"report count {value!r} is not an integer")
    return repr(kind(value))


def read_report(path) -> SolveReport:
    """Parse a CSV report back into a `SolveReport`: its three histories,
    with ``cg_iterations_total`` their CG sum.  ``outer_iterations`` and the
    monotone flags derive from the histories as for any report.

    The file stores neither the converged flag, nor the per-iteration CG
    converged history, nor the forcing term, so ``converged`` reads back
    False, ``cg_converged_history`` empty and ``forcing`` None (unknown).
    A bad header, a row of the wrong length, a cell that does not parse and
    an iteration out of sequence raise `FileFormatError`, which names the
    line, the `REPORT_HEADER` column of a bad cell and the line's offset.
    """
    lines = Path(path).read_bytes().splitlines(keepends=True)
    header = _csv_row(lines[0]) if lines else []
    if tuple(header) != REPORT_HEADER:
        raise FileFormatError(f"line 1: bad report header {header!r}", 0)
    report = SolveReport()
    offset = len(lines[0])
    for number, line in enumerate(lines[1:], start=2):
        row = _csv_row(line)
        if len(row) != len(REPORT_HEADER):
            raise FileFormatError(
                f"line {number}: {len(row)} cells, expected {len(REPORT_HEADER)}", offset)
        values = []
        for cell, column, kind in zip(row, REPORT_HEADER, (int, *(k for *_, k in _REPORT_COLUMNS))):
            try:
                values.append(kind(cell))
            except ValueError:
                raise FileFormatError(
                    f"line {number}, column {column!r}: invalid {kind.__name__} {cell!r}",
                    offset) from None
        iteration, *values = values
        # line 2 holds iteration 1, and every earlier line passed this check
        if iteration != number - 1:
            raise FileFormatError(
                f"line {number}: iterations must increase by 1: got {iteration} after {number - 2}",
                offset)
        for (_, history, _), value in zip(_REPORT_COLUMNS, values):
            getattr(report, history).append(value)
        offset += len(line)
    report.cg_iterations_total = sum(report.cg_iters_history)
    return report


def _csv_row(line: bytes) -> list[str]:
    """The cells of one CSV line (its quoting rules included)."""
    return next(csv.reader([line.decode("utf-8", errors="replace")]), [])
