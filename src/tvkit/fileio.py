"""File formats: netpbm PGM images, Middlebury .flo flow fields, and CSV
convergence reports.

PGM values are scaled to [0,1] on read and quantized (round half-up) on
write; 16-bit samples are big-endian per netpbm. The .flo layout is the
4-byte tag "PIEH", little-endian int32 width and height, then row-major
interleaved (u, v) float32 pairs; round trips are bit-exact. Reports are
RFC-4180-style CSV with LF line endings.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .grid import VectorField
from .solvers import SolveReport

FLO_MAGIC = b"PIEH"
REPORT_HEADER = ("iteration", "objective", "step_norm", "cg_iters")

_WHITESPACE = b" \t\r\n\v\f"


class PgmParseError(ValueError):
    """Malformed PGM input; the message names the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class FloFormatError(ValueError):
    """Malformed .flo input."""


def _skip_space(data: bytes, pos: int) -> int:
    """Position of the first byte at or after ``pos`` that is neither
    whitespace nor inside a '#' comment (``len(data)`` if none)."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Next header token after whitespace and '#' comments.

    Returns (token, token_offset, position_after_token).
    """
    n = len(data)
    pos = _skip_space(data, pos)
    if pos >= n:
        raise PgmParseError("unexpected end of file in header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], start, pos


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

    pos = 2
    header = {}
    for name in ("width", "height", "maxval"):
        token, start, pos = _next_token(data, pos)
        try:
            value = int(token)
        except ValueError:
            raise PgmParseError(f"invalid {name} token {token!r}", start) from None
        if value <= 0:
            raise PgmParseError(f"{name} must be positive, got {value}", start)
        header[name] = value
    width, height, maxval = header["width"], header["height"], header["maxval"]
    if maxval > 65535:
        raise PgmParseError(f"maxval {maxval} exceeds 65535", start)
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmParseError("expected single whitespace after maxval", pos)
        payload = pos + 1
        itemsize = 1 if maxval < 256 else 2
        expected = count * itemsize
        available = len(data) - payload
        if available < expected:
            raise PgmParseError(
                f"truncated P5 payload: need {expected} bytes, have {available}",
                len(data),
            )
        if available > expected:
            raise PgmParseError(
                f"trailing data after P5 payload of {expected} bytes",
                payload + expected,
            )
        dtype = np.dtype(">u2") if itemsize == 2 else np.dtype("u1")
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=payload)
        over = np.nonzero(samples > maxval)[0]
        if over.size:
            raise PgmParseError(
                f"sample value {int(samples[over[0]])} exceeds maxval {maxval}",
                payload + int(over[0]) * itemsize,
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
            try:
                sample = int(token)
            except ValueError:
                raise PgmParseError(f"invalid sample token {token!r}", start) from None
            if sample < 0 or sample > maxval:
                raise PgmParseError(
                    f"sample value {sample} outside [0, {maxval}]", start
                )
            values[k] = sample
        # only whitespace/comments may follow the last sample
        pos = _skip_space(data, pos)
        if pos < len(data):
            raise PgmParseError("trailing data after P2 samples", pos)

    return values.reshape(height, width) / float(maxval)


def write_pgm(path, f: np.ndarray, maxval: int = 255) -> None:
    """Write a P5 binary grayscale image.

    Values are clamped to [0,1] and rounded half-up to integer levels;
    maxval above 255 switches to 16-bit big-endian samples.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"expected a 2-d field, got shape {f.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be in [1, 65535], got {maxval}")
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
        raise FloFormatError(f"file too short for a .flo header: {len(data)} bytes")
    if data[:4] != FLO_MAGIC:
        raise FloFormatError(f"bad magic {data[:4]!r}, expected {FLO_MAGIC!r}")
    width, height = struct.unpack_from("<ii", data, 4)
    if width <= 0 or height <= 0:
        raise FloFormatError(f"bad dimensions {width}x{height}")
    expected = 12 + 8 * width * height
    if len(data) != expected:
        raise FloFormatError(
            f"size mismatch: {width}x{height} needs {expected} bytes, got {len(data)}"
        )
    arr = np.frombuffer(data, dtype="<f4", offset=12).reshape(height, width, 2)
    return VectorField(
        arr[..., 0].astype(np.float64), arr[..., 1].astype(np.float64)
    )


def write_flo(path, w: VectorField) -> None:
    """Write a Middlebury .flo flow field (float32 little-endian)."""
    u = np.asarray(w.u, dtype=np.float64)
    v = np.asarray(w.v, dtype=np.float64)
    if u.ndim != 2 or u.shape != v.shape:
        raise ValueError("flow components must be matching 2-d fields")
    h, wd = u.shape
    interleaved = np.empty((h, wd, 2), dtype="<f4")
    interleaved[..., 0] = u
    interleaved[..., 1] = v
    with open(path, "wb") as fh:
        fh.write(FLO_MAGIC)
        fh.write(struct.pack("<ii", wd, h))
        fh.write(interleaved.tobytes())


def write_report(path, report: SolveReport) -> None:
    """Write the per-iteration histories of a solve as CSV."""
    histories = (
        report.objective_history,
        report.step_norm_history,
        report.cg_iters_history,
    )
    if any(len(h) != len(histories[0]) for h in histories):
        raise ValueError("report histories have inconsistent lengths")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for k, (objective, step_norm, cg_iters) in enumerate(zip(*histories), start=1):
            writer.writerow([k, repr(objective), repr(step_norm), cg_iters])


def read_report(path) -> SolveReport:
    """Parse a CSV report back into a `SolveReport`: its three histories,
    with ``cg_iterations_total`` their CG sum.  ``outer_iterations`` and the
    monotone flags derive from the histories as for any report.

    The file stores neither the converged flag, nor the per-iteration CG
    converged history, nor the forcing term, so ``converged`` reads back
    False, ``cg_converged_history`` empty and ``forcing`` None (unknown).
    """
    report = SolveReport()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != REPORT_HEADER:
            raise ValueError(f"bad report header {header!r}")
        last = 0
        for row in reader:
            if len(row) != len(REPORT_HEADER):
                raise ValueError(f"bad report row {row!r}")
            iteration = int(row[0])
            if iteration != last + 1:
                raise ValueError(
                    f"iterations must increase by 1: got {iteration} after {last}"
                )
            last = iteration
            report.objective_history.append(float(row[1]))
            report.step_norm_history.append(float(row[2]))
            report.cg_iters_history.append(int(row[3]))
    report.cg_iterations_total = sum(report.cg_iters_history)
    return report
