"""Discrete 2D fields and the matrix-free operators built on them.

Conventions used throughout the package:

* A scalar field is a 2D ``float64`` array of shape ``(height, width)``,
  indexed ``f[j, i]`` with ``i`` the column (x) and ``j`` the row (y).
  Intensities are nominally in ``[0, 1]`` but the range is not enforced.
* A ``float32`` field stays ``float32``: `convolve`, `convolve_adjoint`,
  `gradient` and `divergence` compute in the field's precision and return
  it, and an ``out=`` must have that dtype.  Any other dtype is read as
  ``float64``.  The kernel's band blocks and taps are cast once per dtype
  and kept with the kernel.  The float32 path serves the float32 sweeps
  of `solvers._mixed_precision_cg`, which solve the lagged steps of restore
  and flow; float64 results do not depend on it.
* Grid spacing is 1 in both directions.
* All difference operators use forward differences with a replicate
  (clamp-to-edge) boundary: the forward difference in the last column/row
  is zero, and convolution reads out-of-range samples from the nearest
  edge pixel.
* The replicate boundary has two homes, and `_blur`, the one body of
  `convolve` and `convolve_adjoint`, picks one by the kernel.  For a kernel
  with `Kernel.factors` (every nonzero kernel of rank 1), `_band` folds the
  boundary into the 1-D band matrices themselves, so nothing is padded.
  `pad_edge` serves the stencils that read past the border from a padded
  copy: the patch strips of `_strips`, which `_blur` multiplies by the taps
  of a kernel of rank above 1 and the blind kernel step reads for its Gram
  matrix and correlation, and the centered flow gradient.  The adjoint
  patch-strip pass folds that pad back with its exact adjoint,
  `_fold_edge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np


# largest entrywise misfit of outer(col, row), relative to the largest tap,
# that still counts as rank 1: a few rounding errors per tap
_RANK1_RTOL = 64 * np.finfo(np.float64).eps
# rows per block of a band matrix (`_band`).  convolve by gaussian(5, 1.0)
# with one BLAS thread on a 2-core Xeon: 32 took 19-20 us at 64x64, where
# 16 took 22-36 us and 64 took 22-23 us; from 128x128 to 512x512 16 was at
# most a tenth faster than 32 (512x512: 1.15-1.2 against 1.25-1.3 ms) and
# 64 was a third to a half slower.
_BLOCK = 32
# floats of one patch strip of `_strips` (512 KB).  convolve and its
# adjoint by a random 3x3 kernel with one BLAS thread on a 2-core Xeon took
# 0.32 and 0.37 ms at 256x256 and 1.35 and 2.74 ms at 512x512 with 2^16;
# 2^15 and 2^17 were up to a tenth slower, 2^14 (0.36/0.72, 1.70/3.17 ms)
# and 2^18 (0.41/0.49, 2.90/3.91 ms) more; at 64x64, one strip, all took
# 30-45 us.
_STRIP_FLOATS = 1 << 16


class VectorField(NamedTuple):
    """Pair of equally sized scalar fields, e.g. a gradient or a flow (u, v)."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class Kernel:
    """Small 2D stencil with odd dimensions, anchored at its center pixel.

    Applied correlation-style: ``out[j, i] = sum_ab w[b, a] * f[j+b-cy, i+a-cx]``
    with indices clamped to the image (replicate boundary).

    `factors` is the rank-1 factorization ``(col, row)`` with
    ``weights == outer(col, row)`` to rounding, found on first use and
    cached.  `convolve` then applies ``col`` down the columns and ``row``
    along the rows as banded matrix products, whose blocks are built once
    per axis length and kept with the kernel; a factor that is one centred
    tap, as the deltas' and the line kernels' (``1xN``, ``Nx1``, motion)
    other factor, is a scale and runs no product.  It is ``None`` only when
    the weights have rank above 1 or are all zero.  Kernels compare and
    hash by identity, so one can key a dict.
    """

    weights: np.ndarray = field()

    def __post_init__(self):
        # a private read-only copy, so the cached `factors` cannot go stale
        w = np.array(self.weights, dtype=np.float64)
        w.flags.writeable = False
        if w.ndim != 2:
            raise ValueError("kernel weights must be a 2D array")
        kh, kw = w.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"kernel dimensions must be odd, got {kh}x{kw}")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    @cached_property
    def factors(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        w = self.weights
        p, q = np.unravel_index(np.argmax(np.abs(w)), w.shape)
        pivot = w[p, q]
        if pivot == 0.0:
            return None
        # if w has rank 1, its column and row through the pivot span it
        col, row = w[:, q], w[p, :] / pivot
        if np.abs(np.outer(col, row) - w).max() > _RANK1_RTOL * abs(pivot):
            return None
        return col, row

    @cached_property
    def _passes(self) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The taps of the column and the row band pass of `_blur`:
        `factors`, with ``None`` for a factor that is one centred tap, as
        when every nonzero weight lies on the centre row (column).  That
        tap's scale moves into the other factor, which leaves it the
        kernel's centre column (row); a kernel of one centred tap runs
        neither pass."""
        w = self.weights
        cy, cx = w.shape[0] // 2, w.shape[1] // 2
        nnz = np.count_nonzero(w)
        on_row, on_col = np.count_nonzero(w[cy]) == nnz, np.count_nonzero(w[:, cx]) == nnz
        if not (on_row or on_col):
            return self.factors
        return None if on_row else w[:, cx], None if on_col else w[cy]

    @cached_property
    def _bands(self) -> dict:
        return {}

    def _band(self, axis: int, n: int, adjoint: bool, dtype=np.float64) -> list:
        """`_band` of the pass ``_passes[axis]`` (0 the column, 1 the row)
        for an axis of length ``n``, built on first use and kept with the
        kernel; the float32 blocks are cast once from the float64 ones."""
        key = (axis, n, adjoint)
        if dtype == np.float32:
            key += ("float32",)
        if key not in self._bands:
            band = (_band(self._passes[axis], n, adjoint) if len(key) == 3 else
                    [(r0, lo, m.astype(dtype)) for r0, lo, m in self._band(axis, n, adjoint)])
            # two threads may both build it; every caller gets the one kept
            self._bands.setdefault(key, band)
        return self._bands[key]

    @cached_property
    def _taps32(self) -> tuple[np.ndarray, np.ndarray]:
        """The float32 taps of `_blur`'s patch-strip passes: the weights
        and the flipped weights of the adjoint, flat."""
        w = self.weights
        return np.ravel(w).astype(np.float32), np.ravel(w[::-1, ::-1]).astype(np.float32)

    @classmethod
    def delta(cls, size: int = 1) -> "Kernel":
        """Identity kernel: 1 at the anchor, 0 elsewhere."""
        _check_size(size)
        w = np.zeros((size, size))
        w[size // 2, size // 2] = 1.0
        return cls(w)

    @classmethod
    def box(cls, size: int = 3) -> "Kernel":
        """Uniform averaging kernel of the given odd size."""
        _check_size(size)
        return cls(np.full((size, size), 1.0 / (size * size)))

    @classmethod
    def binomial3(cls) -> "Kernel":
        """Separable [1,2,1]/4 x [1,2,1]/4 smoothing kernel."""
        r = np.array([1.0, 2.0, 1.0]) / 4.0
        return cls(np.outer(r, r))

    @classmethod
    def gaussian(cls, size: int = 3, sigma: float = 0.8) -> "Kernel":
        """Sampled, normalized Gaussian of the given odd size; ``sigma`` must
        be finite and positive."""
        _check_size(size)
        if not 0 < sigma < np.inf:
            raise ValueError(f"gaussian sigma must be finite and positive, got {sigma}")
        half = size // 2
        x = np.arange(-half, half + 1, dtype=np.float64)
        # past 40 sigma the weight exp(-800) is 0.0: x / sigma, which
        # overflows for a tiny sigma, is formed only inside that range
        near = np.abs(x) / 40.0 <= sigma
        r = np.zeros_like(x)
        r[near] = np.exp(-0.5 * (x[near] / sigma) ** 2)
        w = np.outer(r, r)
        return cls(w / w.sum())

    @classmethod
    def motion_horizontal(cls, size: int = 3) -> "Kernel":
        """Horizontal motion blur: uniform weights along the center row."""
        _check_size(size)
        w = np.zeros((size, size))
        w[size // 2, :] = 1.0 / size
        return cls(w)

    @classmethod
    def motion_vertical(cls, size: int = 3) -> "Kernel":
        _check_size(size)
        w = np.zeros((size, size))
        w[:, size // 2] = 1.0 / size
        return cls(w)


def _check_size(size: int) -> None:
    """Reject a kernel factory size that is not odd and at least 1."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")


def ensure_field(f: np.ndarray) -> np.ndarray:
    """Coerce to a 2D float64 array, rejecting an empty field and
    non-finite values."""
    a = np.asarray(f, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D field, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"field has no pixels: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("field contains non-finite values")
    return a


def gradient(f: np.ndarray, out: Optional[Sequence[np.ndarray]] = None) -> VectorField:
    """Forward-difference gradient with zero differences at the last column/row.

    Returns ``(u, v)`` with ``u[j, i] = f[j, i+1] - f[j, i]`` (x direction)
    and ``v[j, i] = f[j+1, i] - f[j, i]`` (y direction).  Differences run
    over the last two axes, so a stacked ``(C, H, W)`` field gives the C
    channel gradients.  ``out``, a pair of C-contiguous arrays shaped like
    ``f`` and of its dtype (`_dtype`), receives ``(u, v)`` and is returned;
    every entry is written.
    """
    f = np.ascontiguousarray(f, dtype=_dtype(f))
    u, v = (None, None) if out is None else out
    u, v = _out(u, f.shape, f.dtype), _out(v, f.shape, f.dtype)
    # differences of the flat arrays, one pass each; the ones that straddle
    # a row (channel) end fall on the last column (row) and are zeroed
    ff, n = f.reshape(-1), f.shape[-1]
    np.subtract(ff[1:], ff[:-1], out=u.reshape(-1)[:-1])
    u[..., -1] = 0.0
    np.subtract(ff[n:], ff[:-n], out=v.reshape(-1)[:-n])
    v[..., -1, :] = 0.0
    return VectorField(u, v)


def divergence(p: VectorField, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of `gradient`.

    Satisfies ``inner(gradient(f).u, p.u) + inner(gradient(f).v, p.v)
    == -inner(f, divergence(p))`` for all fields.  Like `gradient` it acts
    on the last two axes, so a stacked field gives its channel divergences.
    ``out``, a C-contiguous array shaped like ``p.u``, of its dtype and
    distinct from both components, receives the result and is returned;
    every entry is written.
    """
    u = np.ascontiguousarray(p.u, dtype=_dtype(p.u))
    v = np.asarray(p.v, dtype=u.dtype)
    if u.shape != v.shape:
        raise ValueError(f"vector field components differ: {u.shape} vs {v.shape}")
    out = _out(out, u.shape, u.dtype)
    # x part u[i] - u[i-1], reading u as zero left of column 0 and in the
    # last column: one flat pass, then both edge columns rewritten
    if u.shape[-1] > 1:
        uf = u.reshape(-1)
        np.subtract(uf[1:], uf[:-1], out=out.reshape(-1)[1:])
        out[..., 0] = u[..., 0]
        # not np.negative: with a strided input and a strided out, numpy
        # 2.4.6 reads the input as if contiguous and returns wrong values
        np.subtract(0.0, u[..., -2], out=out[..., -1])
    else:
        out[...] = 0.0
    out[..., :-1, :] += v[..., :-1, :]
    out[..., 1:, :] -= v[..., :-1, :]
    return out


def _dtype(f) -> type:
    """The precision an operator computes ``f`` in: float32 for a float32
    array, float64 for anything else."""
    return np.float32 if getattr(f, "dtype", None) == np.float32 else np.float64


def _out(out: Optional[np.ndarray], shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """The buffer of an ``out=``: a new array of ``shape`` and ``dtype`` when
    ``out`` is None, else ``out`` itself, which must be a C-contiguous array
    of ``shape`` and ``dtype``, the one rule of every ``out=`` in this
    module: numpy would broadcast into a larger one or cast into another
    dtype without a word, and a flat view of a strided one would be a copy
    whose writes are lost."""
    dtype = np.dtype(dtype)
    if out is None:
        return np.empty(shape, dtype)
    if not (out.shape == shape and out.dtype == dtype and out.flags.c_contiguous):
        raise ValueError(f"out= must be a C-contiguous {dtype} array of shape {shape}")
    return out


def pad_edge(f: np.ndarray, cy: int, cx: int) -> np.ndarray:
    """Extend ``f`` by ``cy`` rows and ``cx`` columns on each side, copying
    the nearest edge sample (the replicate boundary)."""
    h, w = f.shape
    fp = np.empty((h + 2 * cy, w + 2 * cx), dtype=f.dtype)
    fp[cy : cy + h, cx : cx + w] = f
    fp[cy : cy + h, :cx] = f[:, :1]
    fp[cy : cy + h, cx + w :] = f[:, -1:]
    fp[:cy] = fp[cy]
    fp[cy + h :] = fp[cy + h - 1]
    return fp


def _pad_zero(f: np.ndarray, py: int, px: int) -> np.ndarray:
    """Extend ``f`` by ``py`` rows and ``px`` columns of zeros on each side."""
    h, w = f.shape
    fz = np.zeros((h + 2 * py, w + 2 * px), f.dtype)
    fz[py : py + h, px : px + w] = f
    return fz


def _fold_edge(fp: np.ndarray, cy: int, cx: int) -> np.ndarray:
    """Exact adjoint of `pad_edge`, computed in place in ``fp``: add the pad
    rows, then the pad columns, onto the edge row or column they copy, and
    return the interior."""
    h, w = fp.shape[0] - 2 * cy, fp.shape[1] - 2 * cx
    fp[cy] += fp[:cy].sum(axis=0)
    fp[cy + h - 1] += fp[cy + h :].sum(axis=0)
    fp[:, cx] += fp[:, :cx].sum(axis=1)
    fp[:, cx + w - 1] += fp[:, cx + w :].sum(axis=1)
    return fp[cy : cy + h, cx : cx + w]


def _strips(fp: np.ndarray, kh: int, kw: int):
    """The patch matrix of ``fp`` for a ``kh x kw`` kernel, in row strips.
    Yields ``(top, n, P)`` for the output rows ``top .. top + n``: ``P`` is
    the C-contiguous ``(kh * kw, n * W)`` matrix whose row for tap ``(b,
    a)`` is ``fp[top + b : top + b + n, a : a + W]`` flattened, where ``(H,
    W)`` is the shape of ``fp`` less the kernel's extent.  Each strip is
    one copy from a strided view of ``fp`` into a buffer of about
    `_STRIP_FLOATS` floats (at least one row) of ``fp``'s precision
    (`_dtype`), allocated per call, so a kernel stays safe to share between
    threads; the buffer is refilled for every strip, so ``P`` is valid only
    until the next one."""
    fp = np.ascontiguousarray(fp, dtype=_dtype(fp))
    h, wd = fp.shape[0] - kh + 1, fp.shape[1] - kw + 1
    k = kh * kw
    rows = min(h, max(1, _STRIP_FLOATS // (k * wd)))
    buf = np.empty(k * rows * wd, fp.dtype)
    s0, s1 = fp.strides
    for top in range(0, h, rows):
        n = min(rows, h - top)
        p = buf[: k * n * wd]
        # the windows as one (kh, kw, n, W) view: np.ndarray builds it in
        # 0.45 us, as_strided in 3.1 us
        view = np.ndarray((kh, kw, n, wd), fp.dtype, fp, top * s0, (s0, s1, s0, s1))
        np.copyto(p.reshape(kh, kw, n, wd), view)
        yield top, n, p.reshape(k, n * wd)


def _taps(fp: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None,
          taps: Optional[np.ndarray] = None) -> np.ndarray:
    """``out = sum_ba w[b, a] * fp[b:b+H, a:a+W]``, where ``(H, W)`` is the
    shape of ``fp`` less the kernel's extent: one BLAS product of the taps
    with each patch strip of `_strips`, written straight into that strip's
    rows of ``out``, which may hold anything beforehand.  ``taps``, if
    given, is ``w`` flat in ``fp``'s precision (`Kernel._taps32`).  Every
    tap enters the product, zeros too, so a zero tap against a non-finite
    sample gives NaN (``0 * inf``) with an optimized BLAS, and an overflow
    in the product raises numpy's floating-point warnings.  The overflow policy of
    the solve drivers silences both, and their non-finite check raises
    `SolverDivergenceError`."""
    kh, kw = w.shape
    out = _out(out, (fp.shape[0] - kh + 1, fp.shape[1] - kw + 1), _dtype(fp))
    taps = np.ravel(w) if taps is None else taps
    for top, n, p in _strips(fp, kh, kw):
        np.matmul(taps, p, out=out[top : top + n].reshape(-1))
    return out


def _band(t: np.ndarray, n: int, adjoint: bool) -> list[tuple[int, int, np.ndarray]]:
    """The ``n x n`` 1-D correlation ``C`` by the taps ``t`` (``C^T`` when
    ``adjoint``) as row blocks of `_BLOCK` rows, from the clamp rule
    ``C[j, clamp(j + a - c)] += t[a]`` with ``c = len(t) // 2``, the
    replicate boundary folded onto the edge columns.  Every entry lies
    within ``c`` of the diagonal, so an entry ``(r0, lo, m)`` places the
    block ``m`` at row ``r0`` and column ``lo = max(0, r0 - c)``, the first
    column of its window ``[lo, min(n, r0 + _BLOCK + c))``.  The blocks are
    views into one array, filled in one pass over the whole axis."""
    c = len(t) // 2
    rows, width = min(_BLOCK, n), min(n, _BLOCK + 2 * c)
    starts = range(0, n, _BLOCK)
    j = np.arange(n)
    lo = np.maximum(0, j // _BLOCK * _BLOCK - c)
    # flat offset of the entry (r, lo of r's block) in the block array
    base = (j // _BLOCK * rows + j % _BLOCK) * width - lo
    # the column clamp(j + a - c) of each tap's entry in row j of C, then
    # that entry's flat offset, with row and column swapped for C^T
    idx = np.clip(j[:, None] + np.arange(-c, c + 1), 0, n - 1)
    idx = base[idx] + j[:, None] if adjoint else np.add(idx, base[:, None], out=idx)
    m = np.bincount(idx.ravel(), weights=np.broadcast_to(t, idx.shape).ravel(),
                    minlength=len(starts) * rows * width).reshape(len(starts), rows, width)
    return [(r0, lo[r0], m[i, : min(n, r0 + _BLOCK) - r0, : min(n, r0 + _BLOCK + c) - lo[r0]])
            for i, r0 in enumerate(starts)]


def _band_rows(band: list, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = M @ x`` for the band matrix ``M`` of `_band`, one matmul
    per block.  ``x`` and ``out`` may be transposed views, so ``M`` also
    acts on the columns of a field."""
    for r0, lo, m in band:
        b, width = m.shape
        np.matmul(m, x[lo : lo + width], out=out[r0 : r0 + b])
    return out


def _blur(f: np.ndarray, kernel: Kernel, adjoint: bool, out: Optional[np.ndarray]) -> np.ndarray:
    """The one body of `convolve` and, when ``adjoint``, `convolve_adjoint`.
    A kernel without factors runs the patch strips of `_taps`: forward
    over the edge-padded field, adjoint with the flipped taps over the
    zero-extended field, whose pad is then folded back.  Any other kernel
    runs as ``C_col @ f @ C_row^T`` for the `Kernel._passes` ``(col,
    row)``, or ``C_col^T @ f @ C_row`` when ``adjoint``: the column pass
    writes one intermediate, which the row pass reads through transposed
    views; a line kernel runs its one pass straight into ``out``, and a
    kernel of one centred tap is one multiply.  Every pass runs in the
    field's precision (`_dtype`)."""
    x = np.asarray(f, dtype=_dtype(f))
    out = _out(out, x.shape, x.dtype)
    kh, kw = kernel.shape
    if kernel.factors is None:
        w = kernel.weights[::-1, ::-1] if adjoint else kernel.weights
        taps = kernel._taps32[adjoint] if x.dtype == np.float32 else None
        if not adjoint:
            return _taps(pad_edge(x, kh // 2, kw // 2), w, out, taps)
        spread = _taps(_pad_zero(x, kh - 1, kw - 1), w, taps=taps)
        np.copyto(out, _fold_edge(spread, kh // 2, kw // 2))
        return out
    col, row = kernel._passes
    if col is None and row is None:
        # a Python float keeps a float32 field's multiply in float32
        return np.multiply(float(kernel.weights[kh // 2, kw // 2]), x, out=out)
    if col is not None:
        x = _band_rows(kernel._band(0, x.shape[0], adjoint, x.dtype), x,
                       out if row is None else np.empty(x.shape, x.dtype))
    if row is not None:
        _band_rows(kernel._band(1, x.shape[1], adjoint, x.dtype), x.T, out.T)
    return out


def convolve(f: np.ndarray, kernel: Kernel, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply the kernel to the field (correlation-style, replicate boundary).

    Linear in ``f``; a delta kernel is the exact identity.  A kernel with
    `Kernel.factors` ``(col, row)`` runs as ``C_col @ f @ C_row^T``, with
    ``C_t`` the banded matrix of the 1-D correlation by ``t`` and the
    replicate boundary folded into it (`_band`), and matches the patch
    strips to rounding; the pass of a factor that is one centred tap is
    skipped (`_blur`).  A kernel without factors (rank above 1, or all
    zero) runs as one product of its taps with each patch strip of the
    edge-padded field (`_taps`).  ``out``, a C-contiguous array shaped like
    ``f``, of its dtype (`_dtype`) and distinct from it, receives the result
    and is returned; every entry is written.
    """
    return _blur(f, kernel, False, out)


def convolve_adjoint(f: np.ndarray, kernel: Kernel,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact adjoint of `convolve` under the same boundary rule.

    A kernel with `Kernel.factors` runs as ``C_col^T @ f @ C_row``, the
    transposed band matrices of `convolve`, with the same passes skipped.
    A kernel without factors multiplies its flipped taps with the patch
    strips of the zero-extended field, which spreads each tap's
    contribution over the padded grid, then folds the pad back onto the
    border.  So ``inner(convolve(x, k), y) == inner(x, convolve_adjoint(y,
    k))`` holds to rounding for all x, y.  The result is a new C-contiguous
    array, or ``out``: a C-contiguous array shaped like ``f``, of its dtype
    (`_dtype`) and distinct from it, which receives the result and is
    returned; every entry is written.
    """
    return _blur(f, kernel, True, out)


def inner(f: np.ndarray, g: np.ndarray) -> float:
    """Euclidean inner product of two equally sized fields."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {g.shape}")
    return float(np.dot(f.ravel(), g.ravel()))

