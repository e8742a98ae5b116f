"""Discrete 2D fields and the matrix-free operators built on them.

Conventions used throughout the package:

* A scalar field is a 2D ``float64`` array of shape ``(height, width)``,
  indexed ``f[j, i]`` with ``i`` the column (x) and ``j`` the row (y).
  Intensities are nominally in ``[0, 1]`` but the range is not enforced.
* Grid spacing is 1 in both directions.
* All difference operators use forward differences with a replicate
  (clamp-to-edge) boundary: the forward difference in the last column/row
  is zero, and convolution reads out-of-range samples from the nearest
  edge pixel.
* `pad_edge` is the single home of the replicate boundary: every stencil
  that reads past the border (`convolve`, the blind kernel correlation,
  the centered flow gradient) pads with it and then takes slices, and
  `convolve_adjoint` folds the pad back with its exact adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class VectorField(NamedTuple):
    """Pair of equally sized scalar fields, e.g. a gradient or a flow (u, v)."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Kernel:
    """Small 2D stencil with odd dimensions, anchored at its center pixel.

    Applied correlation-style: ``out[j, i] = sum_ab w[b, a] * f[j+b-cy, i+a-cx]``
    with indices clamped to the image (replicate boundary).
    """

    weights: np.ndarray = field()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
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

    @classmethod
    def delta(cls, size: int = 1) -> "Kernel":
        """Identity kernel: 1 at the anchor, 0 elsewhere."""
        w = np.zeros((size, size))
        w[size // 2, size // 2] = 1.0
        return cls(w)

    @classmethod
    def box(cls, size: int = 3) -> "Kernel":
        """Uniform averaging kernel of the given odd size."""
        return cls(np.full((size, size), 1.0 / (size * size)))

    @classmethod
    def binomial3(cls) -> "Kernel":
        """Separable [1,2,1]/4 x [1,2,1]/4 smoothing kernel."""
        r = np.array([1.0, 2.0, 1.0]) / 4.0
        return cls(np.outer(r, r))

    @classmethod
    def gaussian(cls, size: int = 3, sigma: float = 0.8) -> "Kernel":
        """Sampled, normalized Gaussian."""
        half = size // 2
        x = np.arange(-half, half + 1, dtype=np.float64)
        r = np.exp(-0.5 * (x / sigma) ** 2)
        w = np.outer(r, r)
        return cls(w / w.sum())

    @classmethod
    def motion_horizontal(cls, size: int = 3) -> "Kernel":
        """Horizontal motion blur: uniform weights along the center row."""
        w = np.zeros((size, size))
        w[size // 2, :] = 1.0 / size
        return cls(w)

    @classmethod
    def motion_vertical(cls, size: int = 3) -> "Kernel":
        w = np.zeros((size, size))
        w[:, size // 2] = 1.0 / size
        return cls(w)


def ensure_field(f: np.ndarray) -> np.ndarray:
    """Coerce to a 2D float64 array, rejecting non-finite values."""
    a = np.asarray(f, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D field, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("field contains non-finite values")
    return a


def gradient(f: np.ndarray) -> VectorField:
    """Forward-difference gradient with zero differences at the last column/row.

    Returns ``(u, v)`` with ``u[j, i] = f[j, i+1] - f[j, i]`` (x direction)
    and ``v[j, i] = f[j+1, i] - f[j, i]`` (y direction).  Differences run
    over the last two axes, so a stacked ``(C, H, W)`` field gives the C
    channel gradients.
    """
    f = np.asarray(f, dtype=np.float64)
    u = np.zeros_like(f)
    v = np.zeros_like(f)
    u[..., :-1] = f[..., 1:] - f[..., :-1]
    v[..., :-1, :] = f[..., 1:, :] - f[..., :-1, :]
    return VectorField(u, v)


def divergence(p: VectorField) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of `gradient`.

    Satisfies ``inner(gradient(f).u, p.u) + inner(gradient(f).v, p.v)
    == -inner(f, divergence(p))`` for all fields.  Like `gradient` it acts
    on the last two axes, so a stacked field gives its channel divergences.
    """
    u = np.asarray(p.u, dtype=np.float64)
    v = np.asarray(p.v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector field components differ: {u.shape} vs {v.shape}")
    out = np.zeros_like(u)
    out[..., :-1] += u[..., :-1]
    out[..., 1:] -= u[..., :-1]
    out[..., :-1, :] += v[..., :-1, :]
    out[..., 1:, :] -= v[..., :-1, :]
    return out


def pad_edge(f: np.ndarray, cy: int, cx: int) -> np.ndarray:
    """Extend ``f`` by ``cy`` rows and ``cx`` columns on each side, copying
    the nearest edge sample (the replicate boundary)."""
    return np.pad(f, ((cy, cy), (cx, cx)), mode="edge")


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


def _taps(fp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``out = sum_ba w[b, a] * fp[b:b+H, a:a+W]`` over the nonzero taps,
    where ``(H, W)`` is the shape of ``fp`` less the kernel's extent."""
    kh, kw = w.shape
    h, wd = fp.shape[0] - kh + 1, fp.shape[1] - kw + 1
    out = np.zeros((h, wd))
    for b in range(kh):
        for a in range(kw):
            if w[b, a] != 0.0:
                out += w[b, a] * fp[b : b + h, a : a + wd]
    return out


def convolve(f: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Apply the kernel to the field (correlation-style, replicate boundary).

    Direct spatial-domain evaluation, linear in ``f``; the delta kernel is
    the exact identity.
    """
    f = np.asarray(f, dtype=np.float64)
    w = kernel.weights
    cy, cx = w.shape[0] // 2, w.shape[1] // 2
    return _taps(pad_edge(f, cy, cx), w)


def convolve_adjoint(f: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Exact adjoint of `convolve` under the same boundary rule.

    Applies the flipped kernel to the zero-extended field, which spreads
    each tap's contribution over the padded grid, then folds the pad back
    onto the border, so ``inner(convolve(x, k), y) == inner(x,
    convolve_adjoint(y, k))`` holds to rounding for all x, y.
    """
    f = np.asarray(f, dtype=np.float64)
    w = kernel.weights
    kh, kw = w.shape
    fz = np.pad(f, ((kh - 1, kh - 1), (kw - 1, kw - 1)))
    return _fold_edge(_taps(fz, w[::-1, ::-1]), kh // 2, kw // 2)


def inner(f: np.ndarray, g: np.ndarray) -> float:
    """Euclidean inner product of two equally sized fields."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {g.shape}")
    return float(np.dot(f.ravel(), g.ravel()))

