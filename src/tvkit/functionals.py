"""Total-variation energies, their smoothed gradients, and the TV operator.

The smoothed isotropic TV of a field is

    sum_ij sqrt(dx_ij^2 + dy_ij^2 + alpha^2)

with forward differences dx, dy (zero in the last column/row) and a small
``alpha > 0`` that makes the energy differentiable where the gradient
vanishes.  Writing the per-pixel term through the concave potential
``phi(t) = 2*sqrt(t + alpha^2)`` of the squared gradient magnitude
``t = dx^2 + dy^2`` gives the energy as ``0.5 * sum phi(t_ij)`` and its
exact gradient as the weighted-Laplacian form implemented by
`apply_tv_operator`: freeze the weights ``phi'(t) = 1/sqrt(t + alpha^2)``
at a linearization point and the operator becomes linear, symmetric, and
positive semi-definite - the workhorse of the lagged-diffusivity solvers.

For a stacked ``(C, H, W)`` field, such as a flow's (u, v), the isotropic
TV sums ``t`` over the channels before the square root, so the channels
share one edge set and one diffusivity weight per pixel.

`_magnitudes` is the one definition of each variant's per-pixel term,
``sqrt(t + alpha^2)`` for the isotropic TV and ``sqrt(dx^2 + alpha^2)``,
``sqrt(dy^2 + alpha^2)`` for the smoothed anisotropic TV: the energies
(`tv_isotropic`, `tv_anisotropic_smoothed` and the TV term of
`tv_objective`) sum it, and `diffusion_weights` takes its reciprocals, so
each lagged weight is the exact reciprocal of the term its energy sums.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .grid import Kernel, VectorField, convolve, divergence, gradient

DEFAULT_ALPHA = 1e-3


class TVVariant(Enum):
    """Which discrete TV energy drives the regularizer."""

    ISOTROPIC = "iso"
    ANISOTROPIC = "aniso"


def _check_alpha(alpha: float) -> float:
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    return float(alpha)


def _magnitudes(f: np.ndarray, alpha: float, variant: TVVariant) -> tuple[np.ndarray, ...]:
    """Per-pixel terms of the smoothed TV of ``variant``, whose sum is the
    energy and whose reciprocals are the lagged diffusivity weights.

    Isotropic: one array ``sqrt(dx^2 + dy^2 + alpha^2)``, the squares summed
    over the leading (channel) axes of a stacked field.  Anisotropic: two,
    ``sqrt(dx^2 + alpha^2)`` and ``sqrt(dy^2 + alpha^2)``.  ``variant`` may
    also be a member's value, such as ``"iso"``; any other raises
    ``ValueError``.  Computed in float64 whatever ``f``'s dtype, so the
    energies and the weights stay float64.
    """
    _check_alpha(alpha)
    variant = TVVariant(variant)
    a2 = alpha * alpha
    # in place in the gradient's two arrays: the same operations, no temporaries
    dx, dy = gradient(np.asarray(f, dtype=np.float64))
    dx *= dx
    dy *= dy
    if variant is TVVariant.ISOTROPIC:
        dx += dy
        t = dx if dx.ndim == 2 else dx.reshape((-1,) + dx.shape[-2:]).sum(axis=0)
        t += a2
        return (np.sqrt(t, out=t),)
    dx += a2
    dy += a2
    return np.sqrt(dx, out=dx), np.sqrt(dy, out=dy)


def _energy(f: np.ndarray, alpha: float, variant: TVVariant) -> float:
    """The smoothed TV energy of ``variant``: the sum of its `_magnitudes`."""
    return float(sum(map(np.sum, _magnitudes(f, alpha, variant))))


def tv_isotropic(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """Smoothed isotropic TV: ``sum sqrt(dx^2 + dy^2 + alpha^2)``.

    A constant MxN field scores exactly ``M*N*alpha``.
    """
    return _energy(f, alpha, TVVariant.ISOTROPIC)


def tv_anisotropic(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """Anisotropic (L1) TV: ``M*N*alpha + sum(|dx| + |dy|)``; the sum runs
    over every channel of a stacked ``(C, M, N)`` field."""
    _check_alpha(alpha)
    dx, dy = gradient(np.asarray(f, dtype=np.float64))
    h, w = np.shape(f)[-2:]
    return float(h * w * alpha + np.sum(np.abs(dx)) + np.sum(np.abs(dy)))


def tv_anisotropic_smoothed(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """Differentiable companion of `tv_anisotropic`:
    ``sum(sqrt(dx^2 + alpha^2) + sqrt(dy^2 + alpha^2))``.

    Its gradient is the anisotropic weighted Laplacian, so this is the
    energy the anisotropic solver path actually descends.
    """
    return _energy(f, alpha, TVVariant.ANISOTROPIC)


def diffusion_weights(
    f: np.ndarray, alpha: float = DEFAULT_ALPHA, variant: TVVariant = TVVariant.ISOTROPIC
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel diffusivity weights (wx, wy) frozen at the field ``f``.

    Isotropic: both equal ``1/sqrt(dx^2 + dy^2 + alpha^2)``, the squares
    summed over the channels of a stacked field; anisotropic: each axis
    gets its own ``1/sqrt(d^2 + alpha^2)``.
    """
    w = tuple(np.divide(1.0, m, out=m) for m in _magnitudes(f, alpha, variant))
    # the isotropic variant has one term: both axes share its weight array
    return w if len(w) == 2 else w * 2


def apply_weighted_laplacian(
    wx: np.ndarray,
    wy: np.ndarray,
    v: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Apply ``Dx^T diag(wx) Dx + Dy^T diag(wy) Dy`` to ``v`` (matrix-free).

    Linear, symmetric, positive semi-definite for nonnegative weights;
    annihilates constant fields.  The weights broadcast over the leading
    axes of a stacked ``v``.  ``out`` (shaped like ``v``) receives the
    result and is returned; ``work``, two more arrays shaped like ``v``,
    holds the weighted gradient.  Without them the call allocates both.
    Like `grid`'s operators it keeps a float32 ``v`` in float32, and then
    ``out`` and ``work`` must be float32 too.
    """
    gx, gy = gradient(v, out=work)
    gx *= wx
    gy *= wy
    out = divergence(VectorField(gx, gy), out=out)
    return np.negative(out, out=out)


def weighted_laplacian_diagonal(wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Diagonal of the `apply_weighted_laplacian` operator: each forward
    difference weight ``wx[..., j, i]`` (``i`` short of the last column)
    lands on both pixels it couples, ``i`` and ``i+1``, and likewise
    ``wy`` on rows ``j`` and ``j+1``."""
    d = np.zeros(np.shape(wx))
    d[..., :-1] += wx[..., :-1]
    d[..., 1:] += wx[..., :-1]
    d[..., :-1, :] += wy[..., :-1, :]
    d[..., 1:, :] += wy[..., :-1, :]
    return d


def apply_tv_operator(
    f_lin: np.ndarray,
    v: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    variant: TVVariant = TVVariant.ISOTROPIC,
) -> np.ndarray:
    """Apply the TV regularization operator linearized at ``f_lin`` to ``v``."""
    if np.asarray(f_lin).shape != np.asarray(v).shape:
        raise ValueError("linearization point and argument must have the same shape")
    wx, wy = diffusion_weights(f_lin, alpha, variant)
    return apply_weighted_laplacian(wx, wy, v)


def tv_gradient(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Exact gradient of the smoothed isotropic TV energy at ``f``.

    Equals the TV operator applied to the field itself.
    """
    return apply_tv_operator(f, f, alpha, TVVariant.ISOTROPIC)


def tv_objective(
    f: np.ndarray,
    g: np.ndarray,
    kernel: Kernel,
    lam: float,
    alpha: float = DEFAULT_ALPHA,
    variant: TVVariant = TVVariant.ISOTROPIC,
) -> float:
    """Restoration objective ``0.5*||H f - g||^2 + lam * TV(f)``.

    The TV term is the smoothed energy matching ``variant``, so the value
    is exactly what the corresponding fixed-point solver descends.
    """
    if np.asarray(f).shape != np.asarray(g).shape:
        raise ValueError("estimate and observation must have the same shape")
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    r = convolve(np.asarray(f, dtype=np.float64), kernel)
    r -= np.asarray(g, dtype=np.float64)
    r *= r
    fidelity = 0.5 * float(np.sum(r))
    return fidelity + lam * _energy(f, alpha, variant)
