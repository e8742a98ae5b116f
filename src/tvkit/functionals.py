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
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .grid import Kernel, VectorField, convolve, divergence, gradient

DEFAULT_ALPHA = 1e-3


class TVVariant(Enum):
    """Which discrete TV energy drives the regularizer."""

    ISOTROPIC = "iso"
    ANISOTROPIC = "aniso"


def _check_alpha(alpha: float) -> float:
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return float(alpha)


def _grad_sq(f: np.ndarray) -> np.ndarray:
    """Per-pixel squared gradient magnitude ``dx^2 + dy^2``, summed over the
    leading (channel) axes of a stacked field."""
    dx, dy = gradient(f)
    t = dx * dx + dy * dy
    return t.reshape((-1,) + t.shape[-2:]).sum(axis=0)


def tv_isotropic(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """Smoothed isotropic TV: ``sum sqrt(dx^2 + dy^2 + alpha^2)``.

    A constant MxN field scores exactly ``M*N*alpha``.
    """
    _check_alpha(alpha)
    return float(np.sum(np.sqrt(_grad_sq(f) + alpha * alpha)))


def tv_anisotropic(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """Anisotropic (L1) TV: ``M*N*alpha + sum(|dx| + |dy|)``."""
    _check_alpha(alpha)
    dx, dy = gradient(f)
    h, w = np.asarray(f).shape
    return float(h * w * alpha + np.sum(np.abs(dx)) + np.sum(np.abs(dy)))


def tv_anisotropic_smoothed(f: np.ndarray, alpha: float = DEFAULT_ALPHA) -> float:
    """Differentiable companion of `tv_anisotropic`:
    ``sum(sqrt(dx^2 + alpha^2) + sqrt(dy^2 + alpha^2))``.

    Its gradient is the anisotropic weighted Laplacian, so this is the
    energy the anisotropic solver path actually descends.
    """
    _check_alpha(alpha)
    dx, dy = gradient(f)
    a2 = alpha * alpha
    return float(np.sum(np.sqrt(dx * dx + a2)) + np.sum(np.sqrt(dy * dy + a2)))


def diffusion_weights(
    f: np.ndarray, alpha: float = DEFAULT_ALPHA, variant: TVVariant = TVVariant.ISOTROPIC
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel diffusivity weights (wx, wy) frozen at the field ``f``.

    Isotropic: both equal ``1/sqrt(dx^2 + dy^2 + alpha^2)``, the squares
    summed over the channels of a stacked field; anisotropic: each axis
    gets its own ``1/sqrt(d^2 + alpha^2)``.
    """
    _check_alpha(alpha)
    a2 = alpha * alpha
    if variant is TVVariant.ISOTROPIC:
        w = 1.0 / np.sqrt(_grad_sq(f) + a2)
        return w, w
    dx, dy = gradient(f)
    return 1.0 / np.sqrt(dx * dx + a2), 1.0 / np.sqrt(dy * dy + a2)


def apply_weighted_laplacian(wx: np.ndarray, wy: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply ``Dx^T diag(wx) Dx + Dy^T diag(wy) Dy`` to ``v`` (matrix-free).

    Linear, symmetric, positive semi-definite for nonnegative weights;
    annihilates constant fields.
    """
    gx, gy = gradient(v)
    gx *= wx
    gy *= wy
    out = divergence(VectorField(gx, gy))
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
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    r = convolve(f, kernel) - np.asarray(g, dtype=np.float64)
    fidelity = 0.5 * float(np.sum(r * r))
    if variant is TVVariant.ISOTROPIC:
        reg = tv_isotropic(f, alpha)
    else:
        reg = tv_anisotropic_smoothed(f, alpha)
    return fidelity + lam * reg


def _derivative_spectra(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DFT spectra of the x- and y-derivatives of the trigonometric interpolate.

    The Nyquist row/column (present for even sizes) is treated as
    cosine-only and gets zero derivative weight, keeping the interpolate
    real-valued.
    """
    h, w = f.shape
    spec = np.fft.fft2(f)
    freq_x = np.fft.fftfreq(w)
    freq_y = np.fft.fftfreq(h)
    omega_x = 2.0 * np.pi * np.where(np.abs(freq_x) == 0.5, 0.0, freq_x)
    omega_y = 2.0 * np.pi * np.where(np.abs(freq_y) == 0.5, 0.0, freq_y)
    return spec * (1j * omega_x)[None, :], spec * (1j * omega_y)[:, None]


def _oversampled_values(spec: np.ndarray, n: int) -> np.ndarray:
    """Evaluate the trig polynomial with DFT spectrum ``spec`` on the n-times
    finer grid, via centered zero-padding."""
    h, w = spec.shape
    if n == 1:
        return np.fft.ifft2(spec).real
    padded = np.zeros((n * h, n * w), dtype=np.complex128)
    shifted = np.fft.fftshift(spec)
    r0 = n * h // 2 - h // 2
    c0 = n * w // 2 - w // 2
    padded[r0 : r0 + h, c0 : c0 + w] = shifted
    return (n * n) * np.fft.ifft2(np.fft.ifftshift(padded)).real


def spectral_tv(f: np.ndarray, n: int = 2) -> float:
    """TV of the Shannon (trigonometric) interpolate, sampled on an n-times
    oversampled grid.

    Computes the interpolate's partial derivatives in the frequency domain,
    evaluates them at the fine grid points, and returns the Riemann sum
    ``(1/n^2) * sum |grad F|``.  Exactly zero for constant fields.
    """
    if n < 1:
        raise ValueError(f"oversampling order must be >= 1, got {n}")
    f = np.asarray(f, dtype=np.float64)
    spec_x, spec_y = _derivative_spectra(f)
    fx = _oversampled_values(spec_x, n)
    fy = _oversampled_values(spec_y, n)
    return float(np.sum(np.hypot(fx, fy)) / (n * n))
