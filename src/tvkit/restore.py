"""Problem-level estimators: least squares and Tikhonov variants, TV
denoising/deconvolution, alternating-minimization blind deconvolution,
LASSO via iterative soft thresholding, and image-quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import functionals, grid, solvers
from .grid import Kernel, convolve, convolve_adjoint, ensure_field, pad_edge
from .solvers import RestoreParams, SolverConfig, SolveReport

PSNR_CAP_DB = 300.0


class DegenerateKernelError(solvers.SolverDivergenceError):
    """Blind deconvolution kernel collapsed to zero after projection
    (kernel regularization too strong)."""


@dataclass
class BlindParams:
    """Knobs for alternating-minimization blind deconvolution.

    ``lam_image`` regularizes the image step, ``lam_kernel`` the kernel
    step; ``kernel_size`` is the odd support of the estimated kernel.
    """

    lam_image: float = 1e-3
    lam_kernel: float = 1e-3
    kernel_size: int = 3
    alpha: float = functionals.DEFAULT_ALPHA
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (0 <= self.lam_image < np.inf and 0 <= self.lam_kernel < np.inf):
            raise ValueError("regularization weights must be finite and nonnegative")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")
        functionals._check_alpha(self.alpha)


def ls_estimate(
    g: np.ndarray, kernel: Kernel, cfg: Optional[SolverConfig] = None
) -> np.ndarray:
    """Least-squares estimate: CG on the normal equations ``H^T H f = H^T g``
    (`gtr_estimate` with ``f0 = 0``, ``P = I`` and no ridge)."""
    return gtr_estimate(g, np.zeros(np.shape(g)), kernel, np.ones(np.shape(g)), 0.0, cfg)


def rls_estimate(
    g: np.ndarray, kernel: Kernel, q_lambda: float, cfg: Optional[SolverConfig] = None
) -> np.ndarray:
    """Regularized least squares with ridge penalty ``Q = q_lambda * I``:
    solves ``(H^T H + q_lambda^2 I) f = H^T g`` (`gtr_estimate` with
    ``f0 = 0`` and ``P = I``)."""
    return gtr_estimate(g, np.zeros(np.shape(g)), kernel, np.ones(np.shape(g)), q_lambda, cfg)


def gtr_estimate(
    g: np.ndarray,
    f0: np.ndarray,
    kernel: Kernel,
    p_weight: np.ndarray,
    q_lambda: float,
    cfg: Optional[SolverConfig] = None,
) -> np.ndarray:
    """Generalized Tikhonov estimate around the prior mean ``f0``:

        f = f0 + (H^T P H + q_lambda^2 I)^{-1} H^T P (g - H f0)

    with ``P = diag(p_weight)`` finite and strictly positive per pixel and
    ``q_lambda`` finite and nonnegative.  A non-finite ``g`` or ``f0``
    raises `ValueError`.
    """
    g = ensure_field(g)
    f0 = ensure_field(f0)
    p = np.asarray(p_weight, dtype=np.float64)
    if p.shape != g.shape or f0.shape != g.shape:
        raise ValueError("g, f0 and p_weight must have the same shape")
    if not np.all((0 < p) & (p < np.inf)):
        raise ValueError("p_weight must be finite and strictly positive per pixel")
    if not 0 <= q_lambda < np.inf:
        raise ValueError(f"q_lambda must be finite and nonnegative, got {q_lambda}")
    mu = q_lambda * q_lambda

    def apply_A(x):
        return convolve_adjoint(p * convolve(x, kernel), kernel) + mu * x

    # formed under CG's overflow policy: a non-finite b raises in CG
    with np.errstate(over="ignore", invalid="ignore"):
        b = convolve_adjoint(p * (g - convolve(f0, kernel)), kernel)
    delta, _, _ = solvers.conjugate_gradient(apply_A, b, cfg=cfg)
    return f0 + delta


# TV deconvolution with a known blur kernel is the lagged fixed point itself
tv_deconvolve = solvers.tv_restore_fixed_point


def tv_denoise(g: np.ndarray, params: RestoreParams) -> tuple[np.ndarray, SolveReport]:
    """TV denoising: TV deconvolution with the identity kernel."""
    return tv_deconvolve(g, Kernel.delta(), params)


def _image_times_kernel_adjoint(fp: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Adjoint of the kernel map ``h -> grid._taps(fp, h)``, the blur of the
    image by the kernel ``h`` with the image fixed (``fp`` is the image
    edge-padded by half the kernel size on each side, `grid.pad_edge`):
    ``sum P @ r_strip`` over the patch strips ``P`` of `grid._strips`, each
    the correlation of the residual's rows against ``fp`` at every tap
    offset."""
    h, w = r.shape
    ky, kx = fp.shape[0] - h + 1, fp.shape[1] - w + 1
    out = np.zeros(ky * kx)
    for top, n, p in grid._strips(fp, ky, kx):
        out += p @ r[top : top + n].ravel()
    return out.reshape(ky, kx)


def _project_kernel(weights: np.ndarray) -> np.ndarray:
    """Clip negative taps and renormalize to unit sum."""
    clipped = np.maximum(weights, 0.0)
    total = clipped.sum()
    if total <= 0.0:
        raise DegenerateKernelError(
            "kernel collapsed to zero after projection; reduce lam_kernel"
        )
    return clipped / total


def _kernel_gram(fp: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``F^T F`` of the kernel map ``F h = grid._taps(fp, h)`` for an image of
    ``shape``: the Gram matrix ``P P^T`` of the patch matrix ``P``, whose row
    for tap ``(b, a)`` is ``fp[b:b+H, a:a+W]`` flattened, summed over the
    patch strips of `grid._strips`, so one strip is held at a time."""
    h, w = shape
    ky, kx = fp.shape[0] - h + 1, fp.shape[1] - w + 1
    gram = np.zeros((ky * kx, ky * kx))
    for _, _, p in grid._strips(fp, ky, kx):
        gram += p @ p.T
    return gram


def _kernel_step(
    g: np.ndarray, f: np.ndarray, h_k: np.ndarray, params: BlindParams
) -> np.ndarray:
    """One exact lagged TV step for the kernel with the image fixed, ``F h =
    grid._taps(fp, h)`` over the edge-padded image, followed by the
    nonnegativity/unit-sum projection.  The kernel has only ``k^2``
    unknowns, so the frozen system ``[F^T F + lam_kernel L(w(h_k))] h =
    F^T g`` is built as a dense ``k^2 x k^2`` matrix (`_kernel_gram`, and
    the weighted Laplacian of the ``k^2`` unit kernels) and solved for the
    correction to ``h_k``.  A singular system (``lam_kernel = 0`` on a flat
    image) takes the minimum-norm correction.  Returns the projected kernel."""
    ks = params.kernel_size
    fp = pad_edge(f, ks // 2, ks // 2)
    wx, wy = functionals.diffusion_weights(h_k, params.alpha)
    units = np.eye(ks * ks).reshape(ks * ks, ks, ks)
    # row i is L applied to unit kernel i; L is symmetric, so this is L itself
    lap = functionals.apply_weighted_laplacian(wx, wy, units).reshape(ks * ks, ks * ks)
    A = _kernel_gram(fp, f.shape) + params.lam_kernel * lap
    r0 = _image_times_kernel_adjoint(fp, g).ravel() - A @ h_k.ravel()
    try:
        delta = np.linalg.solve(A, r0)
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(A, r0, rcond=None)[0]
    if not np.all(np.isfinite(delta)):
        raise solvers.SolverDivergenceError("non-finite kernel step")
    return _project_kernel(h_k + delta.reshape(ks, ks))


def blind_deconvolve(
    g: np.ndarray,
    params: BlindParams,
    kernel0: Optional[Kernel] = None,
) -> tuple[np.ndarray, Kernel, SolveReport]:
    """Alternating-minimization blind deconvolution (Chan & Wong, IEEE TIP
    1998).

    Starting from ``kernel0`` (a centered delta by default), projected as
    below, first solves the image problem for that kernel
    (`solvers.tv_restore_fixed_point`).  A ``kernel0`` with no positive tap,
    or whose positive taps do not have a finite sum, raises `ValueError`.
    Each alternation after that makes one exact lagged kernel step
    (`_kernel_step`, a dense solve with no CG) and then one lagged image
    step (`solvers.lagged_restore_step`) with the new kernel, until the image
    stops moving or the iteration cap is hit.  The kernel is projected to
    be nonnegative with unit sum after every kernel step, removing the
    intensity-scale ambiguity of the pair.  The objective is
    `functionals.tv_objective` of the image with the kernel, plus
    ``lam_kernel`` times the kernel's isotropic TV.

    The initial solve and every image step read one image `RestoreParams`:
    ``lam_image``, ``alpha``, the isotropic TV and ``params.solver``.  The
    report's histories are per alternation; its CG figures are the image
    steps', as the kernel step runs no CG.  ``cg_iterations_total`` also
    counts the initial solve, so it can exceed ``sum(cg_iters_history)``.
    ``converged`` also requires every CG solve of the initial image solve
    to have converged.  A non-finite ``g`` raises `ValueError`.
    """
    g = ensure_field(g)
    ks = params.kernel_size
    if kernel0 is None:
        kernel = Kernel.delta(ks)
    else:
        if kernel0.shape != (ks, ks):
            raise ValueError(
                f"kernel0 shape {kernel0.shape} does not match kernel_size {ks}"
            )
        # no positive tap, or positive taps summing past the float maximum,
        # would project to a zero kernel: an input error, not a failed solve
        with np.errstate(over="ignore"):
            total = np.maximum(kernel0.weights, 0.0).sum()
        if not 0.0 < total < np.inf:
            raise ValueError("kernel0 needs a positive tap, and its positive taps a finite sum")
        kernel = Kernel(_project_kernel(kernel0.weights))

    image = RestoreParams(lam=params.lam_image, alpha=params.alpha, solver=params.solver)
    f, init_rep = solvers.tv_restore_fixed_point(g, kernel, image)

    def step(f):
        nonlocal kernel
        kernel = Kernel(_kernel_step(g, f, kernel.weights, params))
        return solvers.lagged_restore_step(g, f, kernel, image)

    def objective(f_next):
        return (functionals.tv_objective(f_next, g, kernel, params.lam_image, params.alpha)
                + params.lam_kernel * functionals.tv_isotropic(kernel.weights, params.alpha))

    report = SolveReport(cg_iterations_total=init_rep.cg_iterations_total)
    f, report = solvers.lagged_loop(step, objective, f, params.solver, report)
    report.converged = report.converged and all(init_rep.cg_converged_history)
    return f, kernel, report


def lasso_estimate(
    g: np.ndarray, kernel: Kernel, t_penalty: float, steps: int = 200
) -> np.ndarray:
    """L1-penalized restoration ``min 0.5*||H f - g||^2 + t * ||f||_1`` by
    iterative soft thresholding.

    Step size is ``1 / (sum |h|)^2``, a bound on the Lipschitz constant of
    the data term's gradient, which makes the objective non-increasing.
    When ``max |H^T g| <= t``, zero is the exact minimizer (the iteration
    from zero never leaves it) and is returned before the step size is
    formed, as for a zero kernel.  A non-finite ``g`` raises `ValueError`.
    Raises `solvers.SolverDivergenceError` if the step size overflows or
    the estimate turns non-finite.
    """
    if not 0 < t_penalty < np.inf:
        raise ValueError(f"t_penalty must be finite and positive, got {t_penalty}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    g = ensure_field(g)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(np.abs(convolve_adjoint(g, kernel)) <= t_penalty):
            return np.zeros_like(g)
        lipschitz = float(np.sum(np.abs(kernel.weights)) ** 2)
        if not np.isfinite(lipschitz):
            raise solvers.SolverDivergenceError("non-finite LASSO step size")
        step = 1.0 / lipschitz
        thresh = t_penalty * step
        f = np.zeros_like(g)
        for _ in range(steps):
            grad = convolve_adjoint(convolve(f, kernel) - g, kernel)
            z = f - step * grad
            f = np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
    if not np.all(np.isfinite(f)):
        raise solvers.SolverDivergenceError("non-finite LASSO estimate")
    return f


def _check_peak(peak: float) -> None:
    if not 0 < peak < np.inf:
        raise ValueError(f"peak must be finite and positive, got {peak}")


def psnr(f: np.ndarray, reference: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB, capped at 300 dB for exact equality.
    Empty images have no PSNR: they raise ValueError."""
    f = np.asarray(f, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if f.shape != reference.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {reference.shape}")
    if f.size == 0:
        raise ValueError("psnr of empty images")
    _check_peak(peak)
    err = float(np.sum((f - reference) ** 2))
    if err == 0.0:
        return PSNR_CAP_DB
    value = 10.0 * math.log10(peak * peak * f.size / err)
    return min(value, PSNR_CAP_DB)
