"""Problem-level estimators: least squares and Tikhonov variants, TV
denoising/deconvolution, alternating-minimization blind deconvolution,
LASSO via iterative soft thresholding, and image-quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import functionals, solvers
from .functionals import TVVariant
from .grid import Kernel, convolve, convolve_adjoint, pad_edge
from .solvers import SolverConfig, SolveReport

PSNR_CAP_DB = 300.0


class DegenerateKernelError(RuntimeError):
    """Blind deconvolution kernel collapsed to zero after projection
    (kernel regularization too strong)."""

    def __init__(self, message: str, report: SolveReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass
class RestoreParams:
    """Knobs for the TV restoration problems."""

    lam: float = 0.05
    alpha: float = functionals.DEFAULT_ALPHA
    variant: TVVariant = TVVariant.ISOTROPIC
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


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
        if self.lam_image < 0 or self.lam_kernel < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


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

    with ``P = diag(p_weight)`` strictly positive per pixel.
    """
    g = np.asarray(g, dtype=np.float64)
    f0 = np.asarray(f0, dtype=np.float64)
    p = np.asarray(p_weight, dtype=np.float64)
    if p.shape != g.shape or f0.shape != g.shape:
        raise ValueError("g, f0 and p_weight must have the same shape")
    if np.any(p <= 0):
        raise ValueError("p_weight must be strictly positive per pixel")
    if q_lambda < 0:
        raise ValueError(f"q_lambda must be nonnegative, got {q_lambda}")
    mu = q_lambda * q_lambda

    def apply_A(x):
        return convolve_adjoint(p * convolve(x, kernel), kernel) + mu * x

    b = convolve_adjoint(p * (g - convolve(f0, kernel)), kernel)
    delta, _, _ = solvers.conjugate_gradient(apply_A, b, cfg=cfg)
    return f0 + delta


def tv_denoise(g: np.ndarray, params: RestoreParams) -> tuple[np.ndarray, SolveReport]:
    """TV denoising: TV deconvolution with the identity kernel."""
    return tv_deconvolve(g, Kernel.delta(), params)


def tv_deconvolve(
    g: np.ndarray, kernel: Kernel, params: RestoreParams
) -> tuple[np.ndarray, SolveReport]:
    """TV deconvolution with a known blur kernel."""
    return solvers.tv_restore_fixed_point(
        g,
        kernel,
        params.lam,
        alpha=params.alpha,
        cfg=params.solver,
        variant=params.variant,
    )


def _image_times_kernel(f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply the blur with kernel ``weights`` to image ``f`` (the blur as a
    linear map of the kernel, image fixed)."""
    return convolve(f, Kernel(weights))


def _image_times_kernel_adjoint(f: np.ndarray, r: np.ndarray, ksize: int) -> np.ndarray:
    """Adjoint of `_image_times_kernel` in its kernel argument: correlate the
    residual against the (replicate-extended) image at each tap offset."""
    h, w = f.shape
    fp = pad_edge(f, ksize // 2, ksize // 2)
    out = np.empty((ksize, ksize))
    for b in range(ksize):
        for a in range(ksize):
            out[b, a] = float(np.sum(fp[b : b + h, a : a + w] * r))
    return out


def _project_kernel(weights: np.ndarray) -> np.ndarray:
    """Clip negative taps and renormalize to unit sum."""
    clipped = np.maximum(weights, 0.0)
    total = clipped.sum()
    if total <= 0.0:
        raise DegenerateKernelError(
            "kernel collapsed to zero after projection; reduce lam_kernel"
        )
    return clipped / total


def _kernel_step(
    g: np.ndarray, f: np.ndarray, h_k: np.ndarray, params: BlindParams
) -> tuple[np.ndarray, int, bool]:
    """TV-regularized LS solve for the kernel with the image fixed, followed
    by the nonnegativity/unit-sum projection.  Returns the projected kernel
    and the CG iteration count and converged flag."""
    ks = params.kernel_size
    # diag(F^T F): column (b, a) of F is the edge-padded image shifted by
    # that tap, so its squared norm correlates f * f with ones
    ftf_diag = _image_times_kernel_adjoint(f * f, np.ones_like(f), ks)
    h_new, iters, converged = solvers.lagged_tv_step(
        lambda x: _image_times_kernel(f, x), lambda r: _image_times_kernel_adjoint(f, r, ks),
        g, h_k, ftf_diag, params.lam_kernel, params.alpha, TVVariant.ISOTROPIC, params.solver)
    return _project_kernel(h_new), iters, converged


def _blind_objective(g, f, h_weights, params: BlindParams) -> float:
    r = convolve(f, Kernel(h_weights)) - g
    return (
        0.5 * float(np.sum(r * r))
        + params.lam_kernel * functionals.tv_isotropic(h_weights, params.alpha)
        + params.lam_image * functionals.tv_isotropic(f, params.alpha)
    )


def blind_deconvolve(
    g: np.ndarray,
    params: BlindParams,
    kernel0: Optional[Kernel] = None,
) -> tuple[np.ndarray, Kernel, SolveReport]:
    """Alternating-minimization blind deconvolution.

    Starting from ``kernel0`` (a centered delta by default), first solves
    the image problem for that kernel, then alternates kernel step and
    image step until the image stops moving or the iteration cap is hit.
    The kernel is projected to be nonnegative with unit sum after every
    kernel step, removing the intensity-scale ambiguity of the pair.

    The report's histories are per alternation; ``cg_iterations_total``
    additionally counts the initial image solve, so it can exceed the sum
    of ``cg_iters_history``.  ``converged`` also requires every CG solve of
    the initial image solve to have converged.
    """
    g = np.asarray(g, dtype=np.float64)
    ks = params.kernel_size
    if kernel0 is None:
        h = Kernel.delta(ks).weights
    else:
        if kernel0.shape != (ks, ks):
            raise ValueError(
                f"kernel0 shape {kernel0.shape} does not match kernel_size {ks}"
            )
        h = _project_kernel(kernel0.weights)

    f, init_rep = tv_deconvolve(
        g,
        Kernel(h),
        RestoreParams(lam=params.lam_image, alpha=params.alpha, solver=params.solver),
    )
    cfg = params.solver
    # per AM step the image solve is warm-started and capped; the outer loop
    # supplies the remaining iterations
    inner_cfg = replace(cfg, max_outer=min(cfg.max_outer, 8))

    def step(f):
        nonlocal h
        h, kernel_cg, kernel_ok = _kernel_step(g, f, h, params)
        f_next, inner_rep = solvers.tv_restore_fixed_point(
            g,
            Kernel(h),
            params.lam_image,
            alpha=params.alpha,
            cfg=inner_cfg,
            init=f,
        )
        cg_ok = kernel_ok and all(inner_rep.cg_converged_history)
        return f_next, kernel_cg + inner_rep.cg_iterations_total, cg_ok

    report = SolveReport(cg_iterations_total=init_rep.cg_iterations_total)
    try:
        f, report = solvers.lagged_loop(
            step, lambda f_next: _blind_objective(g, f_next, h, params), f, cfg, report
        )
    except DegenerateKernelError as err:
        err.report = solvers._finalize_report(report)
        raise
    report.converged = report.converged and all(init_rep.cg_converged_history)
    return f, Kernel(h), report


def lasso_estimate(
    g: np.ndarray, kernel: Kernel, t_penalty: float, steps: int = 200
) -> np.ndarray:
    """L1-penalized restoration ``min 0.5*||H f - g||^2 + t * ||f||_1`` by
    iterative soft thresholding.

    Step size is ``1 / (sum |h|)^2``, a bound on the Lipschitz constant of
    the data term's gradient, which makes the objective non-increasing.
    """
    if t_penalty <= 0:
        raise ValueError(f"t_penalty must be positive, got {t_penalty}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    lipschitz = float(np.sum(np.abs(kernel.weights))) ** 2
    if lipschitz == 0.0:
        return np.zeros_like(g)
    step = 1.0 / lipschitz
    thresh = t_penalty * step
    f = np.zeros_like(g)
    for _ in range(steps):
        grad = convolve_adjoint(convolve(f, kernel) - g, kernel)
        z = f - step * grad
        f = np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
    return f


def psnr(f: np.ndarray, reference: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB, capped at 300 dB for exact equality."""
    f = np.asarray(f, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if f.shape != reference.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {reference.shape}")
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    err = float(np.sum((f - reference) ** 2))
    if err == 0.0:
        return PSNR_CAP_DB
    value = 10.0 * math.log10(peak * peak * f.size / err)
    return min(value, PSNR_CAP_DB)
