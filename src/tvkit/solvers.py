"""Iterative machinery: matrix-free CG and the lagged-diffusivity outer loop.

The restoration fixed point solves

    [H^T H + lam * L(f_k)] f_{k+1} = H^T g

where ``L(f_k)`` is the TV operator with diffusivity weights frozen at the
previous iterate.  Freezing the weights makes each outer step a linear SPD
solve, done by `lagged_tv_step` (Jacobi-preconditioned CG) for restore and
both halves of blind deconvolution; flow runs plain CG on its own system.
Because the TV potential is concave in the squared gradient the step
minimizes a majorizer of the true objective, so the objective decreases
monotonically up to solver tolerance.

The outer loop re-linearizes right after each step, so a warm-started
lagged step need not be solved exactly: with the forcing term
``eta = SolverConfig.forcing`` its CG stops once the residual falls to
``eta`` times the warm-start residual (Eisenstat & Walker, SISC 1996;
Vogel & Oman, SISC 1996), or to ``tol_cg * ||b||`` if that is looser.
Near the fixed point the warm-start residual shrinks and the ``tol_cg``
test takes over.  ``SolverConfig().forcing`` is 0.1; ``forcing=0`` solves
every step to ``tol_cg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import functionals
from .grid import Kernel, VectorField, convolve, convolve_adjoint, divergence, gradient
from .functionals import TVVariant

DESCENT_SLACK = 1e-9


class SolverDivergenceError(RuntimeError):
    """A solve failed; carries the partial `SolveReport` (if any) in
    ``report``."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class SolverConfig:
    """Tolerances and iteration caps shared by the outer and CG loops.

    ``tol_outer`` is the L2 step-norm threshold for the outer fixed-point
    loop; ``None`` resolves to ``1e-4 * sqrt(#unknowns)`` at solve time.
    ``forcing`` (``0 <= forcing < 1``) lets each warm-started lagged step
    stop its CG at ``forcing`` times its starting residual; 0 solves every
    step to ``tol_cg``.  0.3 halved the CG work of 0.1 again but cost up to
    0.17 dB.
    """

    tol_outer: Optional[float] = None
    max_outer: int = 50
    tol_cg: float = 1e-8
    max_cg: int = 500
    forcing: float = 0.1

    def __post_init__(self):
        if self.tol_outer is not None and not self.tol_outer > 0:
            raise ValueError("tol_outer must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not self.tol_cg > 0 or self.max_cg < 1:
            raise ValueError("tol_cg must be positive and max_cg >= 1")
        if not 0.0 <= self.forcing < 1.0:
            raise ValueError(f"forcing must be in [0, 1), got {self.forcing}")

    def resolved_tol_outer(self, n_unknowns: int) -> float:
        if self.tol_outer is not None:
            return self.tol_outer
        return 1e-4 * math.sqrt(n_unknowns)


def _monotone(history: list[float]) -> bool:
    return all(b <= a + DESCENT_SLACK for a, b in zip(history, history[1:]))


@dataclass
class SolveReport:
    """Per-iteration record of an outer solve.  The iteration count and the
    monotone flags derive from the histories; descent and contraction are
    monitored, not enforced."""

    # the outer step norm fell below its tolerance and every CG solve converged
    # (under a forcing term: reached its forcing tolerance)
    converged: bool = False
    objective_history: list[float] = field(default_factory=list)
    step_norm_history: list[float] = field(default_factory=list)
    cg_iterations_total: int = 0
    cg_iters_history: list[int] = field(default_factory=list)
    # whether each outer iteration's CG solves all converged; with forcing > 0
    # a lagged step converges when it reaches max(tol_cg ||b||, forcing ||r0||)
    cg_converged_history: list[bool] = field(default_factory=list)
    # the forcing term the CG solves ran with (0: every one to tol_cg); None
    # when not known, as for a report read back from a CSV file
    forcing: Optional[float] = None

    @property
    def outer_iterations(self) -> int:
        return len(self.objective_history)

    @property
    def objective_monotone(self) -> bool:
        return _monotone(self.objective_history)

    @property
    def step_norms_monotone(self) -> bool:
        return _monotone(self.step_norm_history)


def conjugate_gradient(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    cfg: Optional[SolverConfig] = None,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    forcing: float = 0.0,
) -> tuple[np.ndarray, int, bool]:
    """Solve ``A x = b`` for a symmetric positive (semi-)definite operator.

    Standard CG recurrences on arrays of any shape; stops when
    ``||A x - b|| <= max(tol_cg * ||b||, forcing * ||r0||)``, with ``r0 =
    b - A x0`` the starting residual, or after ``max_cg`` iterations.
    ``precond``, if given, applies an SPD approximation of ``A^-1`` to a
    residual (preconditioned CG); the stopping test stays on the
    unpreconditioned residual.  Returns ``(x, iterations, converged)``.
    Raises `SolverDivergenceError` if the residual turns non-finite
    (indefinite or ill-posed operator).
    """
    cfg = cfg or SolverConfig()
    b = np.asarray(b, dtype=np.float64)
    bnorm = float(np.sqrt(np.vdot(b, b).real))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, True
    # private copy: x, r and p are updated in place
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    threshold = cfg.tol_cg * bnorm

    r = b - apply_A(x)
    del b  # not needed past the first residual: one vector less to hold
    rs = float(np.vdot(r, r).real)
    if not np.isfinite(rs):
        raise SolverDivergenceError("non-finite residual entering CG")
    # forcing = 0 leaves the threshold as it is
    threshold = max(threshold, forcing * math.sqrt(rs))
    if math.sqrt(rs) <= threshold:
        return x, 0, True

    def preconditioned(r, rs):
        """``(z, <r, z>)`` with ``z = M^-1 r``; the plain CG pair without
        ``precond``, with no extra inner product."""
        if precond is None:
            return r, rs
        z = precond(r)
        return z, float(np.vdot(r, z).real)

    z, rz = preconditioned(r, rs)
    p = z.copy()
    del z
    for k in range(1, cfg.max_cg + 1):
        Ap = apply_A(p)
        pAp = float(np.vdot(p, Ap).real)
        if not np.isfinite(pAp):
            raise SolverDivergenceError(f"non-finite curvature at CG iteration {k}")
        if pAp <= 0.0:
            # null-space direction of a semi-definite operator: nothing left to do
            return x, k - 1, math.sqrt(rs) <= threshold
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rs = float(np.vdot(r, r).real)
        if not np.isfinite(rs):
            raise SolverDivergenceError(f"non-finite residual at CG iteration {k}")
        if math.sqrt(rs) <= threshold:
            return x, k, True
        z, rz_new = preconditioned(r, rs)
        p *= rz_new / rz
        p += z
        # z must not outlive this update: alive through the next apply_A it
        # would add one more vector to the solve's peak memory
        del z
        rz = rz_new
    return x, cfg.max_cg, False


def lagged_loop(
    step: Callable[[np.ndarray], tuple[np.ndarray, int, bool]],
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    cfg: SolverConfig,
    report: Optional[SolveReport] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Lagged outer loop: ``x <- step(x)`` from ``x0`` until the step norm
    drops below ``cfg.resolved_tol_outer(x0.size)`` or after
    ``cfg.max_outer`` steps.

    ``step(x)`` freezes what depends on ``x`` (the diffusivity weights), runs
    CG and returns ``(x_next, cg_iters, cg_converged)``; ``objective(x_next)``
    is recorded after every step.  ``converged`` requires the last step below
    the tolerance and every CG solve converged; the report records
    ``cfg.forcing``, the forcing term the steps ran with.  A
    `SolverDivergenceError` (or subclass) is re-raised as its own type with
    the partial report and its outer iteration; a given ``report`` is filled
    in place, so a caller can pre-seed counts such as ``cg_iterations_total``.
    """
    tol = cfg.resolved_tol_outer(x0.size)
    report = SolveReport() if report is None else report
    report.forcing = cfg.forcing
    x = x0
    for _ in range(cfg.max_outer):
        try:
            x_next, cg_iters, cg_converged = step(x)
        except SolverDivergenceError as err:
            raise type(err)(
                f"{err} (outer iteration {report.outer_iterations + 1})", report=report
            ) from err
        step_norm = float(np.linalg.norm(x_next - x))
        report.cg_iterations_total += cg_iters
        report.cg_iters_history.append(cg_iters)
        report.cg_converged_history.append(cg_converged)
        report.objective_history.append(objective(x_next))
        report.step_norm_history.append(step_norm)
        x = x_next
        if step_norm < tol:
            report.converged = all(report.cg_converged_history)
            break
    return x, report


def lagged_tv_step(
    K: Callable[[np.ndarray], np.ndarray], Kt: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray, x_k: np.ndarray, ktk_diag, lam: float, alpha: float,
    variant: TVVariant, cfg: SolverConfig,
) -> tuple[np.ndarray, int, bool]:
    """Freeze the TV weights ``w`` at ``x_k`` and solve ``[K^T K + lam L(w)]
    x = K^T g`` by CG from ``x_k``, preconditioned by the inverse Jacobi
    diagonal ``ktk_diag + lam diag(L(w))`` (``ktk_diag``, the diagonal of
    ``K^T K``, is a scalar or shaped like ``x_k``).  CG stops at the forcing
    tolerance ``cfg.forcing * ||r0||`` if that is looser than ``tol_cg``.
    Returns `conjugate_gradient`'s triple; a non-finite diagonal raises
    `SolverDivergenceError`."""
    wx, wy = functionals.diffusion_weights(x_k, alpha, variant)
    with np.errstate(over="ignore"):  # an overflow is caught just below
        diag = ktk_diag + lam * functionals.weighted_laplacian_diagonal(wx, wy)
    if not np.all(np.isfinite(diag)):
        raise SolverDivergenceError("non-finite Jacobi diagonal")
    # a zero diagonal (zero kernel, no penalty) leaves its residual entries unscaled
    inv_diag = np.divide(1.0, diag, out=np.ones_like(diag), where=diag > 0)

    def apply_A(x):
        return Kt(K(x)) + lam * functionals.apply_weighted_laplacian(wx, wy, x)

    return conjugate_gradient(apply_A, Kt(g), x0=x_k, cfg=cfg, precond=lambda r: inv_diag * r,
                              forcing=cfg.forcing)


def tv_restore_fixed_point(
    g: np.ndarray,
    kernel: Kernel,
    lam: float,
    alpha: float = functionals.DEFAULT_ALPHA,
    cfg: Optional[SolverConfig] = None,
    variant: TVVariant = TVVariant.ISOTROPIC,
    init: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve ``[H^T H + lam L(f_k)] f_{k+1} = H^T g`` by `lagged_loop`, each
    step warm-started at ``f_k``, until the step norm drops below the outer
    tolerance or the iteration cap is reached.

    ``init`` is the starting image: ``None`` starts from the observation,
    an array shaped like ``g`` is a warm start.  With
    ``cfg=replace(cfg, max_outer=1)`` and ``init=f_k`` this is one lagged
    step from ``f_k``.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    g = np.asarray(g, dtype=np.float64)
    cfg = cfg or SolverConfig()
    if init is None:
        f = g.copy()
    elif isinstance(init, np.ndarray) and init.shape == g.shape:
        f = init.astype(np.float64, copy=True)
    else:
        raise ValueError("init must be None or an array shaped like the observation")

    # diagonal of H^T H: exact away from the border, where the replicate
    # boundary folds taps onto the edge pixels
    hth_diag = float(np.sum(kernel.weights * kernel.weights))

    def step(f_k):
        return lagged_tv_step(lambda x: convolve(x, kernel), lambda y: convolve_adjoint(y, kernel),
                              g, f_k, hth_diag, lam, alpha, variant, cfg)

    def objective(f_next):
        return functionals.tv_objective(f_next, g, kernel, lam, alpha, variant)

    return lagged_loop(step, objective, f, cfg)


def dual_projection_denoise(
    g: np.ndarray,
    lam: float,
    steps: int = 200,
    tau: float = 0.25,
) -> np.ndarray:
    """Projected dual iteration for the identity-operator denoising problem
    ``min 0.5*||f - g||^2 + lam * TV(f)``.

    Independent of the fixed-point path: works on the exact (unsmoothed) TV
    through its dual, iterating ``p <- (p + tau*grad(div p - g/lam)) /
    (1 + tau*|grad(div p - g/lam)|)`` and returning ``g - lam * div p``.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    g = np.asarray(g, dtype=np.float64)
    px = np.zeros_like(g)
    py = np.zeros_like(g)
    scaled = g / lam
    for _ in range(steps):
        gx, gy = gradient(divergence(VectorField(px, py)) - scaled)
        denom = 1.0 + tau * np.hypot(gx, gy)
        px = (px + tau * gx) / denom
        py = (py + tau * gy) / denom
    return g - lam * divergence(VectorField(px, py))
