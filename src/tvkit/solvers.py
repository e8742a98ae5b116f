"""Iterative machinery: matrix-free CG and the lagged-diffusivity outer loop.

The restoration fixed point solves

    [H^T H + lam * L(f_k)] f_{k+1} = H^T g

where ``L(f_k)`` is the TV operator with diffusivity weights frozen at the
previous iterate.  Freezing the weights makes each outer step a linear SPD
solve, done by `lagged_restore_step` (Jacobi-preconditioned CG) for restore
and blind deconvolution's image step; flow preconditions CG on its own
system by Jacobi plus a low-frequency cosine correction (`flow._lagged_flow`).
Restore keeps Jacobi alone: its TV weights span orders of magnitude at a
small ``alpha``, so a constant-coefficient cosine model of its operator
saved few CG iterations and cost more time than they did.
`RestoreParams` (``lam``, ``alpha``, the TV variant and the `SolverConfig`)
is the one record of a restore problem's settings: `tv_restore_fixed_point`
and `lagged_restore_step` read it as it is.
Because the TV potential is concave in the squared gradient the step
minimizes a majorizer of the true objective, so the objective decreases
monotonically up to solver tolerance.

`tv_restore_fixed_point` over-relaxes each lagged step: it moves to
``f_k + _RELAX * (x - f_k)`` (``_RELAX`` = 1.5) instead of CG's ``x``.
Along the line through ``f_k`` and ``x`` the lagged quadratic is a
parabola with its minimum at ``x``, so any factor in (0, 2) still
descends the majorizer, and with it the objective (relaxed half-quadratic
minimization; Allain, Idier & Goussard, IEEE TIP 2006).  The stretch
costs no operator call and no array; over 17 denoise and deconvolution
cases it cut the CG iterations of a solve by 15-53%.  A step whose CG
ran no iteration is taken unrelaxed, and the report's step norms, which
the outer tolerance tests, are those of the relaxed steps.
`lagged_restore_step` itself stays a plain step, and `lagged_loop`
relaxes nothing: relaxed, the flow TV solves took more outer steps and
blind deconvolution's alternations restored worse images.

The outer loop re-linearizes right after each step, so a warm-started
lagged step need not be solved exactly: with the forcing term
``eta = SolverConfig.forcing`` its CG stops once the residual falls to
``eta`` times the warm-start residual (Eisenstat & Walker, SISC 1996;
Vogel & Oman, SISC 1996), or to ``tol_cg * ||b||`` if that is looser.
Near the fixed point the warm-start residual shrinks and the ``tol_cg``
test takes over.  ``SolverConfig().forcing`` is 0.1; ``forcing=0`` solves
every step to ``tol_cg``.

The lagged steps of restore and flow solve in mixed precision, by one
helper, `_mixed_precision_cg`: it forms the residual ``r`` of the current
iterate in float64 and solves the correction ``A d = r / ||r||`` by float32
PCG from zero (a sweep), asking each sweep for a `_MIXED_FORCING` (1e-2)
reduction, five orders of magnitude above float32's rounding, or for the
final threshold if that is looser; it adds the correction in float64 and
repeats until a sweep aimed at the final threshold converges (iterative
refinement with a low-precision inner solve; Carson & Higham, SISC 2018).
Every lagged step solves so, whatever its forcing term: one sweep under a
forcing term of 1e-2 or more, a few under none (``forcing=0``, the
image-driven flow solve), which still stop at ``tol_cg`` on float64 norms.
The iterate, the residuals, the objective and the report stay float64, and
each float32 CG iteration streams half the bytes of a float64 one.  Only a
system float32 cannot hold (`_mixed_precision_cg`) and the linear
estimators solve in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import index
from typing import Callable, Optional

import numpy as np

from . import functionals
from .grid import Kernel, VectorField, convolve, convolve_adjoint, divergence, ensure_field, gradient
from .functionals import TVVariant

DESCENT_SLACK = 1e-9
# over-relaxation factor of `tv_restore_fixed_point`'s lagged steps; each
# step descends for any value in (0, 2).  Outer / CG iterations per solve
# at fixture seeds 0-3, denoise-256 and deconv-64: 1.0 took 14 / 122-123
# and 23 / 184-189; 1.3 11 / 97-98 and 19-20 / 141-147; 1.4 11 / 87 and
# 18-19 / 117-125; 1.5 11 / 70-72 and 17-18 / 97-105; 1.6 11 / 55-56 and
# 16-17 / 72-84; 1.7 raised denoise-256 to 15 outer steps and 1.8 to 22.
# Of 1.3, 1.4, 1.45, 1.5, 1.55, 1.6 and 1.7 only 1.5 kept the forcing-term
# output as close to the minimizer as the exact-CG one at no higher
# objective (tests/test_restore.py::TestForcingQuality).
_RELAX = 1.5
# the reduction each float32 sweep of `_mixed_precision_cg` asks for: a
# hundredth of its start, five orders above float32's rounding (6e-8)
_MIXED_FORCING = 1e-2
# the range the Jacobi diagonal of a float32 correction solve must lie in,
# so that the unit-scaled residual, the directions and the operator's
# entries stay far inside float32's normal numbers (1.2e-38 to 3.4e38)
_F32_SAFE = (2.0**-40, 2.0**40)


def _check_count(name: str, value) -> int:
    """``value`` as an int; `ValueError` for a value that is not integral
    (anything `operator.index` refuses, a float among them)."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    0.17 dB.  Under any forcing term the lagged steps of restore and flow
    solve in float32 sweeps on float64 residuals (`_mixed_precision_cg`).
    ``max_outer`` and ``max_cg`` are integers: a value that
    `operator.index` refuses, such as ``2.5`` or ``3.0``, raises
    `ValueError`.
    """

    tol_outer: Optional[float] = None
    max_outer: int = 50
    tol_cg: float = 1e-8
    max_cg: int = 500
    forcing: float = 0.1

    def __post_init__(self):
        if self.tol_outer is not None and not 0 < self.tol_outer < math.inf:
            raise ValueError(f"tol_outer must be finite and positive, got {self.tol_outer}")
        if _check_count("max_outer", self.max_outer) < 1:
            raise ValueError("max_outer must be >= 1")
        if not 0 < self.tol_cg < math.inf or _check_count("max_cg", self.max_cg) < 1:
            raise ValueError("tol_cg must be finite and positive and max_cg >= 1")
        if not 0.0 <= self.forcing < 1.0:
            raise ValueError(f"forcing must be in [0, 1), got {self.forcing}")

    def resolved_tol_outer(self, n_unknowns: int) -> float:
        if self.tol_outer is not None:
            return self.tol_outer
        return 1e-4 * math.sqrt(n_unknowns)


@dataclass
class RestoreParams:
    """Knobs for the TV restoration problems.  ``variant`` may be given by
    its value (``"iso"``, ``"aniso"``); any other raises ``ValueError``."""

    lam: float = 0.05
    alpha: float = functionals.DEFAULT_ALPHA
    variant: TVVariant = TVVariant.ISOTROPIC
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        functionals._check_alpha(self.alpha)
        self.variant = TVVariant(self.variant)


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

    Standard CG recurrences on arrays of any shape.  ``precond``, if given,
    applies an SPD approximation of ``A^-1`` to a residual (preconditioned
    CG).  ``apply_A``'s result is read only until the next call, so
    ``apply_A`` may write every result into one buffer of its own.
    ``precond``'s result is read only until CG folds it into the search
    direction, before the next ``apply_A`` call, so ``precond`` may write
    into buffers that ``apply_A`` overwrites.  Returns
    ``(x, iterations, converged)``.  The loop stops, in the order it tests:

    1. converged, at the head of an iteration, once ``||b - A x|| <=
       max(tol_cg * ||b||, forcing * ||r0||)`` with ``r0 = b - A x0`` the
       starting residual (the test stays on the unpreconditioned residual);
    2. not converged, at the head of iteration ``max_cg + 1``;
    3. not converged, on a search direction of zero curvature (the null
       space of a semi-definite operator), counting the iterations before it.

    A float32 ``b`` keeps the solve in float32: ``x0`` is cast to it, and
    ``apply_A`` and ``precond`` are called on float32 vectors; any other
    ``b`` is read as float64.  Without ``x0`` the solve starts at zero with
    ``r0 = b`` and calls ``apply_A`` first in iteration 1.

    Runs with numpy's overflow and invalid warnings off: a non-finite
    residual or curvature raises `SolverDivergenceError` (indefinite or
    ill-posed operator).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cfg = cfg or SolverConfig()
        b = np.asarray(b)
        b = np.asarray(b, dtype=np.float32 if b.dtype == np.float32 else np.float64)
        bnorm = float(np.sqrt(np.vdot(b, b)))
        if bnorm == 0.0:
            return np.zeros_like(b), 0, True
        # private copies: x, r and p are updated in place
        if x0 is None:
            x, r = np.zeros_like(b), b.copy()
        else:
            x = np.array(x0, dtype=b.dtype)
            r = b - apply_A(x)
        del b  # not needed past the first residual: one vector less to hold
        rs = float(np.vdot(r, r))
        if not np.isfinite(rs):
            raise SolverDivergenceError("non-finite residual entering CG")
        # forcing = 0 leaves tol_cg * ||b|| as it is
        threshold = max(cfg.tol_cg * bnorm, forcing * math.sqrt(rs))
        p = None
        for k in range(cfg.max_cg + 1):
            if math.sqrt(rs) <= threshold:
                return x, k, True
            if k == cfg.max_cg:
                return x, k, False
            # z = M^-1 r and <r, z>; plain CG takes r itself, with no extra inner product
            z = r if precond is None else precond(r)
            rz_new = rs if precond is None else float(np.vdot(r, z))
            if p is None:
                p = z.copy()
            else:
                p *= rz_new / rz
                p += z
            # z must not outlive this update: alive through the next apply_A it
            # would add one more vector to the solve's peak memory
            del z
            rz = rz_new
            Ap = apply_A(p)
            pAp = float(np.vdot(p, Ap))
            if not np.isfinite(pAp):
                raise SolverDivergenceError(f"non-finite curvature at CG iteration {k + 1}")
            if pAp <= 0.0:
                # null-space direction of a semi-definite operator: nothing left to do
                return x, k, False
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rs = float(np.vdot(r, r))
            if not np.isfinite(rs):
                raise SolverDivergenceError(f"non-finite residual at CG iteration {k + 1}")


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
    the partial report and its outer iteration; a non-finite objective or
    step norm raises one too.  ``step``, ``objective`` and the step norm
    run with numpy's overflow and invalid warnings off, so an overflow in
    them ends as that error.  A
    given ``report`` is filled in place, so a caller can pre-seed counts
    such as ``cg_iterations_total``.
    """
    tol = cfg.resolved_tol_outer(x0.size)
    report = SolveReport() if report is None else report
    report.forcing = cfg.forcing
    x = x0
    for _ in range(cfg.max_outer):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x_next, cg_iters, cg_converged = step(x)
                value = objective(x_next)
                step_norm = float(np.linalg.norm(x_next - x))
            if not math.isfinite(value):
                raise SolverDivergenceError("non-finite objective")
            if not math.isfinite(step_norm):
                raise SolverDivergenceError("non-finite step norm")
        except SolverDivergenceError as err:
            raise type(err)(
                f"{err} (outer iteration {report.outer_iterations + 1})", report=report
            ) from err
        report.cg_iterations_total += cg_iters
        report.cg_iters_history.append(cg_iters)
        report.cg_converged_history.append(cg_converged)
        report.objective_history.append(value)
        report.step_norm_history.append(step_norm)
        x = x_next
        if step_norm < tol:
            report.converged = all(report.cg_converged_history)
            break
    return x, report


def _lagged_operator(kernel: Kernel, wx: np.ndarray, wy: np.ndarray,
                     buffers: list[np.ndarray]) -> Callable:
    """``apply_A(x) = H^T H x + L(w) x`` of a lagged step, with ``lam``
    already folded into the weights ``w``, written into the three
    ``buffers`` (shaped like ``x``, of its dtype): ``A x``, ``L(w) x`` and
    one that holds ``H x``."""
    Ax, lap, hx = buffers

    def apply_A(x):
        # Ax and hx hold the weighted gradient until lap has summed it
        functionals.apply_weighted_laplacian(wx, wy, x, out=lap, work=(Ax, hx))
        convolve_adjoint(convolve(x, kernel, out=hx), kernel, out=Ax)
        return np.add(Ax, lap, out=Ax)

    return apply_A


def _float32_view(a: np.ndarray) -> np.ndarray:
    """A float32 array shaped like the C-contiguous float64 ``a``, in the
    first half of ``a``'s memory."""
    return a.reshape(-1).view(np.float32)[: a.size].reshape(a.shape)


def _mixed_precision_cg(
    operator: Callable[[list[np.ndarray]], Callable],
    preconditioner: Callable[[list[np.ndarray]], Callable],
    rhs: Callable[[], np.ndarray],
    x0: np.ndarray,
    cfg: SolverConfig,
    work: list[np.ndarray],
    diag_range: tuple[float, float],
) -> tuple[np.ndarray, int, bool]:
    """Solve the SPD system ``A x = b``, ``b = rhs()``, from ``x0`` with
    `conjugate_gradient`'s stop rule under ``cfg``, ``||b - A x|| <=
    max(tol_cg ||b||, forcing ||r0||)``, by float32 correction solves, and
    return its triple ``(x, iterations, converged)``.

    ``operator(buffers)`` returns ``apply_A`` and ``preconditioner(buffers)``
    a preconditioner, each computing in the dtype of ``buffers`` and
    writing only into them, as `conjugate_gradient`'s contract allows:
    ``work`` itself (float64 arrays, C-contiguous) for float64, and float32
    views of ``work``'s memory for float32, so the float32 solves allocate
    no operator buffer of their own.  ``rhs()`` returns ``b`` for each
    float64 residual and for the float64 solve; nothing writes into it, so
    every solve sees the system as given, and a caller that forms it afresh
    holds no ``b`` while a sweep runs.

    Each pass forms the residual ``r = b - A x`` in float64, solves ``A d =
    r / ||r||`` by float32 PCG from zero (a sweep) and adds ``||r|| d`` to
    ``x`` in float64 (iterative refinement with a low-precision inner
    solve; Carson & Higham, SISC 2018).  A sweep stops at `_MIXED_FORCING`
    (1e-2) times ``||r||``, or at the final threshold if that is looser.
    The loop ends when a float64 residual meets the final threshold, when
    a sweep aimed at it converges, or at ``max_cg`` iterations over all
    sweeps; under a forcing term of `_MIXED_FORCING` or more the first
    sweep is aimed at it.  ``x``, ``b``, the residuals and the thresholds
    stay float64.

    The solve stays float64, one `conjugate_gradient` call from ``x0``, when
    ``diag_range`` does not lie in `_F32_SAFE` (it must enclose the Jacobi
    diagonal; a non-finite bound fails), and is solved again so when a
    sweep raises `SolverDivergenceError` or stops on a direction of no
    curvature before its cap.  A non-finite starting residual raises
    `SolverDivergenceError`, as in `conjugate_gradient`."""
    apply64 = operator(work)

    def solve64():
        return conjugate_gradient(apply64, rhs(), x0=x0, cfg=cfg, precond=preconditioner(work),
                                  forcing=cfg.forcing)

    lo, hi = _F32_SAFE
    if not (lo <= diag_range[0] and diag_range[1] <= hi):
        return solve64()
    b = rhs()
    bnorm = float(np.sqrt(np.vdot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, True
    x, iters, threshold, apply32 = x0, 0, None, None
    while True:
        # the residual in apply64's result buffer, which the sweep then reuses
        r = apply64(x)
        np.subtract(b, r, out=r)
        del b
        r_norm = math.sqrt(float(np.vdot(r, r)))
        if not math.isfinite(r_norm):
            raise SolverDivergenceError("non-finite residual entering CG")
        if threshold is None:
            threshold = max(cfg.tol_cg * bnorm, cfg.forcing * r_norm)
        if r_norm <= threshold:
            return (np.array(x0, dtype=np.float64) if x is x0 else x), iters, True
        if apply32 is None:
            work32 = [_float32_view(a) for a in work]
            apply32, precond32 = operator(work32), preconditioner(work32)
        target = max(_MIXED_FORCING * r_norm, threshold)
        sweep = replace(cfg, tol_cg=target / r_norm, max_cg=cfg.max_cg - iters)
        try:
            d, k, converged = conjugate_gradient(
                apply32, np.divide(r, r_norm, out=np.empty(r.shape, np.float32)), cfg=sweep,
                precond=precond32)
        except SolverDivergenceError:
            return solve64()
        if not converged and k < sweep.max_cg:
            return solve64()
        iters += k
        x = x + np.multiply(d, r_norm, out=r, dtype=np.float64)
        if target == threshold or iters == cfg.max_cg:
            return x, iters, converged and target == threshold
        b = rhs()


def lagged_restore_step(
    g: np.ndarray, f_k: np.ndarray, kernel: Kernel, params: RestoreParams
) -> tuple[np.ndarray, int, bool]:
    """Freeze the TV weights ``w`` of ``params.variant`` at ``f_k`` and solve
    ``A f = H^T g``, ``A = H^T H + lam L(w)`` for the blur ``H`` of
    ``kernel``, by CG preconditioned by the inverse Jacobi diagonal
    ``sum(h^2) + lam diag(L(w))``; ``lam``, ``alpha`` and the CG settings
    are ``params``'s.  CG stops once the residual is at most ``max(tol_cg
    ||H^T g||, forcing ||r0||)``, ``r0 = H^T g - A f_k`` the residual of the
    warm start.  Returns `conjugate_gradient`'s triple ``(f, iterations,
    converged)``, or raises `SolverDivergenceError` for a non-finite Jacobi
    diagonal or ``r0``.

    ``lam`` is folded into the frozen weights once per step, so no CG
    iteration multiplies by it.  Under any forcing term the step solves by
    the float32 sweeps of `_mixed_precision_cg`, which return a float64
    ``f``: one sweep under a forcing term of `_MIXED_FORCING` (1e-2) or
    more, a few to reach ``tol_cg`` under ``forcing=0``.  It falls back to
    float64 as that function says, the Jacobi diagonal's range being
    bounded by ``sum(h^2)`` and ``sum(h^2) + 4 lam / alpha``.

    The operator writes into three float64 buffers of the step, or their
    float32 views (`_lagged_operator`), so CG's iterations allocate only
    CG's own vectors and what each convolution allocates: nothing for a
    delta or a line kernel, one intermediate for another kernel with
    `Kernel.factors`, the pads for a kernel of rank above 1.  Either way a
    step applies ``H^T`` to ``g`` once and ``A`` once per CG iteration and
    once for ``r0``."""
    lam, cfg = params.lam, params.solver
    # diagonal of H^T H: exact away from the border, where the replicate
    # boundary folds taps onto the edge pixels
    hth_diag = float(np.sum(kernel.weights * kernel.weights))
    wx, wy = functionals.diffusion_weights(f_k, params.alpha, params.variant)
    diag = hth_diag + lam * functionals.weighted_laplacian_diagonal(wx, wy)
    if not np.all(np.isfinite(diag)):
        raise SolverDivergenceError("non-finite Jacobi diagonal")
    # a zero diagonal (zero kernel, no penalty) leaves its residual entries unscaled
    inv_diag = np.divide(1.0, diag, out=np.ones_like(diag), where=diag > 0)
    del diag

    # lam folded into the frozen weights once per step (isotropic: wy is wx)
    wx *= lam
    if wy is not wx:
        wy *= lam

    def operator(buffers):
        lwx = wx.astype(buffers[0].dtype, copy=False)
        lwy = lwx if wy is wx else wy.astype(buffers[0].dtype, copy=False)
        return _lagged_operator(kernel, lwx, lwy, buffers)

    def preconditioner(buffers):
        inv = inv_diag.astype(buffers[0].dtype, copy=False)
        return lambda r: inv * r

    # every weight is at most 1 / alpha, and a pixel's diagonal entry adds
    # at most four of them to hth_diag
    diag_range = (hth_diag, hth_diag + 4.0 * lam / params.alpha)
    return _mixed_precision_cg(operator, preconditioner, lambda: convolve_adjoint(g, kernel), f_k,
                               cfg, [np.empty(f_k.shape) for _ in range(3)], diag_range)


def tv_restore_fixed_point(
    g: np.ndarray, kernel: Kernel, params: RestoreParams
) -> tuple[np.ndarray, SolveReport]:
    """TV restoration with a known blur kernel: solve ``[H^T H + lam
    L(f_k)] x = H^T g`` by `lagged_restore_step`, warm-started at ``f_k``,
    and step to the over-relaxed ``f_{k+1} = f_k + _RELAX * (x - f_k)``,
    from ``f_0 = g`` by `lagged_loop`, until the step norm drops below
    ``params.solver``'s outer tolerance or its iteration cap is reached.
    The report's ``step_norm_history`` holds the relaxed step norms
    ``||f_{k+1} - f_k||``, and the outer tolerance tests them.  A
    non-finite ``g`` raises `ValueError`.

    Each relaxed step descends the objective ``F`` of
    `functionals.tv_objective`.  Let ``Q_k`` be the quadratic that the
    lagged step minimizes: ``0.5 ||H f - g||^2`` plus ``lam`` times the
    tangent of each TV term ``sqrt(s)`` in its square ``s``, taken at
    ``f_k``.

    - Warm-started PCG's ``x`` minimizes ``Q_k`` over ``f_k`` plus a Krylov
      space that contains ``d = x - f_k``, so along the line ``f_k + t d``
      ``Q_k`` is a parabola with its minimum at ``t = 1``.
    - Hence ``Q_k(f_k + w d) <= Q_k(f_k) = F(f_k)`` for ``w`` in
      ``[0, 2]``, and ``Q_k >= F`` everywhere because ``sqrt`` is concave,
      so ``F(f_k + w d) <= F(f_k)``.
    - This needs no converged CG: it holds for a step stopped by the
      forcing term or by ``max_cg`` as well.

    A step whose CG ran no iteration is taken as it is, unrelaxed: that is
    CG's early return for ``H^T g = 0``, which returns zeros whatever
    ``f_k`` is, or a warm start already at the tolerance."""
    g = ensure_field(g)

    def step(f_k):
        x, cg_iters, cg_converged = lagged_restore_step(g, f_k, kernel, params)
        if cg_iters:
            # f_k + _RELAX * (x - f_k), in CG's own copy
            x -= f_k
            x *= _RELAX
            x += f_k
        return x, cg_iters, cg_converged

    def objective(f_next):
        return functionals.tv_objective(f_next, g, kernel, params.lam, params.alpha,
                                        params.variant)

    return lagged_loop(step, objective, g.copy(), params.solver)


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
    A non-finite ``g`` raises `ValueError`; `SolverDivergenceError` is
    raised if the result turns non-finite.
    """
    if not (0 < lam < np.inf and 0 < tau < np.inf):
        raise ValueError(f"lam and tau must be finite and positive, got {lam}, {tau}")
    if _check_count("steps", steps) < 0:
        raise ValueError("steps must be nonnegative")
    g = ensure_field(g)
    px = np.zeros_like(g)
    py = np.zeros_like(g)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = g / lam
        for _ in range(steps):
            gx, gy = gradient(divergence(VectorField(px, py)) - scaled)
            denom = 1.0 + tau * np.hypot(gx, gy)
            px = (px + tau * gx) / denom
            py = (py + tau * gy) / denom
        f = g - lam * divergence(VectorField(px, py))
    if not np.all(np.isfinite(f)):
        raise SolverDivergenceError("non-finite dual-projection estimate")
    return f
