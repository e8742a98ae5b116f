"""Variational optical flow between two frames.

Two smoothness models on the displacement field: an image-driven
anisotropic diffusion tensor built from the first frame's gradient
(smoothing along image edges, not across), and a flow-driven isotropic
TV penalty handled by lagged-nonlinearity outer iterations. Both reduce
to symmetric positive (semi-)definite linear systems in the stacked
(u, v) field, solved matrix-free by preconditioned conjugate gradients
inside `solvers.lagged_loop`; the image-driven system does not depend on
the flow, so its solve is a single step.  Each step's CG runs in float32
sweeps on float64 residuals (`solvers._mixed_precision_cg`).

Where the data term vanishes (flat regions, and along edges by the
aperture problem) smoothness is the only constraint, and plain CG spends
most of its iterations on smooth, low-frequency modes that no pointwise
preconditioner reaches.  `_lagged_flow` therefore adds to the Jacobi step
a correction on the lowest cosine modes of the grid (see
`_flow_preconditioner`), the Fourier-type coarse correction that
variational flow solvers use (Bruhn et al., IEEE TIP 2005).

Single linearization of brightness constancy: no warping or pyramid, so
displacements should stay around a pixel or less.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import functionals, solvers
from .grid import VectorField, divergence, ensure_field, gradient, inner, pad_edge
from .solvers import SolverConfig, SolveReport, SolverDivergenceError

# cosine modes per axis in the coarse correction of the flow preconditioner
_COARSE = 32


class FlowVariant(Enum):
    """Smoothness model: image-driven anisotropic or flow-driven TV."""

    IMAGE_DRIVEN = "an"
    TV = "tv"


@dataclass
class FramePair:
    """Two consecutive grayscale frames of equal shape."""

    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        self.f1 = ensure_field(self.f1)
        self.f2 = ensure_field(self.f2)
        if self.f1.shape != self.f2.shape:
            raise ValueError(
                f"frame shapes differ: {self.f1.shape} vs {self.f2.shape}"
            )

    @property
    def shape(self):
        return self.f1.shape


@dataclass
class FlowParams:
    """Knobs for the flow estimators.

    ``eps`` keeps the diffusion tensor nonsingular (image-driven) and the
    TV weights finite (flow-driven).  The image-driven solve is one lagged
    step solved to ``solver.tol_cg``: it ignores ``solver.forcing`` and
    ``solver.max_outer``, and its float32 sweeps each reduce the float64
    residual by 1e-2 until the last reaches ``tol_cg``.  Every lagged step
    of either variant solves in float32 sweeps (`_lagged_flow`).  A
    ``lam``, ``eps`` or frame scale that overflows a lagged step raises
    `solvers.SolverDivergenceError` with the report.
    ``variant`` may be given by its value (``"an"``, ``"tv"``); any other
    raises ``ValueError``.
    """

    lam: float = 0.1
    eps: float = 0.01
    variant: FlowVariant = FlowVariant.TV
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        self.variant = FlowVariant(self.variant)


class DiffusionTensor(NamedTuple):
    """Per-pixel symmetric 2x2 field [[xx, xy], [xy, yy]]."""

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray


def centered_gradient(f: np.ndarray) -> VectorField:
    """Centered-difference gradient with replicate boundary.

    Distinct from `grid.gradient` (forward differences): this is the
    stencil for the data-term derivatives, where one-sided bias would
    shift the flow estimate by half a pixel.
    """
    return _centered_differences(ensure_field(f))


def _centered_differences(f: np.ndarray) -> VectorField:
    fp = pad_edge(f, 1, 1)
    fx = 0.5 * (fp[1:-1, 2:] - fp[1:-1, :-2])
    fy = 0.5 * (fp[2:, 1:-1] - fp[:-2, 1:-1])
    return VectorField(fx, fy)


def image_derivatives(pair: FramePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial derivatives (centered, on the frame average) and the
    two-point temporal derivative ft = f2 - f1.  The frames are finite, but
    the average or ft of frames near the float maximum overflows: such
    derivatives are non-finite, and the CG solve they feed raises
    `solvers.SolverDivergenceError`."""
    fx, fy = _centered_differences(0.5 * (pair.f1 + pair.f2))
    return fx, fy, pair.f2 - pair.f1


def ofc_residual(
    fx: np.ndarray, fy: np.ndarray, ft: np.ndarray, w: VectorField | np.ndarray
) -> np.ndarray:
    """Linearized brightness-constancy residual fx*u + fy*v + ft, for a
    `VectorField` ``w`` or the stacked (2, H, W) array of (u, v)."""
    u, v = w
    if not (fx.shape == fy.shape == ft.shape == u.shape == v.shape):
        raise ValueError("derivative and flow shapes must match")
    return fx * u + fy * v + ft


def diffusion_tensor(fgrad: VectorField, eps: float) -> DiffusionTensor:
    """Edge-steering tensor from an image gradient:

        D = [[fy^2 + eps^2, -fx*fy], [-fx*fy, fx^2 + eps^2]] / (|grad|^2 + 2 eps^2)

    Unit trace per pixel; the large eigenvalue's eigenvector runs
    perpendicular to the gradient, so diffusion hugs edges instead of
    crossing them. eps > 0 keeps it positive definite in flat regions.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    fx = np.asarray(fgrad.u, dtype=np.float64)
    fy = np.asarray(fgrad.v, dtype=np.float64)
    e2 = eps * eps
    denom = fx * fx + fy * fy + 2.0 * e2
    return DiffusionTensor(
        xx=(fy * fy + e2) / denom,
        xy=-(fx * fy) / denom,
        yy=(fx * fx + e2) / denom,
    )


def apply_tensor_diffusion(
    tensor: DiffusionTensor,
    z: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """div(D grad z) with the forward-difference gradient and its exact
    adjoint divergence. Linear, symmetric, negative semi-definite, zero on
    constants.  The tensor broadcasts over the leading axes of a stacked
    ``z``.  ``out`` (shaped like ``z``) receives the result and is
    returned; ``work``, three more arrays shaped like ``z``, holds the
    gradient and the flux.  Without them the call allocates all four."""
    if out is None:
        out = np.empty(np.shape(z))
    gx, gy, py = _buffers(3, np.shape(z)) if work is None else work
    gradient(z, out=(gx, gy))
    # the flux px = xx*gx + xy*gy (into gx) and py = xy*gx + yy*gy, each
    # sum in that order; out holds xy*gy until the divergence overwrites it
    np.multiply(tensor.xy, gx, out=py)
    gx *= tensor.xx
    np.multiply(tensor.xy, gy, out=out)
    gx += out
    gy *= tensor.yy
    py += gy
    return divergence(VectorField(gx, py), out=out)


def tensor_diffusion_diagonal(tensor: DiffusionTensor) -> np.ndarray:
    """Diagonal of the `apply_tensor_diffusion` operator (nonpositive).

    Its negation, the diagonal of ``-div(D grad)``, is the weighted
    Laplacian's diagonal for the weights ``xx`` and ``yy``, plus ``2 xy``
    where both forward differences of a pixel exist (all but the last row
    and column): there the pixel enters both with coefficient -1.
    """
    d = functionals.weighted_laplacian_diagonal(tensor.xx, tensor.yy)
    d[..., :-1, :-1] += 2.0 * tensor.xy[..., :-1, :-1]
    return np.negative(d, out=d)


def flow_smoothness_weights(w: VectorField | np.ndarray, eps: float) -> np.ndarray:
    """Shared per-pixel TV weight 1/sqrt(|grad u|^2 + |grad v|^2 + eps^2),
    for a `VectorField` ``w`` or the stacked (2, H, W) array of (u, v).

    This is the isotropic diffusivity weight of `functionals.diffusion_weights`
    for the stacked (u, v) field, with ``eps`` as the smoothing ``alpha``.
    Always in (0, 1/eps]; feeding it to both channels of
    `functionals.apply_weighted_laplacian` gives the lagged TV operator
    coupling u and v through a common edge set.
    """
    return functionals.diffusion_weights(np.asarray(w), eps)[0]


def _lagged_flow(pair, cfg, smoothing, penalty, n_work):
    """`solvers.lagged_loop` from zero flow on the coupled system

        [fx^2 + lam*S, fx*fy      ] [u]   [-fx*ft]
        [fx*fy,        fy^2 + lam*S] [v] = [-fy*ft]

    on the stacked (2, H, W) unknown, each step a CG solve under ``cfg``
    from the current flow, with the smoothing ``lam * S`` (S positive
    semi-definite) frozen there by ``smoothing(w)``.  That returns
    ``(smooth, diag)``: ``smooth(dtype)`` is ``lam * S`` on operands of
    ``dtype``, a function ``(z, out=, work=)`` that writes ``lam * S z`` for
    the whole stacked ``z`` into ``out``, and ``diag`` (H, W) is ``lam *
    diag(S)``.  The function gets the solve's ``n_work >= 2`` (2, H, W)
    work arrays, which the data rows reuse after it; every CG iteration
    writes ``A w`` into one buffer of its step, so no iteration allocates a
    field.  Each step's CG is preconditioned by `_flow_preconditioner`,
    built from the stacked ``(fx^2, fy^2)`` and ``diag``; it writes into the
    first two work arrays, which ``apply_A`` overwrites only after CG has
    read them.

    Each step is one `solvers._mixed_precision_cg` solve: float64 residuals
    and float32 CG sweeps, on float32 copies of the data terms, of the
    smoothing's operands and of the preconditioner's, writing into float32
    views of the same buffers.  A TV step under a forcing term of 1e-2 or
    more takes one sweep; the image-driven solve (no forcing) takes a few.
    A Jacobi diagonal outside `solvers._F32_SAFE`, or not finite, keeps
    the step in float64.

    The objective is the squared OFC residual plus ``penalty(w)``.  The
    frame derivatives and the data terms (the data rows, their float32
    copies and the right-hand side) are formed once per solve, in the
    first step, where an overflow ends as `lagged_loop`'s
    `SolverDivergenceError`; the objective reuses the derivatives."""
    derivatives = cache(lambda: image_derivatives(pair))
    work = _buffers(n_work, (2,) + pair.shape)

    @cache
    def data_terms():
        # the data rows, b and the range of the data diagonal do not
        # depend on the flow: formed once, in the first step
        fx, fy, ft = derivatives()
        dd = np.stack([fx * fx, fy * fy])
        return dd, fx * fy, np.stack([-fx * ft, -fy * ft]), float(dd.min()), float(dd.max())

    data32 = cache(lambda: tuple(a.astype(np.float32) for a in data_terms()[:2]))

    def step(wvec):
        dd, fxy, b, dd_min, dd_max = data_terms()
        smooth, lam_diag = smoothing(wvec)

        def operator(buffers):
            Aw, *wk = buffers
            data, cross = (dd, fxy) if Aw.dtype == np.float64 else data32()
            apply_smooth = smooth(Aw.dtype)
            tu, tv = wk[0], wk[1]

            def apply_A(z):
                apply_smooth(z, out=Aw, work=wk)
                # row 0 is (fx^2 u + fx fy v) + lam S u, row 1 (fy^2 v + fx fy u) + lam S v
                np.multiply(data, z, out=tu)
                np.multiply(cross, z[::-1], out=tv)
                np.add(tu, tv, out=tu)
                return np.add(Aw, tu, out=Aw)

            return apply_A

        def preconditioner(buffers):
            return _flow_preconditioner(dd, lam_diag, out=buffers[1:3])

        # each Jacobi entry fx^2 + lam_diag (or fy^2 + lam_diag) lies
        # between the sums of the two parts' minima and maxima
        diag_range = (dd_min + float(lam_diag.min()), dd_max + float(lam_diag.max()))
        return solvers._mixed_precision_cg(operator, preconditioner, lambda: b, wvec, cfg,
                                           [np.empty(dd.shape)] + work, diag_range)

    def objective(wvec):
        r = ofc_residual(*derivatives(), wvec)
        return float(np.sum(r * r)) + penalty(wvec)

    # zero flow as a read-only view that holds no memory: the solve copies its start
    zero = np.broadcast_to(0.0, (2,) + pair.shape)
    wvec, report = solvers.lagged_loop(step, objective, zero, cfg)
    return VectorField(*wvec), report


@cache
def _cosine_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``min(n, _COARSE)`` orthonormal DCT-II modes of length
    ``n``, one per row, and their eigenvalues ``2 - 2 cos(pi k / n)`` under
    ``-divergence(gradient(.))`` along one axis (the second difference with
    the replicate boundary).  Cached per length, read-only."""
    k = np.arange(min(n, _COARSE))
    modes = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(k, np.arange(n) + 0.5))
    modes[0] *= np.sqrt(0.5)
    eigenvalues = 2.0 - 2.0 * np.cos(np.pi / n * k)
    modes.flags.writeable = eigenvalues.flags.writeable = False
    return modes, eigenvalues


def _flow_preconditioner(data_diag, lam_diag, out):
    """An SPD approximation of the inverse of the flow system with the
    stacked data diagonals ``data_diag`` ((2, H, W): ``fx^2`` and ``fy^2``)
    and the diagonal ``lam_diag`` ((H, W)) of the smoothing ``lam * S``: the
    Jacobi step plus a correction on the lowest cosine modes,

        z = r / diag + Cy^T [(Cy r Cx^T) o W] Cx

    per channel, with ``diag`` the Jacobi diagonal ``data_diag + lam_diag``
    and ``Cy``, ``Cx`` the `_cosine_modes` of each axis.  On those modes the
    system is modelled with constant coefficients, as ``c + mu (e_k +
    e_l)`` with ``c`` the mean data diagonal and ``mu`` a quarter of the
    mean of ``lam_diag`` (an interior Laplacian diagonal is 4 times its
    weight); ``W`` adds what Jacobi misses there, ``max(1 / (c + mu (e_k +
    e_l)) - 1 / mean(diag), 0)``, where ``mean(diag) = c + 4 mu``.  ``W >=
    0``, so the sum stays SPD.  A zero diagonal entry leaves its residual
    entry unscaled; a zero operator gets no correction.  A non-finite
    diagonal raises `SolverDivergenceError`.  The returned function writes
    ``z`` into ``out[0]`` and the prolonged correction into ``out[1]``
    ((2, H, W) arrays) and returns ``out[0]``; it computes in their dtype,
    float32 or float64, on copies of its operands cast once from the float64
    ones formed here."""
    c = float(np.mean(data_diag))
    mu = 0.25 * float(np.mean(lam_diag))
    diag = data_diag + lam_diag
    if not (np.all(np.isfinite(diag)) and np.isfinite(c + 4.0 * mu)):
        raise SolverDivergenceError("non-finite Jacobi diagonal")
    inv_diag = np.divide(1.0, diag, out=np.ones_like(diag), where=diag > 0)
    (cy, ey), (cx, ex) = map(_cosine_modes, lam_diag.shape)
    e = ey[:, None] + ex
    # 1 / (c + mu e) - 1 / (c + 4 mu) over one denominator, which is zero
    # only for the zero operator
    denom = (c + mu * e) * (c + 4.0 * mu)
    weight = np.divide(mu * np.maximum(4.0 - e, 0.0), denom, out=np.zeros_like(e),
                       where=denom > 0)
    z, fine = out
    inv_diag, cy, cx, weight = (a.astype(z.dtype, copy=False)
                                for a in (inv_diag, cy, cx, weight))

    def precond(r):
        np.multiply(inv_diag, r, out=z)
        coarse = cy @ (r @ cx.T)
        coarse *= weight
        np.matmul(cy.T @ coarse, cx, out=fine)
        return np.add(z, fine, out=z)

    return precond


def _buffers(count: int, shape: tuple[int, ...]) -> list[np.ndarray]:
    """``count`` uninitialized arrays of ``shape``, allocated one by one:
    glibc raises its mmap and trim thresholds to the largest block freed,
    so one stacked block, larger than any other array of a solve, left the
    heap holding more memory (about 0.8 MB more peak RSS on flow-128)."""
    return [np.empty(shape) for _ in range(count)]


def flow_image_driven(
    pair: FramePair, params: FlowParams
) -> tuple[VectorField, SolveReport]:
    """Flow with the image-driven anisotropic smoothness term.

    Minimizes sum(OFC^2) + lam * sum(grad u . D grad u + grad v . D grad v)
    with D the diffusion tensor of frame 1.  The system does not depend on
    the flow, so the solve is one lagged step from zero flow, solved to
    ``tol_cg`` by CG with `_lagged_flow`'s preconditioner, and it converged
    when that step's CG did.  The smoothing ``lam * S``, with ``S =
    -div(D grad)``, is the tensor diffusion of ``-lam * D``, and its diagonal
    that tensor's `tensor_diffusion_diagonal`.
    """
    # -lam D, built by the step under `lagged_loop`'s overflow policy; the penalty reuses it
    tensor = cache(lambda: DiffusionTensor(*(
        np.multiply(a, -params.lam, out=a)
        for a in diffusion_tensor(centered_gradient(pair.f1), params.eps))))

    def penalty(wvec):
        s = apply_tensor_diffusion(tensor(), wvec)  # lam S u and lam S v
        return inner(wvec[0], s[0]) + inner(wvec[1], s[1])

    def smoothing(wvec):
        def smooth(dtype):
            cast = DiffusionTensor(*(a.astype(dtype, copy=False) for a in tensor()))
            return partial(apply_tensor_diffusion, cast)

        return smooth, tensor_diffusion_diagonal(tensor())

    w, report = _lagged_flow(pair, replace(params.solver, max_outer=1, forcing=0.0),
                             smoothing, penalty, n_work=3)
    report.converged = report.cg_converged_history[0]
    return w, report


def flow_tv(pair: FramePair, params: FlowParams) -> tuple[VectorField, SolveReport]:
    """Flow with the flow-driven isotropic TV smoothness term.

    Minimizes sum(OFC^2) + 2*lam * sum(sqrt(|grad u|^2 + |grad v|^2 + eps^2))
    by freezing the TV weights at the current iterate and solving the
    resulting linear system by `_lagged_flow`'s preconditioned CG, starting
    from zero flow.
    """
    def smoothing(wvec):
        weights = params.lam * flow_smoothness_weights(wvec, params.eps)

        def smooth(dtype):
            cast = weights.astype(dtype, copy=False)
            return partial(functionals.apply_weighted_laplacian, cast, cast)

        return smooth, functionals.weighted_laplacian_diagonal(weights, weights)

    def penalty(wvec):
        return 2.0 * params.lam * functionals.tv_isotropic(wvec, params.eps)

    return _lagged_flow(pair, params.solver, smoothing, penalty, n_work=2)


def estimate_flow(pair: FramePair, params: FlowParams) -> tuple[VectorField, SolveReport]:
    """Dispatch on ``params.variant``."""
    if params.variant is FlowVariant.IMAGE_DRIVEN:
        return flow_image_driven(pair, params)
    if params.variant is FlowVariant.TV:
        return flow_tv(pair, params)
    raise ValueError(f"unknown flow variant {params.variant!r}")


def endpoint_error(w: VectorField, gt: VectorField) -> tuple[float, float]:
    """Mean and max of the per-pixel distance between flow fields."""
    if w.u.shape != gt.u.shape or w.v.shape != gt.v.shape:
        raise ValueError("flow shapes must match")
    dist = np.hypot(w.u - gt.u, w.v - gt.v)
    return float(dist.mean()), float(dist.max())
