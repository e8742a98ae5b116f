"""Variational optical flow between two frames.

Two smoothness models on the displacement field: an image-driven
anisotropic diffusion tensor built from the first frame's gradient
(smoothing along image edges, not across), and a flow-driven isotropic
TV penalty handled by lagged-nonlinearity outer iterations. Both reduce
to symmetric positive (semi-)definite linear systems in the stacked
(u, v) field, solved matrix-free by conjugate gradients.

Single linearization of brightness constancy: no warping or pyramid, so
displacements should stay around a pixel or less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from . import functionals, solvers
from .grid import VectorField, divergence, ensure_field, gradient, inner, pad_edge
from .solvers import SolverConfig, SolveReport


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
    TV weights finite (flow-driven).  The image-driven solve is one cold
    solve and ignores ``solver.forcing``.
    """

    lam: float = 0.1
    eps: float = 0.01
    variant: FlowVariant = FlowVariant.TV
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


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
    f = ensure_field(f)
    fp = pad_edge(f, 1, 1)
    fx = 0.5 * (fp[1:-1, 2:] - fp[1:-1, :-2])
    fy = 0.5 * (fp[2:, 1:-1] - fp[:-2, 1:-1])
    return VectorField(fx, fy)


def image_derivatives(pair: FramePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial derivatives (centered, on the frame average) and the
    two-point temporal derivative ft = f2 - f1."""
    avg = 0.5 * (pair.f1 + pair.f2)
    fx, fy = centered_gradient(avg)
    return fx, fy, pair.f2 - pair.f1


def displaced_frame_difference(pair: FramePair, w: VectorField) -> np.ndarray:
    """f2 sampled at (x+u, y+v) minus f1, the nonlinear brightness-constancy
    residual. Bilinear interpolation; out-of-range samples clamp to the
    border (replicate extension)."""
    h, wd = pair.shape
    u = np.asarray(w.u, dtype=np.float64)
    v = np.asarray(w.v, dtype=np.float64)
    if u.shape != (h, wd) or v.shape != (h, wd):
        raise ValueError("flow components must match the frame shape")
    jj, ii = np.meshgrid(np.arange(h), np.arange(wd), indexing="ij")
    x = np.clip(ii + u, 0.0, wd - 1.0)
    y = np.clip(jj + v, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    x1 = np.minimum(x0 + 1, wd - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    ax = x - x0
    ay = y - y0
    f2 = pair.f2
    top = (1.0 - ax) * f2[y0, x0] + ax * f2[y0, x1]
    bottom = (1.0 - ax) * f2[y1, x0] + ax * f2[y1, x1]
    return (1.0 - ay) * top + ay * bottom - pair.f1


def ofc_residual(
    fx: np.ndarray, fy: np.ndarray, ft: np.ndarray, w: VectorField
) -> np.ndarray:
    """Linearized brightness-constancy residual fx*u + fy*v + ft."""
    if not (fx.shape == fy.shape == ft.shape == w.u.shape == w.v.shape):
        raise ValueError("derivative and flow shapes must match")
    return fx * w.u + fy * w.v + ft


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


def apply_tensor_diffusion(tensor: DiffusionTensor, z: np.ndarray) -> np.ndarray:
    """div(D grad z) with the forward-difference gradient and its exact
    adjoint divergence. Linear, symmetric, negative semi-definite, zero on
    constants."""
    gx, gy = gradient(z)
    return divergence(
        VectorField(
            tensor.xx * gx + tensor.xy * gy,
            tensor.xy * gx + tensor.yy * gy,
        )
    )


def flow_smoothness_weights(w: VectorField, eps: float) -> np.ndarray:
    """Shared per-pixel TV weight 1/sqrt(|grad u|^2 + |grad v|^2 + eps^2).

    This is the isotropic diffusivity weight of `functionals.diffusion_weights`
    for the stacked (u, v) field, with ``eps`` as the smoothing ``alpha``.
    Always in (0, 1/eps]; feeding it to both channels of
    `functionals.apply_weighted_laplacian` gives the lagged TV operator
    coupling u and v through a common edge set.
    """
    return functionals.diffusion_weights(np.stack(w), eps)[0]


def _solve_linear_flow(fx, fy, ft, lam, apply_smooth, x0, cfg, forcing):
    """One CG solve of the coupled system

        [fx^2 + lam*S, fx*fy      ] [u]   [-fx*ft]
        [fx*fy,        fy^2 + lam*S] [v] = [-fy*ft]

    with S the (positive semi-definite) smoothness operator, on the
    stacked (2, H, W) unknown, stopped at `conjugate_gradient`'s
    ``forcing`` tolerance.  An overflow in the operator is left to CG's
    non-finite check, which raises `SolverDivergenceError`."""
    b = np.stack([-fx * ft, -fy * ft])

    def apply_A(wvec):
        u, v = wvec[0], wvec[1]
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf
            return np.stack(
                [
                    fx * fx * u + fx * fy * v + lam * apply_smooth(u),
                    fx * fy * u + fy * fy * v + lam * apply_smooth(v),
                ]
            )

    return solvers.conjugate_gradient(apply_A, b, x0=x0, cfg=cfg, forcing=forcing)


def flow_image_driven(
    pair: FramePair, params: FlowParams
) -> tuple[VectorField, SolveReport]:
    """Flow with the image-driven anisotropic smoothness term.

    Minimizes sum(OFC^2) + lam * sum(grad u . D grad u + grad v . D grad v)
    with D the diffusion tensor of frame 1; a single linear solve.
    """
    fx, fy, ft = image_derivatives(pair)
    tensor = diffusion_tensor(centered_gradient(pair.f1), params.eps)

    def apply_smooth(z):
        return -apply_tensor_diffusion(tensor, z)

    x0 = np.zeros((2,) + pair.shape)
    # one cold solve from zero flow (r0 = b): no forcing term
    wvec, cg_iters, cg_ok = _solve_linear_flow(
        fx, fy, ft, params.lam, apply_smooth, x0, params.solver, forcing=0.0
    )
    w = VectorField(wvec[0], wvec[1])
    r = ofc_residual(fx, fy, ft, w)
    energy = float(np.sum(r * r)) + params.lam * (
        inner(w.u, apply_smooth(w.u)) + inner(w.v, apply_smooth(w.v))
    )
    report = SolveReport(
        converged=cg_ok,
        objective_history=[energy],
        step_norm_history=[float(np.linalg.norm(wvec))],
        cg_iterations_total=cg_iters,
        cg_iters_history=[cg_iters],
        cg_converged_history=[cg_ok],
        forcing=0.0,
    )
    return w, report


def flow_tv(pair: FramePair, params: FlowParams) -> tuple[VectorField, SolveReport]:
    """Flow with the flow-driven isotropic TV smoothness term.

    Minimizes sum(OFC^2) + 2*lam * sum(sqrt(|grad u|^2 + |grad v|^2 + eps^2))
    by freezing the TV weights at the current iterate and solving the
    resulting linear system, starting from zero flow.
    """
    fx, fy, ft = image_derivatives(pair)

    def step(wvec):
        weights = flow_smoothness_weights(VectorField(wvec[0], wvec[1]), params.eps)

        def apply_smooth(z):
            return functionals.apply_weighted_laplacian(weights, weights, z)

        return _solve_linear_flow(fx, fy, ft, params.lam, apply_smooth, wvec, params.solver,
                                  forcing=params.solver.forcing)

    def objective(wvec):
        r = ofc_residual(fx, fy, ft, VectorField(wvec[0], wvec[1]))
        return float(np.sum(r * r)) + 2.0 * params.lam * functionals.tv_isotropic(
            wvec, params.eps
        )

    wvec, report = solvers.lagged_loop(
        step, objective, np.zeros((2,) + pair.shape), params.solver
    )
    return VectorField(wvec[0], wvec[1]), report


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
