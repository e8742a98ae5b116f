"""The four benchmark workloads: inputs from a seed, one job, its checks.

Each workload builds its inputs from tvkit's `synth` fixtures with noise
from `synth.gaussian_field(shape, seed)`, so the inputs are bit-identical
on any machine for a given seed.  A job calls tvkit's public API only; its
outcome carries the quality figures and the correctness checks (taken from
the acceptance tests 06, 08 and 09) that decide whether the job failed.

Requires ``tvkit`` to be importable (`perfbench.run` puts the checkout's
``src`` first on ``sys.path``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tvkit import flow, grid, restore, synth
from tvkit.flow import FlowParams, FlowVariant
from tvkit.grid import Kernel
from tvkit.restore import BlindParams, RestoreParams
from tvkit.solvers import SolverConfig

POOL = 4  # input sets per run; job k of a run uses set k % POOL
FLOW_EPS = 0.05
RAMP_EPE_LIMIT = 0.2
KERNEL_NCC_LIMIT = 0.9


@dataclass
class Outcome:
    """What one job produced: the reports of its solves, quality figures
    and named pass/fail checks."""

    reports: list = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def outer_iters(self) -> int:
        return sum(r.outer_iterations for r in self.reports)

    @property
    def cg_iters(self) -> int:
        return sum(r.cg_iterations_total for r in self.reports)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pixels_per_job: int  # pixels of every field solved for, summed over the job's solves
    make_inputs: Callable[[int], dict[str, np.ndarray]]
    solve: Callable[[dict[str, np.ndarray]], tuple]  # the timed job: tvkit calls only
    check: Callable[[dict[str, np.ndarray], tuple], Outcome]


def input_pool(workload: Workload, seed: int) -> list[dict[str, np.ndarray]]:
    """The POOL input sets of a run; set i is built from fixture seed
    ``seed * POOL + i``.  Cycling jobs through several sets keeps one
    fixture's iteration count (flow-128's varies by a fifth across seeds)
    from setting a run's job time."""
    return [workload.make_inputs(seed * POOL + i) for i in range(POOL)]


def digest(pool: list[dict[str, np.ndarray]]) -> str:
    """SHA-256 over every input array's name, shape, dtype and bytes."""
    h = hashlib.sha256()
    for inputs in pool:
        for name in sorted(inputs):
            a = np.ascontiguousarray(inputs[name])
            h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _piecewise64() -> np.ndarray:
    clean, _ = synth.make_piecewise64()
    return clean


def _rel_err(estimate, truth) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def _ncc(a, b) -> float:
    a, b = a.ravel(), b.ravel()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def _common_checks(out: Outcome, arrays) -> None:
    out.checks["finite"] = all(bool(np.all(np.isfinite(a))) for a in arrays)
    # objective_monotone: each objective value within solvers.DESCENT_SLACK (1e-9)
    # of the previous one
    out.checks["objective_descends"] = all(r.objective_monotone for r in out.reports)


def _image_quality(out: Outcome, estimate, observed, clean) -> None:
    out.quality["psnr_db"] = restore.psnr(estimate, clean)
    out.quality["rel_err"] = _rel_err(estimate, clean)
    out.checks["psnr_improves"] = out.quality["psnr_db"] > restore.psnr(observed, clean)


# --- denoise-256 ------------------------------------------------------------

def _denoise_inputs(seed):
    clean = np.kron(_piecewise64(), np.ones((4, 4)))
    return {"clean": clean, "observed": clean + 0.05 * synth.gaussian_field(clean.shape, seed)}


def _denoise_solve(inputs):
    return restore.tv_denoise(inputs["observed"], RestoreParams(lam=0.05))


def _image_check(inputs, result):
    f, report = result
    out = Outcome(reports=[report])
    _image_quality(out, f, inputs["observed"], inputs["clean"])
    _common_checks(out, [f])
    return out


# --- deconv-64 --------------------------------------------------------------

DECONV_KERNEL = Kernel.gaussian(5, 1.0)


def _deconv_inputs(seed):
    clean = _piecewise64()
    blurred = grid.convolve(clean, DECONV_KERNEL)
    return {"clean": clean, "observed": blurred + 0.01 * synth.gaussian_field(clean.shape, seed)}


def _deconv_solve(inputs):
    return restore.tv_deconvolve(inputs["observed"], DECONV_KERNEL, RestoreParams(lam=0.01))


# --- blind-64 ---------------------------------------------------------------

BLIND_TRUE_KERNEL = Kernel.motion_horizontal(3)
BLIND_PARAMS = BlindParams(lam_image=3e-3, lam_kernel=0.5, kernel_size=3,
                           solver=SolverConfig(max_outer=60))


def _blind_inputs(seed):
    clean = _piecewise64()
    blurred = grid.convolve(clean, BLIND_TRUE_KERNEL)
    return {"clean": clean, "observed": blurred + 0.005 * synth.gaussian_field(clean.shape, seed)}


def _blind_solve(inputs):
    return restore.blind_deconvolve(inputs["observed"], BLIND_PARAMS)


def _blind_check(inputs, result):
    f, khat, report = result
    k, ktrue = khat.weights, BLIND_TRUE_KERNEL.weights
    out = Outcome(reports=[report])
    _image_quality(out, f, inputs["observed"], inputs["clean"])
    out.quality["kernel_ncc"] = _ncc(k, ktrue)
    # mean over the job's two estimates, image and kernel
    out.quality["rel_err"] = 0.5 * (out.quality["rel_err"] + _rel_err(k, ktrue))
    out.checks["kernel_nonnegative"] = bool(k.min() >= 0.0)
    out.checks["kernel_unit_sum"] = abs(float(k.sum()) - 1.0) <= 1e-12
    out.checks["kernel_ncc"] = out.quality["kernel_ncc"] >= KERNEL_NCC_LIMIT
    _common_checks(out, [f, k])
    return out


# --- flow-128 ---------------------------------------------------------------

FLOW_SIZE = 128
FLOW_SOLVES = (
    # (scene, variant, lam): the four solves of scripts/flow_compare.py
    ("ramp", FlowVariant.IMAGE_DRIVEN, 0.1),
    ("ramp", FlowVariant.TV, 0.003),
    ("split", FlowVariant.IMAGE_DRIVEN, 0.003),
    ("split", FlowVariant.TV, 0.003),
)


def _flow_inputs(seed):
    inputs = {}
    for scene, make in (("ramp", synth.make_ramp_shift), ("split", synth.make_split_motion)):
        pair, gt = make(seed, FLOW_SIZE)
        inputs.update({f"{scene}.f1": pair.f1, f"{scene}.f2": pair.f2,
                       f"{scene}.gt_u": gt.u, f"{scene}.gt_v": gt.v})
    return inputs


def _boundary_width(w) -> int:
    """Pixels whose u has not settled on an integer displacement."""
    return int(np.count_nonzero(np.abs(w.u - np.round(w.u)) > 0.25))


def _flow_solve(inputs):
    return tuple(
        flow.estimate_flow(
            flow.FramePair(inputs[f"{scene}.f1"], inputs[f"{scene}.f2"]),
            FlowParams(lam=lam, eps=FLOW_EPS, variant=variant),
        )
        for scene, variant, lam in FLOW_SOLVES
    )


def _flow_check(inputs, result):
    out = Outcome()
    epe, rel, fields = {}, [], []
    widths = {}
    for (scene, variant, _), (w, report) in zip(FLOW_SOLVES, result):
        gt = flow.VectorField(inputs[f"{scene}.gt_u"], inputs[f"{scene}.gt_v"])
        out.reports.append(report)
        fields += [w.u, w.v]
        epe[scene, variant] = flow.endpoint_error(w, gt)[0]
        rel.append(float(np.sqrt(np.sum((w.u - gt.u) ** 2 + (w.v - gt.v) ** 2)
                                 / np.sum(gt.u ** 2 + gt.v ** 2))))
        if scene == "split":
            widths[variant] = _boundary_width(w)
    an, tv = FlowVariant.IMAGE_DRIVEN, FlowVariant.TV
    out.quality["epe_mean"] = float(np.mean(list(epe.values())))
    out.quality["rel_err"] = float(np.mean(rel))
    out.checks["ramp_epe_an"] = epe["ramp", an] <= RAMP_EPE_LIMIT
    out.checks["ramp_epe_tv"] = epe["ramp", tv] <= RAMP_EPE_LIMIT
    # The boundary-width comparison of acceptance test 09 is recorded, not
    # gated: on some fixture phases (seed 1 at 128x128) TV's boundary is wider
    # than AN's even when the TV solve is run to tol_outer=1e-4, so it is a
    # property of the fixture, not of the solver.  TV's lower error on the
    # split scene held on every seed tried and is the gate.
    out.checks["split_tv_beats_an"] = epe["split", tv] < epe["split", an]
    out.notes["split_width_an"] = widths[an]
    out.notes["split_width_tv"] = widths[tv]
    _common_checks(out, fields)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "denoise-256",
            "identity kernel: CG time goes to the weighted Laplacian, gradient/divergence and "
            "vector arithmetic; the only working set (~5 MB) larger than L2",
            256 * 256, _denoise_inputs, _denoise_solve, _image_check,
        ),
        Workload(
            "deconv-64",
            "25-tap convolve/convolve_adjoint take ~90% of the time on cache-resident 32 KB "
            "arrays; where a stencil or convolution change shows",
            64 * 64, _deconv_inputs, _deconv_solve, _image_check,
        ),
        Workload(
            "blind-64",
            "the kernel changes on each of ~29 alternations, so per-kernel set-up is paid "
            "again; the only workload that runs the kernel step",
            64 * 64, _blind_inputs, _blind_solve, _blind_check,
        ),
        Workload(
            "flow-128",
            "no convolution at all, so it is the control for grid.convolve changes; stresses "
            "stacked (2,H,W) CG vectors and tensor diffusion",
            len(FLOW_SOLVES) * FLOW_SIZE * FLOW_SIZE, _flow_inputs, _flow_solve, _flow_check,
        ),
    )
}
