"""Batch command line front end.

Subcommands: denoise, deconv, blind, flow, metrics, synth. Every solve
writes its result file plus a CSV convergence report beside it (same
name, .csv suffix) and prints machine-readable key=value lines. Exit
status: 0 success, 1 usage or input errors, 2 solver failure (with the
report flushed up to the failure point).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import fileio, functionals, restore, synth
from .fileio import read_flo, read_pgm, write_flo, write_pgm, write_report
from .flow import FlowParams, FlowVariant, FramePair, endpoint_error, estimate_flow
from .functionals import TVVariant
from .grid import Kernel, VectorField
from .restore import BlindParams, RestoreParams
from .solvers import SolverConfig, SolverDivergenceError

SYNTH_MAXVAL = 65535


@dataclass
class JobSpec:
    """One batch job, fully determined by flags (plus file contents)."""

    command: str
    input: Optional[Path] = None
    input2: Optional[Path] = None
    output: Optional[Path] = None
    kernel_out: Optional[Path] = None
    ref: Optional[Path] = None
    gt: Optional[Path] = None
    psf: Optional[str] = None
    init_psf: Optional[str] = None
    lam: float = 0.05
    lam_kernel: float = 1e-3
    alpha: float = functionals.DEFAULT_ALPHA
    eps: float = 0.01
    variant: str = "iso"
    kernel_size: int = 3
    max_iter: int = 50
    tol: Optional[float] = None
    seed: int = 0
    sigma: float = 0.05
    maxval: int = 255
    peak: float = 1.0
    fixture: Optional[str] = None
    outdir: Optional[Path] = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in vars(args).items() if k in known})


def parse_kernel(spec: str) -> Kernel:
    """Kernel from a flag value: a named form (``delta``, ``box3``,
    ``binomial3``, ``gaussian:SIZE:SIGMA``, ``motion-h:SIZE``,
    ``motion-v:SIZE``) or ``@path`` to an ASCII grid of weights."""
    if spec.startswith("@"):
        return read_kernel_text(spec[1:])
    name, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if name == "delta":
            return Kernel.delta(int(parts[0]) if parts else 1)
        if name == "box3":
            return Kernel.box(3)
        if name == "box":
            return Kernel.box(int(parts[0]) if parts else 3)
        if name == "binomial3":
            return Kernel.binomial3()
        if name == "gaussian":
            size = int(parts[0]) if parts else 3
            sigma = float(parts[1]) if len(parts) > 1 else 0.8
            return Kernel.gaussian(size, sigma)
        if name == "motion-h":
            return Kernel.motion_horizontal(int(parts[0]) if parts else 3)
        if name == "motion-v":
            return Kernel.motion_vertical(int(parts[0]) if parts else 3)
    except (IndexError, ValueError) as err:
        raise ValueError(f"bad kernel spec {spec!r}: {err}") from None
    raise ValueError(f"unknown kernel {spec!r}")


def read_kernel_text(path) -> Kernel:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([float(tok) for tok in line.split()])
    if not rows:
        raise ValueError(f"no kernel weights in {path}")
    return Kernel(np.array(rows, dtype=np.float64))


def write_kernel_text(path, kernel: Kernel) -> None:
    lines = [" ".join(repr(float(w)) for w in row) for row in kernel.weights]
    Path(path).write_text("\n".join(lines) + "\n")


def _solver_config(job: JobSpec) -> SolverConfig:
    return SolverConfig(tol_outer=job.tol, max_outer=job.max_iter)


def _tv_variant(name: str) -> TVVariant:
    try:
        return TVVariant(name)
    except ValueError:
        raise ValueError(f"unknown TV variant {name!r} (expected iso or aniso)") from None


def _report_path(output: Path) -> Path:
    return output.with_suffix(".csv")


def _print_metrics(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}")


def _finish_image_job(job: JobSpec, f, report, g, started) -> int:
    write_pgm(job.output, f, maxval=job.maxval)
    write_report(_report_path(job.output), report)
    metrics = [("objective", report.objective_history[-1] if report.objective_history else float("nan"))]
    if job.ref is not None:
        reference = read_pgm(job.ref)
        metrics.append(("psnr", restore.psnr(f, reference, peak=job.peak)))
    metrics.append(("wall_time_s", time.perf_counter() - started))
    _print_metrics(metrics)
    return 0


def _run_restore(job: JobSpec) -> int:
    """denoise and deconv: denoising is deconvolution with the delta kernel."""
    started = time.perf_counter()
    g = read_pgm(job.input)
    kernel = parse_kernel(job.psf or "delta")
    params = RestoreParams(
        lam=job.lam,
        alpha=job.alpha,
        variant=_tv_variant(job.variant),
        solver=_solver_config(job),
    )
    f, report = restore.tv_deconvolve(g, kernel, params)
    return _finish_image_job(job, f, report, g, started)


def _run_blind(job: JobSpec) -> int:
    started = time.perf_counter()
    g = read_pgm(job.input)
    kernel0 = parse_kernel(job.init_psf) if job.init_psf else None
    params = BlindParams(
        lam_image=job.lam,
        lam_kernel=job.lam_kernel,
        kernel_size=job.kernel_size,
        alpha=job.alpha,
        solver=_solver_config(job),
    )
    f, kernel, report = restore.blind_deconvolve(g, params, kernel0=kernel0)
    if job.kernel_out is not None:
        write_kernel_text(job.kernel_out, kernel)
    return _finish_image_job(job, f, report, g, started)


def _run_flow(job: JobSpec) -> int:
    started = time.perf_counter()
    pair = FramePair(read_pgm(job.input), read_pgm(job.input2))
    try:
        variant = FlowVariant(job.variant)
    except ValueError:
        raise ValueError(
            f"unknown flow variant {job.variant!r} (expected an or tv)"
        ) from None
    params = FlowParams(
        lam=job.lam, eps=job.eps, variant=variant, solver=_solver_config(job)
    )
    w, report = estimate_flow(pair, params)
    write_flo(job.output, w)
    write_report(_report_path(job.output), report)
    metrics = [("objective", report.objective_history[-1])]
    if job.gt is not None:
        gt = read_flo(job.gt)
        epe_mean, epe_max = endpoint_error(w, gt)
        metrics.extend([("epe_mean", epe_mean), ("epe_max", epe_max)])
    metrics.append(("wall_time_s", time.perf_counter() - started))
    _print_metrics(metrics)
    return 0


def _run_metrics(job: JobSpec) -> int:
    f = read_pgm(job.input)
    reference = read_pgm(job.ref)
    _print_metrics([("psnr", restore.psnr(f, reference, peak=job.peak))])
    return 0


def _run_synth(job: JobSpec) -> int:
    outdir = job.outdir or Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if job.fixture == "step32":
        clean, noisy = synth.make_step32(job.seed, job.sigma)
        written += _write_image_pair(outdir, "step32", clean, noisy)
    elif job.fixture == "piecewise64":
        clean, noisy = synth.make_piecewise64(job.seed, job.sigma)
        written += _write_image_pair(outdir, "piecewise64", clean, noisy)
    elif job.fixture == "ramp-shift":
        pair, gt = synth.make_ramp_shift(job.seed)
        written += _write_flow_fixture(outdir, "ramp_shift", pair, gt)
    elif job.fixture == "split-motion":
        pair, gt = synth.make_split_motion(job.seed)
        written += _write_flow_fixture(outdir, "split_motion", pair, gt)
    else:
        raise ValueError(f"unknown fixture {job.fixture!r}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _write_image_pair(outdir: Path, stem: str, clean, noisy):
    paths = [outdir / f"{stem}_clean.pgm", outdir / f"{stem}_noisy.pgm"]
    write_pgm(paths[0], clean, maxval=SYNTH_MAXVAL)
    write_pgm(paths[1], noisy, maxval=SYNTH_MAXVAL)
    return paths


def _write_flow_fixture(outdir: Path, stem: str, pair: FramePair, gt: VectorField):
    paths = [
        outdir / f"{stem}_f1.pgm",
        outdir / f"{stem}_f2.pgm",
        outdir / f"{stem}_gt.flo",
    ]
    write_pgm(paths[0], pair.f1, maxval=SYNTH_MAXVAL)
    write_pgm(paths[1], pair.f2, maxval=SYNTH_MAXVAL)
    write_flo(paths[2], gt)
    return paths


def _flush_partial(job: JobSpec, err) -> None:
    """Write whatever convergence history exists before failing."""
    report = getattr(err, "report", None)
    if report is not None and job.output is not None:
        try:
            write_report(_report_path(job.output), report)
        except OSError:
            pass


_COMMANDS = {
    "denoise": _run_restore,
    "deconv": _run_restore,
    "blind": _run_blind,
    "flow": _run_flow,
    "metrics": _run_metrics,
    "synth": _run_synth,
}


def run(job: JobSpec) -> int:
    """Execute one job; returns the process exit status.  A solver failure
    flushes the partial convergence report before it propagates."""
    handler = _COMMANDS.get(job.command)
    if handler is None:
        raise ValueError(f"unknown command {job.command!r}")
    try:
        return handler(job)
    except (SolverDivergenceError, restore.DegenerateKernelError) as err:
        _flush_partial(job, err)
        raise


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=50, help="outer iteration cap")
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="outer step-norm tolerance (default scales with image size)",
    )


def _add_image_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ref", type=Path, default=None, help="reference image for PSNR")
    p.add_argument("--maxval", type=int, default=255, help="output PGM maxval")
    p.add_argument("--peak", type=float, default=1.0, help="PSNR peak value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvkit",
        description="Total-variation image restoration and optical flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="TV denoising")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--alpha", type=float, default=functionals.DEFAULT_ALPHA)
    p.add_argument("--variant", choices=["iso", "aniso"], default="iso")
    _add_solver_flags(p)
    _add_image_flags(p)

    p = sub.add_parser("deconv", help="TV deconvolution with a known kernel")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--psf", required=True, help="blur kernel (see parse_kernel)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--alpha", type=float, default=functionals.DEFAULT_ALPHA)
    p.add_argument("--variant", choices=["iso", "aniso"], default="iso")
    _add_solver_flags(p)
    _add_image_flags(p)

    p = sub.add_parser("blind", help="alternating-minimization blind deconvolution")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--kernel-out", type=Path, default=None, help="write the estimated kernel here")
    p.add_argument("--lambda", dest="lam", type=float, default=1e-3, help="image TV weight")
    p.add_argument("--lambda-kernel", dest="lam_kernel", type=float, default=1e-3)
    p.add_argument("--kernel-size", dest="kernel_size", type=int, default=3)
    p.add_argument("--alpha", type=float, default=functionals.DEFAULT_ALPHA)
    p.add_argument("--init-psf", dest="init_psf", default=None, help="initial kernel guess")
    _add_solver_flags(p)
    _add_image_flags(p)

    p = sub.add_parser("flow", help="optical flow between two frames")
    p.add_argument("input", type=Path, help="frame 1 (PGM)")
    p.add_argument("input2", type=Path, help="frame 2 (PGM)")
    p.add_argument("output", type=Path, help="output .flo")
    p.add_argument("--variant", choices=["an", "tv"], default="tv")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--gt", type=Path, default=None, help="ground-truth .flo for EPE")
    _add_solver_flags(p)

    p = sub.add_parser("metrics", help="PSNR of an image against a reference")
    p.add_argument("input", type=Path)
    p.add_argument("--ref", type=Path, required=True)
    p.add_argument("--peak", type=float, default=1.0)

    p = sub.add_parser("synth", help="generate a synthetic fixture")
    p.add_argument("fixture", choices=list(synth.FIXTURES))
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.05)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; fold usage into 1
        return 0 if exc.code == 0 else 1
    job = JobSpec.from_args(args)
    try:
        return run(job)
    except (SolverDivergenceError, restore.DegenerateKernelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
