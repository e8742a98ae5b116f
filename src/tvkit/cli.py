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
from pathlib import Path

import numpy as np

from . import functionals, restore, synth
from .fileio import read_flo, read_pgm, write_flo, write_pgm, write_report
from .flow import FlowParams, FlowVariant, FramePair, endpoint_error, estimate_flow
from .functionals import TVVariant
from .grid import Kernel
from .restore import BlindParams, RestoreParams
from .solvers import SolverConfig, SolverDivergenceError

SYNTH_MAXVAL = 65535


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


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(tol_outer=args.tol, max_outer=args.max_iter)


def _print_metrics(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}")


def _psnr(args: argparse.Namespace, ref, f) -> list:
    """``[("psnr", value)]`` against the ``--ref`` image, or nothing
    without one."""
    if ref is None:
        return []
    return [("psnr", restore.psnr(f, ref, peak=args.peak))]


def _epe(gt, w) -> list:
    """``epe_mean`` and ``epe_max`` against the ``--gt`` flow, or nothing
    without one."""
    if gt is None:
        return []
    epe_mean, epe_max = endpoint_error(w, gt)
    return [("epe_mean", epe_mean), ("epe_max", epe_max)]


def _finish(args: argparse.Namespace, report, quality, started) -> int:
    """Write the CSV report beside the output, then print the final
    objective, the keys ``quality()`` returns and the wall time.  Handlers
    read ``--ref`` or ``--gt`` before they solve, so a bad path fails
    before any output is written; quality is measured after the report is
    written, so a reference that does not match the output still leaves
    the report of the finished solve."""
    write_report(args.output.with_suffix(".csv"), report)
    _print_metrics([
        ("objective", report.objective_history[-1]),
        *quality(),
        ("wall_time_s", time.perf_counter() - started),
    ])
    return 0


def _run_restore(args: argparse.Namespace) -> int:
    """denoise and deconv: denoising is deconvolution with the delta kernel."""
    started = time.perf_counter()
    g = read_pgm(args.input)
    ref = None if args.ref is None else read_pgm(args.ref)
    kernel = parse_kernel(args.psf)
    params = RestoreParams(
        lam=args.lam,
        alpha=args.alpha,
        variant=TVVariant(args.variant),
        solver=_solver_config(args),
    )
    f, report = restore.tv_deconvolve(g, kernel, params)
    write_pgm(args.output, f, maxval=args.maxval)
    return _finish(args, report, lambda: _psnr(args, ref, f), started)


def _run_blind(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = read_pgm(args.input)
    ref = None if args.ref is None else read_pgm(args.ref)
    kernel0 = parse_kernel(args.init_psf) if args.init_psf else None
    params = BlindParams(
        lam_image=args.lam,
        lam_kernel=args.lam_kernel,
        kernel_size=args.kernel_size,
        alpha=args.alpha,
        solver=_solver_config(args),
    )
    f, kernel, report = restore.blind_deconvolve(g, params, kernel0=kernel0)
    if args.kernel_out is not None:
        write_kernel_text(args.kernel_out, kernel)
    write_pgm(args.output, f, maxval=args.maxval)
    return _finish(args, report, lambda: _psnr(args, ref, f), started)


def _run_flow(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    pair = FramePair(read_pgm(args.input), read_pgm(args.input2))
    gt = None if args.gt is None else read_flo(args.gt)
    params = FlowParams(
        lam=args.lam,
        eps=args.eps,
        variant=FlowVariant(args.variant),
        solver=_solver_config(args),
    )
    w, report = estimate_flow(pair, params)
    write_flo(args.output, w)
    return _finish(args, report, lambda: _epe(gt, w), started)


def _run_metrics(args: argparse.Namespace) -> int:
    f = read_pgm(args.input)
    _print_metrics(_psnr(args, read_pgm(args.ref), f))
    return 0


def _run_synth(args: argparse.Namespace) -> int:
    # fixture NAME is made by synth.make_NAME, with '-' spelled '_'
    stem = args.fixture.replace("-", "_")
    make = getattr(synth, f"make_{stem}")
    gt = None
    if args.fixture in ("ramp-shift", "split-motion"):
        pair, gt = make(args.seed)
        images = {"f1": pair.f1, "f2": pair.f2}
    else:
        images = dict(zip(("clean", "noisy"), make(args.seed, args.sigma)))
    args.outdir.mkdir(parents=True, exist_ok=True)
    for suffix, image in images.items():
        path = args.outdir / f"{stem}_{suffix}.pgm"
        write_pgm(path, image, maxval=SYNTH_MAXVAL)
        print(f"wrote {path}")
    if gt is not None:
        path = args.outdir / f"{stem}_gt.flo"
        write_flo(path, gt)
        print(f"wrote {path}")
    return 0


def _flush_partial(args: argparse.Namespace, err) -> None:
    """Write whatever convergence history exists before failing."""
    report = getattr(err, "report", None)
    if report is not None:
        try:
            write_report(args.output.with_suffix(".csv"), report)
        except OSError:
            pass


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status.  A
    solver failure flushes the partial convergence report before it
    propagates."""
    try:
        return args.run(args)
    except (SolverDivergenceError, restore.DegenerateKernelError) as err:
        _flush_partial(args, err)
        raise


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=50, help="outer iteration cap")
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="outer step-norm tolerance (default scales with image size)",
    )


def _add_image_command(sub, name: str, summary: str, lam: float, lam_help=None):
    """A subparser for one image-restoration command: input and output PGM,
    ``--lambda`` with this command's default, ``--alpha``, the solver flags
    and the PSNR flags."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--lambda", dest="lam", type=float, default=lam, help=lam_help)
    p.add_argument("--alpha", type=float, default=functionals.DEFAULT_ALPHA)
    _add_solver_flags(p)
    p.add_argument("--ref", type=Path, default=None, help="reference image for PSNR")
    p.add_argument("--maxval", type=int, default=255, help="output PGM maxval")
    p.add_argument("--peak", type=float, default=1.0, help="PSNR peak value")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvkit",
        description="Total-variation image restoration and optical flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tv_variants = [v.value for v in TVVariant]

    p = _add_image_command(sub, "denoise", "TV denoising", lam=0.05)
    p.add_argument("--variant", choices=tv_variants, default="iso")
    p.set_defaults(run=_run_restore, psf="delta")

    p = _add_image_command(sub, "deconv", "TV deconvolution with a known kernel", lam=0.01)
    p.add_argument("--psf", required=True, help="blur kernel (see parse_kernel)")
    p.add_argument("--variant", choices=tv_variants, default="iso")
    p.set_defaults(run=_run_restore)

    p = _add_image_command(
        sub,
        "blind",
        "alternating-minimization blind deconvolution",
        lam=1e-3,
        lam_help="image TV weight",
    )
    p.add_argument("--kernel-out", type=Path, default=None, help="write the estimated kernel here")
    p.add_argument("--lambda-kernel", dest="lam_kernel", type=float, default=1e-3)
    p.add_argument("--kernel-size", dest="kernel_size", type=int, default=3)
    p.add_argument("--init-psf", dest="init_psf", default=None, help="initial kernel guess")
    p.set_defaults(run=_run_blind)

    p = sub.add_parser("flow", help="optical flow between two frames")
    p.add_argument("input", type=Path, help="frame 1 (PGM)")
    p.add_argument("input2", type=Path, help="frame 2 (PGM)")
    p.add_argument("output", type=Path, help="output .flo")
    p.add_argument("--variant", choices=[v.value for v in FlowVariant], default="tv")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--gt", type=Path, default=None, help="ground-truth .flo for EPE")
    _add_solver_flags(p)
    p.set_defaults(run=_run_flow)

    p = sub.add_parser("metrics", help="PSNR of an image against a reference")
    p.add_argument("input", type=Path)
    p.add_argument("--ref", type=Path, required=True)
    p.add_argument("--peak", type=float, default=1.0)
    p.set_defaults(run=_run_metrics)

    p = sub.add_parser("synth", help="generate a synthetic fixture")
    p.add_argument("fixture", choices=list(synth.FIXTURES))
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.05)
    p.set_defaults(run=_run_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; fold usage into 1
        return 0 if exc.code == 0 else 1
    try:
        return run(args)
    except (SolverDivergenceError, restore.DegenerateKernelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
