"""Batch command line front end.

Subcommands: denoise, deconv, blind, flow, metrics, synth. Every solve
writes its result file and prints machine-readable key=value lines; the
solving handlers return the solve's report, and `main` writes every CSV
convergence report beside the output (same name, .csv suffix), the partial
report of a failed solve included. Exit status: 0 success, 1 usage or
input errors, 2 solver failure (with the report flushed up to the failure
point).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from . import functionals, restore, synth
from .fileio import (_check_maxval, read_flo, read_kernel_text, read_pgm, write_flo,
                     write_kernel_text, write_pgm, write_report)
from .flow import FlowParams, FlowVariant, FramePair, endpoint_error, estimate_flow
from .functionals import TVVariant
from .grid import Kernel
from .restore import BlindParams, RestoreParams
from .solvers import SolverConfig, SolverDivergenceError

SYNTH_MAXVAL = 65535


# each named kernel's factory and the converters of its optional ":" fields
_NAMED_KERNELS = {
    "delta": (Kernel.delta, (int,)),
    "box3": (Kernel.box, ()),
    "box": (Kernel.box, (int,)),
    "binomial3": (Kernel.binomial3, ()),
    "gaussian": (Kernel.gaussian, (int, float)),
    "motion-h": (Kernel.motion_horizontal, (int,)),
    "motion-v": (Kernel.motion_vertical, (int,)),
}


def parse_kernel(spec: str) -> Kernel:
    """Kernel from a flag value: a named form (``delta[:SIZE]``, ``box3``,
    ``box[:SIZE]``, ``binomial3``, ``gaussian[:SIZE[:SIGMA]]``,
    ``motion-h[:SIZE]``, ``motion-v[:SIZE]``) or ``@path`` to a kernel grid
    (see `fileio.read_kernel_text`).  A field the form does not take is an
    error."""
    if spec.startswith("@"):
        return read_kernel_text(spec[1:])
    name, _, rest = spec.partition(":")
    if name not in _NAMED_KERNELS:
        raise ValueError(f"unknown kernel {spec!r}")
    factory, fields = _NAMED_KERNELS[name]
    parts = rest.split(":") if rest else []
    try:
        if len(parts) > len(fields):
            raise ValueError(f"too many ':' fields for {name}")
        return factory(*(convert(part) for convert, part in zip(fields, parts)))
    except ValueError as err:
        raise ValueError(f"bad kernel spec {spec!r}: {err}") from None


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(tol_outer=args.tol, max_outer=args.max_iter)


def _print_metrics(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}")


def _psnr(args: argparse.Namespace, ref, f) -> list:
    """``[("psnr", value)]`` against the ``--ref`` image, or nothing
    without one."""
    return [] if ref is None else [("psnr", restore.psnr(f, ref, peak=args.peak))]


def _read_images(args: argparse.Namespace):
    """The input image and the ``--ref`` image (None without one).
    ``--maxval``, and ``--peak`` with ``--ref``, are checked first, so a bad
    value fails before any image is read or solved."""
    _check_maxval(args.maxval)
    if args.ref is not None:
        restore._check_peak(args.peak)
    return read_pgm(args.input), None if args.ref is None else read_pgm(args.ref)


def _epe(gt, w) -> list:
    """``epe_mean`` and ``epe_max`` against the ``--gt`` flow, or nothing
    without one."""
    if gt is None:
        return []
    epe_mean, epe_max = endpoint_error(w, gt)
    return [("epe_mean", epe_mean), ("epe_max", epe_max)]


def _run_restore(args: argparse.Namespace) -> tuple:
    """denoise and deconv: denoising is deconvolution with the delta kernel."""
    g, ref = _read_images(args)
    kernel = parse_kernel(args.psf)
    params = RestoreParams(
        lam=args.lam,
        alpha=args.alpha,
        variant=args.variant,
        solver=_solver_config(args),
    )
    f, report = restore.tv_deconvolve(g, kernel, params)
    write_pgm(args.output, f, maxval=args.maxval)
    return report, lambda: _psnr(args, ref, f)


def _run_blind(args: argparse.Namespace) -> tuple:
    g, ref = _read_images(args)
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
    return report, lambda: _psnr(args, ref, f)


def _run_flow(args: argparse.Namespace) -> tuple:
    pair = FramePair(read_pgm(args.input), read_pgm(args.input2))
    gt = None if args.gt is None else read_flo(args.gt)
    params = FlowParams(
        lam=args.lam,
        eps=args.eps,
        variant=args.variant,
        solver=_solver_config(args),
    )
    w, report = estimate_flow(pair, params)
    write_flo(args.output, w)
    return report, lambda: _epe(gt, w)


def _run_metrics(args: argparse.Namespace) -> None:
    f = read_pgm(args.input)
    _print_metrics(_psnr(args, read_pgm(args.ref), f))


def _run_synth(args: argparse.Namespace) -> None:
    # --sigma is checked for every fixture, though the frame pairs take none
    synth._check_sigma(args.sigma)
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


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_outer,
                   help="outer iteration cap")
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

    p = _add_image_command(sub, "denoise", "TV denoising", lam=RestoreParams.lam)
    p.add_argument("--variant", choices=tv_variants, default=RestoreParams.variant.value)
    p.set_defaults(run=_run_restore, psf="delta")

    p = _add_image_command(sub, "deconv", "TV deconvolution with a known kernel", lam=0.01)
    p.add_argument("--psf", required=True, help="blur kernel (see parse_kernel)")
    p.add_argument("--variant", choices=tv_variants, default=RestoreParams.variant.value)
    p.set_defaults(run=_run_restore)

    p = _add_image_command(
        sub,
        "blind",
        "alternating-minimization blind deconvolution",
        lam=BlindParams.lam_image,
        lam_help="image TV weight",
    )
    p.add_argument("--kernel-out", type=Path, default=None, help="write the estimated kernel here")
    p.add_argument("--lambda-kernel", dest="lam_kernel", type=float,
                   default=BlindParams.lam_kernel)
    p.add_argument("--kernel-size", dest="kernel_size", type=int, default=BlindParams.kernel_size)
    p.add_argument("--init-psf", dest="init_psf", default=None, help="initial kernel guess")
    p.set_defaults(run=_run_blind)

    p = sub.add_parser("flow", help="optical flow between two frames")
    p.add_argument("input", type=Path, help="frame 1 (PGM)")
    p.add_argument("input2", type=Path, help="frame 2 (PGM)")
    p.add_argument("output", type=Path, help="output .flo")
    p.add_argument("--variant", choices=[v.value for v in FlowVariant],
                   default=FlowParams.variant.value)
    p.add_argument("--lambda", dest="lam", type=float, default=FlowParams.lam)
    p.add_argument("--eps", type=float, default=FlowParams.eps)
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
    started = time.perf_counter()
    try:
        if (solved := args.run(args)) is not None:
            # handlers read --ref or --gt (and check --peak) before they
            # solve, so a bad path or peak fails before any output is written;
            # quality is measured after the report is written, so a reference
            # that does not match the output still leaves the finished report
            report, quality = solved
            write_report(args.output.with_suffix(".csv"), report)
            _print_metrics([("objective", report.objective_history[-1]), *quality(),
                            ("wall_time_s", time.perf_counter() - started)])
        return 0
    except SolverDivergenceError as err:
        # whatever convergence history exists is written before failing
        if err.report is not None:
            with contextlib.suppress(OSError):
                write_report(args.output.with_suffix(".csv"), err.report)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
