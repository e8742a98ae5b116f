"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; parameters are frozen values known to satisfy the stated
tolerances with margin, so any failure is a regression.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from tvkit import grid, restore, solvers, synth
from tvkit.flow import (
    FlowParams,
    FlowVariant,
    FramePair,
    endpoint_error,
    flow_image_driven,
    flow_tv,
)
from tvkit.fileio import read_flo, read_pgm, write_flo, write_pgm
from tvkit.functionals import (
    TVVariant,
    apply_tv_operator,
    tv_gradient,
    tv_isotropic,
    tv_objective,
)
from tvkit.grid import Kernel, VectorField, inner
from tvkit.restore import BlindParams, RestoreParams, blind_deconvolve, psnr
from tvkit.solvers import SolverConfig, tv_restore_fixed_point

from conftest import materialize

TIGHT = SolverConfig(tol_cg=1e-14, max_cg=5000, forcing=0.0)


def dense_kernel_matrix(kernel, h, w):
    n = h * w
    H = np.zeros((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        H[:, c] = grid.convolve(e.reshape(h, w), kernel).ravel()
    return H


def local_energy(f, j, i, alpha):
    h, w = f.shape
    total = 0.0
    for (r, c) in ((j, i), (j, i - 1), (j - 1, i)):
        if r < 0 or c < 0:
            continue
        dx = f[r, c + 1] - f[r, c] if c < w - 1 else 0.0
        dy = f[r + 1, c] - f[r, c] if r < h - 1 else 0.0
        total += np.sqrt(dx * dx + dy * dy + alpha * alpha)
    return total


def test_01_adjoint_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        h, w = rng.integers(1, 17, size=2)
        p = rng.standard_normal((h, w))
        q = VectorField(rng.standard_normal((h, w)), rng.standard_normal((h, w)))
        gx, gy = grid.gradient(p)
        lhs = inner(gx, q.u) + inner(gy, q.v)
        rhs = -inner(p, grid.divergence(q))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

        ks = int(rng.choice([1, 3, 5]))
        kernel = Kernel(rng.standard_normal((ks, ks)))
        r = rng.standard_normal((h, w))
        lhs = inner(grid.convolve(p, kernel), r)
        rhs = inner(p, grid.convolve_adjoint(r, kernel))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nPASS 1: adjoint identities to 1e-12 on 200 draws ({elapsed:.2f}s)")


def test_02_tv_gradient_matches_finite_differences():
    # 5-point centered stencil: at alpha=1e-3 the energy's curvature near
    # flat pixels is ~1/alpha, and the plain 3-point difference at a safe
    # step size carries too much truncation error for a 1e-5 check
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    eps = 1e-5
    for alpha in (1e-3, 1e-1):
        for _ in range(50):
            f = rng.uniform(0.0, 1.0, (8, 8))
            g = tv_gradient(f, alpha)
            for j in range(8):
                for i in range(8):
                    def energy(delta):
                        fp = f.copy()
                        fp[j, i] += delta
                        return local_energy(fp, j, i, alpha)

                    fd = (8 * (energy(eps) - energy(-eps))
                          - (energy(2 * eps) - energy(-2 * eps))) / (12 * eps)
                    assert abs(g[j, i] - fd) <= 1e-5 * abs(fd) + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS 2: TV gradient matches finite differences to 1e-5 ({elapsed:.2f}s)")


def test_03_estimator_reductions():
    rng = np.random.default_rng(1003)
    g = rng.uniform(0.0, 1.0, (8, 8))
    k = Kernel.binomial3()

    np.testing.assert_array_equal(restore.rls_estimate(g, k, 0.0),
                                  restore.ls_estimate(g, k))

    f_gtr = restore.gtr_estimate(g, np.zeros_like(g), k, np.ones_like(g), 0.4, TIGHT)
    f_rls = restore.rls_estimate(g, k, 0.4, TIGHT)
    np.testing.assert_allclose(f_gtr, f_rls, atol=1e-10)

    lam = 0.6
    f_id = restore.rls_estimate(g, Kernel.delta(), lam, TIGHT)
    np.testing.assert_allclose(f_id, g / (1 + lam * lam), atol=1e-10)

    f_den, _ = restore.tv_denoise(g, RestoreParams(lam=0.0))
    np.testing.assert_allclose(f_den, g, atol=1e-8)
    print("PASS 3: estimator reductions (rls->ls, gtr->rls, delta closed form, "
          "lambda=0 denoise)")


def test_04_dense_oracle_equivalence():
    rng = np.random.default_rng(1004)
    g = rng.uniform(0.0, 1.0, (6, 6))
    k = Kernel.binomial3()
    n = 36
    H = dense_kernel_matrix(k, 6, 6)

    f_ls = restore.ls_estimate(g, k, TIGHT)
    want = np.linalg.solve(H.T @ H, H.T @ g.ravel())
    assert np.abs(f_ls.ravel() - want).max() <= 1e-6

    lam = 0.3
    f_rls = restore.rls_estimate(g, k, lam, TIGHT)
    want = np.linalg.solve(H.T @ H + lam * lam * np.eye(n), H.T @ g.ravel())
    assert np.abs(f_rls.ravel() - want).max() <= 1e-6

    f0 = rng.uniform(0.0, 1.0, (6, 6))
    p = rng.uniform(0.5, 2.0, (6, 6))
    P = np.diag(p.ravel())
    f_gtr = restore.gtr_estimate(g, f0, k, p, lam, TIGHT)
    lhs = H.T @ P @ H + lam * lam * np.eye(n)
    rhs = H.T @ P @ (g.ravel() - H @ f0.ravel())
    want = f0.ravel() + np.linalg.solve(lhs, rhs)
    assert np.abs(f_gtr.ravel() - want).max() <= 1e-6

    f_k = rng.uniform(0.0, 1.0, (6, 6))
    for variant in (TVVariant.ISOTROPIC, TVVariant.ANISOTROPIC):
        L = materialize(lambda v: apply_tv_operator(f_k, v, variant=variant), (6, 6))
        f_next, _ = tv_restore_fixed_point(g, k, lam, cfg=replace(TIGHT, max_outer=1),
                                           variant=variant, init=f_k)
        want = np.linalg.solve(H.T @ H + lam * L, H.T @ g.ravel())
        assert np.abs(f_next.ravel() - want).max() <= 1e-6
    print("PASS 4: ls/rls/gtr and lagged step match dense oracles to 1e-6")


def test_05_descent_and_lambda_monotonicity():
    _, noisy = synth.make_step32()
    fids, tvs = [], []
    for lam in (0.01, 0.05, 0.1):
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), lam)
        objs = report.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:])), f"lam={lam}"
        fids.append(0.5 * float(np.sum((f - noisy) ** 2)))
        tvs.append(tv_isotropic(f))
    assert fids[0] <= fids[1] <= fids[2]
    assert tvs[0] >= tvs[1] >= tvs[2]
    print("PASS 5: objective descent (1e-9 slack) and fidelity/TV monotone in lambda")


def test_06_denoising_quality():
    started = time.perf_counter()
    clean, noisy = synth.make_piecewise64()
    base = psnr(noisy, clean)
    best = -np.inf
    for lam in (0.005, 0.01, 0.02, 0.05, 0.1):
        f, _ = restore.tv_denoise(noisy, RestoreParams(lam=lam))
        best = max(best, psnr(f, clean))
    elapsed = time.perf_counter() - started
    assert best >= base + 2.0
    assert elapsed < 30.0
    print(f"PASS 6: denoising gains {best - base:.2f} dB >= 2 dB ({elapsed:.2f}s)")


def test_07_cross_solver_agreement():
    _, noisy = synth.make_step32()
    lam = 0.1
    primal, _ = tv_restore_fixed_point(noisy, Kernel.delta(), lam,
                                       cfg=SolverConfig(tol_cg=1e-10))
    dual = solvers.dual_projection_denoise(noisy, lam, steps=300)
    rel = np.linalg.norm(primal - dual) / np.linalg.norm(primal)
    assert rel <= 0.02
    print(f"PASS 7: primal and dual denoisers agree to {100 * rel:.2f}% <= 2%")


def test_08_blind_alternating_minimization():
    clean, _ = synth.make_piecewise64()
    ktrue = Kernel.motion_horizontal(3)
    g = grid.convolve(clean, ktrue)
    params = BlindParams(lam_image=3e-3, lam_kernel=0.5, kernel_size=3,
                         solver=SolverConfig(max_outer=60))
    f, khat, _ = blind_deconvolve(g, params)

    assert khat.weights.min() >= 0.0
    assert abs(khat.weights.sum() - 1.0) <= 1e-12

    a, b = khat.weights.ravel(), ktrue.weights.ravel()
    ncc = float(a @ b / np.sqrt((a @ a) * (b @ b)))
    assert ncc >= 0.9

    assert psnr(f, clean) > psnr(g, clean)
    print(f"PASS 8: blind AM kernel ncc={ncc:.3f} >= 0.9, restored "
          f"{psnr(f, clean):.2f} dB > observed {psnr(g, clean):.2f} dB")


def test_09_optical_flow():
    pair, gt = synth.make_ramp_shift()
    w_an, _ = flow_image_driven(pair, FlowParams(lam=0.1, eps=0.05,
                                                 variant=FlowVariant.IMAGE_DRIVEN))
    epe_an, _ = endpoint_error(w_an, gt)
    assert epe_an <= 0.2
    w_tv, _ = flow_tv(pair, FlowParams(lam=0.003, eps=0.05))
    epe_tv, _ = endpoint_error(w_tv, gt)
    assert epe_tv <= 0.2

    split, _ = synth.make_split_motion()
    s_an, _ = flow_image_driven(split, FlowParams(lam=0.003, eps=0.05,
                                                  variant=FlowVariant.IMAGE_DRIVEN))
    s_tv, _ = flow_tv(split, FlowParams(lam=0.003, eps=0.05))

    def width(w):
        return int(np.count_nonzero(np.abs(w.u - np.round(w.u)) > 0.25))

    assert width(s_tv) < width(s_an)

    rng = np.random.default_rng(1009)
    f = rng.uniform(0.0, 1.0, (16, 16))
    for params in (FlowParams(variant=FlowVariant.IMAGE_DRIVEN), FlowParams()):
        w, _ = (flow_image_driven if params.variant is FlowVariant.IMAGE_DRIVEN
                else flow_tv)(FramePair(f, f), params)
        assert np.abs(w.u).max() <= 1e-8 and np.abs(w.v).max() <= 1e-8
    print(f"PASS 9: flow EPE an={epe_an:.3f} tv={epe_tv:.3f} <= 0.2, "
          f"boundary width tv={width(s_tv)} < an={width(s_an)}, static flow zero")


def test_10_file_io(tmp_path):
    rng = np.random.default_rng(1010)
    f = rng.uniform(0.0, 1.0, (11, 7))
    write_pgm(tmp_path / "img.pgm", f)
    assert np.abs(read_pgm(tmp_path / "img.pgm") - f).max() <= 0.5 / 255 + 1e-12

    w = VectorField(
        rng.standard_normal((6, 9)).astype(np.float32).astype(np.float64),
        rng.standard_normal((6, 9)).astype(np.float32).astype(np.float64),
    )
    write_flo(tmp_path / "w.flo", w)
    back = read_flo(tmp_path / "w.flo")
    np.testing.assert_array_equal(back.u, w.u)
    np.testing.assert_array_equal(back.v, w.v)
    write_flo(tmp_path / "w2.flo", back)
    assert (tmp_path / "w.flo").read_bytes() == (tmp_path / "w2.flo").read_bytes()

    from tvkit.cli import main

    for fixture, names in (
        ("step32", ("step32_clean.pgm", "step32_noisy.pgm")),
        ("ramp-shift", ("ramp_shift_f1.pgm", "ramp_shift_f2.pgm", "ramp_shift_gt.flo")),
    ):
        d1, d2 = tmp_path / f"{fixture}-a", tmp_path / f"{fixture}-b"
        for d in (d1, d2):
            assert main(["synth", fixture, "--outdir", str(d), "--seed", "3"]) == 0
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    print("PASS 10: PGM quantization round trip, .flo bit-exact, synth byte-exact")
