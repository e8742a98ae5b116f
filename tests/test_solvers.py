import warnings
from dataclasses import replace

import numpy as np
import pytest

from tvkit import functionals, grid, solvers, synth
from tvkit.flow import FlowParams, flow_tv
from tvkit.functionals import TVVariant, tv_objective
from tvkit.grid import Kernel
from tvkit.restore import BlindParams, RestoreParams, blind_deconvolve, tv_denoise
from tvkit.solvers import (
    SolveReport,
    SolverConfig,
    SolverDivergenceError,
    conjugate_gradient,
    dual_projection_denoise,
    tv_restore_fixed_point,
)

from conftest import materialize


def noisy_step(h=32, w=32, sigma=0.05, seed=0):
    rng = np.random.default_rng(seed)
    f = np.full((h, w), 0.25)
    f[:, w // 2:] = 0.75
    return f, f + sigma * rng.standard_normal((h, w))


def lagged_step(f_k, g, kernel, lam, cfg=SolverConfig(), **kwargs):
    """One outer step from ``f_k``: the fixed point capped at one iteration."""
    f, _ = tv_restore_fixed_point(g, kernel, lam, cfg=replace(cfg, max_outer=1),
                                  init=f_k, **kwargs)
    return f


def dense_system(seed):
    """A dense SPD ``a`` on 6x6 fields, its operator and a right-hand side."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((36, 36))
    a = m.T @ m + 0.5 * np.eye(36)

    def apply_A(v):
        return (a @ v.ravel()).reshape(6, 6)

    return a, apply_A, rng.standard_normal((6, 6))


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_outer == 50
        assert cfg.tol_cg == 1e-8
        assert cfg.max_cg == 500
        # unresolved outer tolerance scales with problem size
        assert cfg.resolved_tol_outer(100) == pytest.approx(1e-3, rel=1e-12)
        assert SolverConfig(tol_outer=0.5).resolved_tol_outer(100) == 0.5

    def test_validation(self):
        for bad in (dict(max_outer=0), dict(tol_cg=0.0), dict(max_cg=-1),
                    dict(tol_outer=-1e-3)):
            with pytest.raises(ValueError):
                SolverConfig(**bad)

    def test_forcing_defaults(self):
        # one default: every problem's solver is SolverConfig()'s
        assert SolverConfig().forcing == 0.1
        assert SolverConfig(max_outer=60).forcing == 0.1
        for params in (RestoreParams(), BlindParams(), FlowParams()):
            assert params.solver == SolverConfig()

    @pytest.mark.parametrize("forcing", [-0.1, 1.0])
    def test_forcing_validated(self, forcing):
        with pytest.raises(ValueError):
            SolverConfig(forcing=forcing)

    def test_report_records_forcing(self):
        _, noisy = noisy_step(12, 12)
        assert tv_denoise(noisy, RestoreParams())[1].forcing == 0.1
        exact = RestoreParams(solver=SolverConfig(forcing=0.0))
        assert tv_denoise(noisy, exact)[1].forcing == 0.0


class TestConjugateGradient:
    def test_identity_converges_in_one(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 4))
        x, iters, converged = conjugate_gradient(lambda v: v, b)
        assert converged and iters == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)

    def test_diagonal_closed_form(self):
        d = np.array([[1.0], [2.0], [3.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        x, _, converged = conjugate_gradient(lambda v: d * v, b,
                                             cfg=SolverConfig(tol_cg=1e-12))
        assert converged
        np.testing.assert_allclose(x, np.ones((3, 1)), atol=1e-10)

    def test_dense_spd_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((64, 64))
        a = m.T @ m + np.eye(64)

        def apply_A(v):
            return (a @ v.ravel()).reshape(8, 8)

        b = rng.standard_normal((8, 8))
        x, _, converged = conjugate_gradient(apply_A, b, cfg=SolverConfig(tol_cg=1e-12))
        assert converged
        np.testing.assert_allclose(x.ravel(), np.linalg.solve(a, b.ravel()), atol=1e-8)

    def test_zero_rhs(self):
        x, iters, converged = conjugate_gradient(lambda v: 2 * v, np.zeros((5, 5)))
        assert converged and iters == 0
        assert not x.any()

    def test_x0_already_solved(self):
        b = np.full((3, 3), 4.0)
        x, iters, converged = conjugate_gradient(lambda v: 2 * v, b, x0=b / 2)
        assert converged and iters == 0
        np.testing.assert_array_equal(x, b / 2)

    def test_error_norm_monotone(self):
        # CG decreases the A-norm (and the 2-norm) of the error every
        # iteration; probe by truncating the same solve at k = 1, 2, ...
        rng = np.random.default_rng(13)
        m = rng.standard_normal((36, 36))
        a = m.T @ m + 0.5 * np.eye(36)
        b = rng.standard_normal((6, 6))
        x_star = np.linalg.solve(a, b.ravel())

        def apply_A(v):
            return (a @ v.ravel()).reshape(6, 6)

        errs = []
        for k in range(1, 15):
            x, _, _ = conjugate_gradient(apply_A, b, cfg=SolverConfig(tol_cg=1e-15, max_cg=k))
            errs.append(np.linalg.norm(x.ravel() - x_star))
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))

    def test_residual_nonincreasing_mild_instance(self):
        # not guaranteed in general, but holds on this well-conditioned solve
        rng = np.random.default_rng(17)
        b = rng.standard_normal((10, 10))
        k = Kernel.binomial3()

        def apply_A(v):
            return grid.convolve_adjoint(grid.convolve(v, k), k) + 0.1 * v

        res = []
        for steps in range(1, 12):
            x, _, _ = conjugate_gradient(apply_A, b, cfg=SolverConfig(tol_cg=1e-15, max_cg=steps))
            res.append(np.linalg.norm(apply_A(x) - b))
        assert all(r2 <= r1 * (1 + 1e-10) for r1, r2 in zip(res, res[1:]))

    def test_plain_loop_unchanged(self):
        # the textbook CG recurrences, out of place: the solver without a
        # preconditioner must compute exactly this
        def reference_cg(apply_A, b, x, cfg):
            threshold = cfg.tol_cg * np.sqrt(np.vdot(b, b))
            r = b - apply_A(x)
            rs = float(np.vdot(r, r))
            p = r.copy()
            for k in range(1, cfg.max_cg + 1):
                Ap = apply_A(p)
                alpha = rs / float(np.vdot(p, Ap))
                x = x + alpha * p
                r = r - alpha * Ap
                rs_new = float(np.vdot(r, r))
                if np.sqrt(rs_new) <= threshold:
                    return x, k
                p = r + (rs_new / rs) * p
                rs = rs_new
            return x, cfg.max_cg

        rng = np.random.default_rng(23)
        m = rng.standard_normal((36, 36))
        a = m.T @ m + 0.1 * np.eye(36)

        def apply_A(v):
            return (a @ v.ravel()).reshape(6, 6)

        b = rng.standard_normal((6, 6))
        x0 = rng.standard_normal((6, 6))
        x0_before = x0.copy()
        for cfg in (SolverConfig(tol_cg=1e-10), SolverConfig(max_cg=7)):
            x, iters, _ = conjugate_gradient(apply_A, b, x0=x0, cfg=cfg)
            want, want_iters = reference_cg(apply_A, b, x0, cfg)
            np.testing.assert_array_equal(x, want)
            assert iters == want_iters
        # the in-place updates work on a private copy of the start
        np.testing.assert_array_equal(x0, x0_before)

    def test_identity_preconditioner_is_plain_cg(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((36, 36))
        a = m.T @ m + 0.5 * np.eye(36)

        def apply_A(v):
            return (a @ v.ravel()).reshape(6, 6)

        b = rng.standard_normal((6, 6))
        cfg = SolverConfig(tol_cg=1e-12)
        x, iters, converged = conjugate_gradient(apply_A, b, cfg=cfg)
        xp, iters_p, converged_p = conjugate_gradient(apply_A, b, cfg=cfg,
                                                      precond=lambda r: r.copy())
        np.testing.assert_array_equal(xp, x)
        assert (iters_p, converged_p) == (iters, converged)

    def test_jacobi_preconditioner_badly_scaled(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((64, 64))
        scale = np.logspace(0, 3, 64)
        a = scale[:, None] * (m.T @ m / 64 + np.eye(64)) * scale[None, :]
        diag = np.diag(a).reshape(8, 8)

        def apply_A(v):
            return (a @ v.ravel()).reshape(8, 8)

        b = rng.standard_normal((8, 8))
        cfg = SolverConfig(tol_cg=1e-12, max_cg=5000)
        _, plain_iters, _ = conjugate_gradient(apply_A, b, cfg=cfg)
        x, iters, converged = conjugate_gradient(apply_A, b, cfg=cfg,
                                                 precond=lambda r: r / diag)
        assert converged
        assert iters < plain_iters
        np.testing.assert_allclose(x.ravel(), np.linalg.solve(a, b.ravel()),
                                   rtol=1e-8, atol=0)

    def test_exact_diagonal_preconditioner_one_iteration(self):
        d = np.array([[1.0, 10.0], [1e3, 1e-2]])
        b = np.array([[1.0, -2.0], [3.0, 0.5]])
        x, iters, converged = conjugate_gradient(lambda v: d * v, b,
                                                 precond=lambda r: r / d)
        assert converged and iters == 1
        np.testing.assert_allclose(x, b / d, rtol=1e-14)

    def test_forcing_stops_at_first_iterate_below_eta_r0(self):
        # forcing=0.1 returns the first CG iterate whose residual is at most
        # 0.1 ||r0||, r0 = b - A x0 the residual of the warm start; each
        # iterate k is the same solve truncated at max_cg=k
        a, apply_A, b = dense_system(29)
        x0 = np.linalg.solve(a, b.ravel()).reshape(6, 6) + 0.1 * b
        r0 = np.linalg.norm(b - apply_A(x0))
        x, iters, converged = conjugate_gradient(apply_A, b, x0=x0, forcing=0.1)
        assert converged and iters >= 2
        for k in range(1, iters + 1):
            xk, _, _ = conjugate_gradient(apply_A, b, x0=x0, cfg=SolverConfig(max_cg=k))
            below = np.linalg.norm(b - apply_A(xk)) <= 0.1 * r0
            assert below == (k == iters)
        np.testing.assert_array_equal(x, xk)

    def test_forcing_never_stops_before_looser_tol_cg(self):
        # close to the solution 0.1 ||r0|| is tighter than tol_cg ||b||:
        # the tol_cg test decides, exactly as without a forcing term
        a, apply_A, b = dense_system(37)
        x0 = np.linalg.solve(a, b.ravel()).reshape(6, 6) + 1e-3 * b
        cfg = SolverConfig(tol_cg=1e-2)
        assert 0.1 * np.linalg.norm(b - apply_A(x0)) < cfg.tol_cg * np.linalg.norm(b)
        want = conjugate_gradient(apply_A, b, x0=x0, cfg=cfg)
        x, iters, converged = conjugate_gradient(apply_A, b, x0=x0, cfg=cfg, forcing=0.1)
        np.testing.assert_array_equal(x, want[0])
        assert (iters, converged) == want[1:] and iters >= 1

    def test_zero_forcing_is_no_forcing(self):
        a, apply_A, b = dense_system(41)
        x0 = np.random.default_rng(43).standard_normal((6, 6))
        diag = np.diag(a).reshape(6, 6)
        for cfg in (SolverConfig(tol_cg=1e-10), SolverConfig(max_cg=4)):
            want = conjugate_gradient(apply_A, b, x0=x0, cfg=cfg, precond=lambda r: r / diag)
            got = conjugate_gradient(apply_A, b, x0=x0, cfg=cfg, precond=lambda r: r / diag,
                                     forcing=0.0)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_nonfinite_diverges(self):
        def bad(v):
            out = v.copy()
            out[0, 0] = np.nan
            return out

        with pytest.raises(SolverDivergenceError):
            conjugate_gradient(bad, np.ones((3, 3)))


class TestLaggedStep:
    def test_identity_kernel_no_penalty(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0.0, 1.0, (6, 6))
        out = lagged_step(np.zeros_like(g), g, Kernel.delta(), 0.0)
        np.testing.assert_allclose(out, g, atol=1e-10)

    def test_no_penalty_ignores_alpha_and_state(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0.0, 1.0, (6, 6))
        k = Kernel.binomial3()
        cfg = SolverConfig(tol_cg=1e-12, forcing=0.0)
        a = lagged_step(rng.standard_normal((6, 6)), g, k, 0.0, alpha=1e-3, cfg=cfg)
        b = lagged_step(rng.standard_normal((6, 6)), g, k, 0.0, alpha=1e-1, cfg=cfg)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_preconditioned_step_meets_tol_on_true_residual(self):
        # one lagged step from f_k: Jacobi-preconditioned CG takes fewer
        # iterations than plain CG on the same frozen-weight system, and
        # stops on the true residual.  Flat regions weigh 1/alpha and edges
        # far less, so this diagonal spans two decades; a test on the
        # preconditioned residual would leave ||A f - b|| near 1.6e-7 here.
        clean, _ = noisy_step(16, 16)
        k = Kernel.box(3)
        g = grid.convolve(clean, k) + 1e-3 * np.random.default_rng(8).standard_normal((16, 16))
        lam, f_k = 0.05, g.copy()
        f, report = tv_restore_fixed_point(g, k, lam, cfg=SolverConfig(max_outer=1, forcing=0.0),
                                           init=f_k)
        wx, wy = functionals.diffusion_weights(f_k, functionals.DEFAULT_ALPHA)

        def apply_A(x):
            return (grid.convolve_adjoint(grid.convolve(x, k), k)
                    + lam * functionals.apply_weighted_laplacian(wx, wy, x))

        b = grid.convolve_adjoint(g, k)
        assert np.linalg.norm(apply_A(f) - b) <= 1e-7 * np.linalg.norm(b)
        _, plain_iters, _ = conjugate_gradient(apply_A, b, x0=f_k)
        assert report.cg_iters_history[0] < plain_iters

    @pytest.mark.parametrize("g, lam", [
        (np.random.default_rng(2).uniform(0.0, 1.0, (6, 6)), 0.0),
        (np.full((1, 1), 0.3), 0.1),
    ], ids=["no-penalty", "single-pixel"])
    def test_zero_jacobi_diagonal(self, g, lam):
        # a zero kernel zeroes H^T H; with no penalty term (lam = 0, or a
        # single pixel that has no differences) the Jacobi diagonal is zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, report = tv_restore_fixed_point(g, Kernel(np.zeros((3, 3))), lam)
        np.testing.assert_array_equal(f, np.zeros_like(g))
        assert report.converged
        assert report.outer_iterations == 2

    def test_fixed_point_property(self):
        # solve once, then feed the solution back in: the step keeps it
        g, noisy = noisy_step(16, 16)
        cfg = SolverConfig(tol_cg=1e-12)
        f = noisy.copy()
        for _ in range(40):
            f = lagged_step(f, noisy, Kernel.delta(), 0.1, cfg=cfg)
        again = lagged_step(f, noisy, Kernel.delta(), 0.1, cfg=cfg)
        assert np.linalg.norm(again - f) <= 1e-5 * np.linalg.norm(f)


class TestFixedPointSolver:
    def test_no_penalty_returns_observation(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.0, 1.0, (8, 8))
        f, report = tv_restore_fixed_point(g, Kernel.delta(), 0.0)
        np.testing.assert_allclose(f, g, atol=1e-8)
        assert report.converged
        assert report.outer_iterations == 1

    def test_descent_monitored(self):
        _, noisy = noisy_step()
        for lam in (0.01, 0.05, 0.1):
            f, report = tv_restore_fixed_point(noisy, Kernel.delta(), lam)
            assert report.objective_monotone
            objs = report.objective_history
            assert len(objs) == report.outer_iterations
            assert all(np.isfinite(objs))
            assert objs[-1] <= tv_objective(noisy, noisy, Kernel.delta(), lam) + 1e-9

    def test_large_penalty_contracts_variance(self):
        _, noisy = noisy_step(24, 24)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 5.0)
        assert f.var() < 0.05 * noisy.var()
        assert abs(f.mean() - noisy.mean()) < 0.05

    def test_histories_consistent(self):
        _, noisy = noisy_step(16, 16)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05)
        n = report.outer_iterations
        assert len(report.objective_history) == n
        assert len(report.step_norm_history) == n
        assert len(report.cg_iters_history) == n
        assert report.cg_iterations_total == sum(report.cg_iters_history)
        assert 1 <= n <= 50

    def test_mean_initialization(self):
        _, noisy = noisy_step(16, 16)
        f_obs, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05)
        f_mean, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05,
                                           init=np.full_like(noisy, noisy.mean()))
        # same fixed point from either start
        assert np.linalg.norm(f_obs - f_mean) <= 2e-2 * np.linalg.norm(f_obs)

    def test_array_initialization(self):
        _, noisy = noisy_step(12, 12)
        warm, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05, init=warm)
        assert report.outer_iterations <= 2
        assert np.linalg.norm(f - warm) <= 1e-2 * np.linalg.norm(warm)

    def test_bad_initialization_rejected(self):
        g = np.zeros((4, 4))
        with pytest.raises(ValueError):
            tv_restore_fixed_point(g, Kernel.delta(), 0.1, init="zeros")
        with pytest.raises(ValueError):
            tv_restore_fixed_point(g, Kernel.delta(), 0.1, init=np.zeros((3, 3)))

    def test_halts_at_cap(self):
        _, noisy = noisy_step(16, 16)
        cfg = SolverConfig(tol_outer=1e-300, max_outer=4)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), 0.1, cfg=cfg)
        assert report.outer_iterations == 4
        assert not report.converged

    def test_convergence_flag_truthful(self):
        _, noisy = noisy_step(16, 16)
        cfg = SolverConfig(tol_outer=1e3, max_outer=10)
        _, report = tv_restore_fixed_point(noisy, Kernel.delta(), 0.1, cfg=cfg)
        assert report.converged
        assert report.step_norm_history[-1] < 1e3

    def test_anisotropic_variant_descends_its_energy(self):
        _, noisy = noisy_step(16, 16)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05,
                                           variant=TVVariant.ANISOTROPIC)
        assert report.objective_monotone
        want = tv_objective(f, noisy, Kernel.delta(), 0.05, variant=TVVariant.ANISOTROPIC)
        assert report.objective_history[-1] == pytest.approx(want, rel=1e-10)

    def test_divergence_carries_report(self):
        g = np.full((6, 6), np.nan)
        with pytest.raises(SolverDivergenceError) as exc_info:
            tv_restore_fixed_point(g, Kernel.delta(), 0.1)
        assert isinstance(exc_info.value.report, SolveReport)

    def test_overflowing_jacobi_diagonal_raises(self):
        # lam / alpha overflows the Jacobi diagonal to inf: its inverse would
        # zero every residual entry and PCG would stop at once, leaving the
        # flat start as an unconverged "solution"
        _, noisy = synth.make_step32()
        with pytest.raises(SolverDivergenceError) as exc_info:
            tv_restore_fixed_point(noisy, Kernel.delta(), 1e300, alpha=1e-160,
                                   init=np.full_like(noisy, noisy.mean()))
        assert isinstance(exc_info.value.report, SolveReport)


def capped_denoise(cfg):
    _, noisy = synth.make_step32()
    return tv_restore_fixed_point(noisy, Kernel.delta(), 0.05, cfg=cfg)[1]


def capped_flow(cfg):
    # a looser outer tolerance lets the outer loop stop before max_outer
    pair, _ = synth.make_split_motion()
    return flow_tv(pair, FlowParams(lam=0.003, eps=0.05,
                                    solver=replace(cfg, tol_outer=0.1)))[1]


def capped_blind(cfg):
    _, noisy = synth.make_step32()
    return blind_deconvolve(noisy, BlindParams(solver=cfg))[2]


def test_report_flags_follow_histories():
    # a hand-built report: the count and flags follow its histories
    report = SolveReport(objective_history=[1.0, 2.0], step_norm_history=[1.0, 3.0])
    assert report.outer_iterations == 2
    assert report.objective_monotone is False
    assert report.step_norms_monotone is False


@pytest.mark.parametrize("solve", [capped_denoise, capped_flow, capped_blind],
                         ids=["denoise", "flow", "blind"])
def test_capped_cg_is_not_converged(solve):
    # three CG iterations never reach tol_cg, but the outer steps still
    # shrink below the outer tolerance: the report must not claim convergence
    cfg = SolverConfig(max_cg=3)
    report = solve(cfg)
    assert report.outer_iterations < cfg.max_outer
    assert report.converged is False
    assert not all(report.cg_converged_history)
    assert len(report.cg_converged_history) == report.outer_iterations


class TestEquivariance:
    def test_flip_equivariance_anisotropic(self):
        # the L1 discretization treats the two axes separately, so flips
        # commute with the solve almost exactly
        _, noisy = noisy_step(16, 16, seed=2)
        cfg = SolverConfig(tol_cg=1e-12)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05, cfg=cfg,
                                      variant=TVVariant.ANISOTROPIC)
        f_flip, _ = tv_restore_fixed_point(noisy[:, ::-1].copy(), Kernel.delta(), 0.05,
                                           cfg=cfg, variant=TVVariant.ANISOTROPIC)
        dev = np.abs(f[:, ::-1] - f_flip).max()
        assert dev <= 1e-8

    def test_flip_equivariance_isotropic_first_order(self):
        # the coupled sqrt(dx^2+dy^2) term staggers the two axes by half a
        # pixel, so mirroring only commutes to discretization order, not to
        # solver tolerance; the gap shrinks with the penalty weight
        _, noisy = noisy_step(16, 16, seed=2)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05)
        f_flip, _ = tv_restore_fixed_point(noisy[:, ::-1].copy(), Kernel.delta(), 0.05)
        assert np.abs(f[:, ::-1] - f_flip).max() <= 0.1

    def test_constant_shift_invariance(self):
        _, noisy = noisy_step(16, 16, seed=4)
        cfg = SolverConfig(tol_cg=1e-12)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), 0.05, cfg=cfg)
        f_shift, _ = tv_restore_fixed_point(noisy + 2.0, Kernel.delta(), 0.05, cfg=cfg)
        np.testing.assert_allclose(f_shift - 2.0, f, atol=1e-10)


class TestDualProjection:
    def test_vanishing_penalty_returns_observation(self):
        rng = np.random.default_rng(21)
        g = rng.uniform(0.0, 1.0, (16, 16))
        out = dual_projection_denoise(g, 1e-6)
        assert np.abs(out - g).max() <= 1e-3

    def test_constant_input_unchanged(self):
        g = np.full((9, 9), 0.6)
        out = dual_projection_denoise(g, 0.3)
        np.testing.assert_allclose(out, g, atol=1e-12)

    def test_matches_fixed_point_solver(self):
        _, noisy = noisy_step()
        lam = 0.1
        primal, _ = tv_restore_fixed_point(noisy, Kernel.delta(), lam,
                                           cfg=SolverConfig(tol_cg=1e-10))
        dual = dual_projection_denoise(noisy, lam, steps=300)
        rel = np.linalg.norm(primal - dual) / np.linalg.norm(primal)
        assert rel <= 0.02

    def test_invalid_arguments(self):
        g = np.zeros((4, 4))
        with pytest.raises(ValueError):
            dual_projection_denoise(g, 0.0)
        with pytest.raises(ValueError):
            dual_projection_denoise(g, 0.1, steps=-1)
