import ast
import warnings
from dataclasses import replace
from pathlib import Path

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

from conftest import noisy_step


def lagged_step(f_k, g, kernel, lam, cfg=SolverConfig(), **kwargs):
    """One outer step from ``f_k``."""
    f, _, _ = solvers.lagged_restore_step(g, f_k, kernel,
                                          RestoreParams(lam=lam, solver=cfg, **kwargs))
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
                    dict(tol_outer=-1e-3), dict(tol_outer=np.inf), dict(tol_outer=np.nan),
                    dict(tol_cg=np.inf), dict(tol_cg=np.nan)):
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

    @pytest.mark.parametrize("a, b, message", [
        ([np.inf, 1.0], [1.0, 1.0], "non-finite residual entering CG"),
        ([1e300, 1e300], [1e10, 1.0], "non-finite curvature at CG iteration 1"),
        # <p, A p> = 1e-100 is finite, and the step 1e100 * A p overflows r
        ([1e300, 1e-300], [1e-200, 1.0], "non-finite residual at CG iteration 1"),
    ], ids=["entering", "curvature", "residual"])
    def test_non_finite_names_where(self, a, b, message):
        a = np.array(a)
        with pytest.raises(SolverDivergenceError, match=f"^{message}$"):
            conjugate_gradient(lambda x: a * x, np.array(b))

    def test_null_direction_stops_unconverged(self):
        # <p, A p> = 0 on the first direction: no step taken, not converged
        x, iters, converged = conjugate_gradient(lambda v: 0 * v, np.ones(3))
        assert iters == 0 and not converged
        np.testing.assert_array_equal(x, np.zeros(3))


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
        f, iters, _ = solvers.lagged_restore_step(g, f_k, k, RestoreParams(
            lam=lam, solver=SolverConfig(forcing=0.0)))
        wx, wy = functionals.diffusion_weights(f_k, functionals.DEFAULT_ALPHA)

        def apply_A(x):
            return (grid.convolve_adjoint(grid.convolve(x, k), k)
                    + lam * functionals.apply_weighted_laplacian(wx, wy, x))

        b = grid.convolve_adjoint(g, k)
        assert np.linalg.norm(apply_A(f) - b) <= 1e-7 * np.linalg.norm(b)
        _, plain_iters, _ = conjugate_gradient(apply_A, b, x0=f_k)
        assert iters < plain_iters

    @pytest.mark.parametrize("g, lam", [
        (np.random.default_rng(2).uniform(0.0, 1.0, (6, 6)), 0.0),
        (np.full((1, 1), 0.3), 0.1),
    ], ids=["no-penalty", "single-pixel"])
    def test_zero_jacobi_diagonal(self, g, lam):
        # a zero kernel zeroes H^T H; with no penalty term (lam = 0, or a
        # single pixel that has no differences) the Jacobi diagonal is zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, report = tv_restore_fixed_point(g, Kernel(np.zeros((3, 3))), RestoreParams(lam=lam))
        np.testing.assert_array_equal(f, np.zeros_like(g))
        assert report.converged
        assert report.outer_iterations == 2

    @pytest.mark.parametrize("variant", list(TVVariant))
    @pytest.mark.parametrize("kernel", [Kernel.delta(), Kernel.box(3), Kernel.gaussian(5, 1.0)],
                             ids=["delta", "box3", "gaussian5"])
    def test_buffered_operator_matches_allocating_closure(self, kernel, variant):
        # the step's operator writes into its own buffers; it must keep the
        # operands of K^T K x + lam L x, so CG runs the same iterates
        clean, _ = noisy_step(16, 16)
        g = grid.convolve(clean, kernel) + 0.01 * np.random.default_rng(12).standard_normal((16, 16))
        f_k = grid.convolve(g, Kernel.box(3))
        lam, alpha = 0.05, functionals.DEFAULT_ALPHA
        cfg = SolverConfig(forcing=0.0)
        f, iters, ok = solvers.lagged_restore_step(
            g, f_k, kernel, RestoreParams(lam=lam, alpha=alpha, variant=variant, solver=cfg))

        wx, wy = functionals.diffusion_weights(f_k, alpha, variant)
        diag = (float(np.sum(kernel.weights * kernel.weights))
                + lam * functionals.weighted_laplacian_diagonal(wx, wy))
        inv_diag = np.divide(1.0, diag, out=np.ones_like(diag), where=diag > 0)

        def apply_A(x):
            return (grid.convolve_adjoint(grid.convolve(x, kernel), kernel)
                    + lam * functionals.apply_weighted_laplacian(wx, wy, x))

        want, want_iters, want_ok = conjugate_gradient(
            apply_A, grid.convolve_adjoint(g, kernel), x0=f_k, cfg=cfg,
            precond=lambda r: inv_diag * r)
        assert iters > 1 and ok and want_ok
        assert iters == want_iters
        assert np.array_equal(f, want)

    def test_fixed_point_property(self):
        # solve once, then feed the solution back in: the step keeps it
        g, noisy = noisy_step(16, 16)
        cfg = SolverConfig(tol_cg=1e-12)
        f = noisy.copy()
        for _ in range(40):
            f = lagged_step(f, noisy, Kernel.delta(), 0.1, cfg=cfg)
        again = lagged_step(f, noisy, Kernel.delta(), 0.1, cfg=cfg)
        assert np.linalg.norm(again - f) <= 1e-5 * np.linalg.norm(f)


# ROADMAP's rank-3 kernel, as blind's estimates are: no factors, taps path
RANK3 = Kernel(np.array([[0.05, 0.1, 0.0], [0.2, 0.3, 0.1], [0.0, 0.15, 0.1]]))
RELAX_KERNELS = [Kernel.delta(), Kernel.gaussian(5, 1.0), Kernel.motion_horizontal(7), RANK3]
RELAX_KERNEL_IDS = ["delta", "gaussian5", "motion7", "rank3"]


def blurred_piecewise16(kernel, sigma=0.01, seed=14):
    """A 16x16 piecewise-constant scene, blurred by ``kernel`` plus noise."""
    clean = synth.make_piecewise64()[0][::4, ::4]
    return grid.convolve(clean, kernel) + sigma * synth.gaussian_field(clean.shape, seed)


class TestRelaxedStep:
    """`tv_restore_fixed_point` stretches each lagged step ``d = x - f_k`` to
    ``solvers._RELAX * d``; the stretch descends because ``d`` is the line
    minimizer of the lagged quadratic that majorizes the objective."""

    @pytest.mark.parametrize("start", ["observation", "second-iterate"])
    @pytest.mark.parametrize("cfg", [SolverConfig(forcing=0.0), SolverConfig(forcing=0.1),
                                     SolverConfig(max_cg=2)],
                             ids=["forcing-0", "forcing-0.1", "max-cg-2"])
    @pytest.mark.parametrize("variant", list(TVVariant))
    @pytest.mark.parametrize("kernel", RELAX_KERNELS, ids=RELAX_KERNEL_IDS)
    def test_plain_step_is_line_minimizer_and_stretch_descends(self, kernel, variant, cfg,
                                                               start):
        g = blurred_piecewise16(kernel)
        lam, alpha = 0.01, functionals.DEFAULT_ALPHA
        params = RestoreParams(lam=lam, alpha=alpha, variant=variant, solver=cfg)
        f_k = g.copy()
        if start == "second-iterate":
            f_k, _ = tv_restore_fixed_point(g, kernel, replace(
                params, solver=SolverConfig(max_outer=2)))
        x, iters, converged = solvers.lagged_restore_step(g, f_k, kernel, params)
        if cfg.max_cg == 2:
            assert iters == 2 and not converged
        assert iters >= 1
        d = x - f_k

        wx, wy = functionals.diffusion_weights(f_k, alpha, variant)

        def apply_A(v):
            return (grid.convolve_adjoint(grid.convolve(v, kernel), kernel)
                    + lam * functionals.apply_weighted_laplacian(wx, wy, v))

        # the premise: along f_k + t d the lagged quadratic is least at t = 1
        residual = grid.convolve_adjoint(g, kernel) - apply_A(f_k)
        assert np.vdot(d, residual) / np.vdot(d, apply_A(d)) == pytest.approx(1.0, abs=1e-6)
        before = tv_objective(f_k, g, kernel, lam, alpha, variant)
        for omega in (0.5, 1.0, 1.5, 1.9):
            after = tv_objective(f_k + omega * d, g, kernel, lam, alpha, variant)
            assert after <= before + solvers.DESCENT_SLACK, omega

    @pytest.mark.parametrize("kernel", RELAX_KERNELS, ids=RELAX_KERNEL_IDS)
    def test_loop_takes_the_stretched_step(self, kernel):
        # one outer step of the loop is the plain step stretched by _RELAX,
        # and its recorded step norm is the stretched one
        g = blurred_piecewise16(kernel)
        params = RestoreParams(lam=0.01, solver=SolverConfig(max_outer=1))
        x, _, _ = solvers.lagged_restore_step(g, g, kernel, params)
        f, report = tv_restore_fixed_point(g, kernel, params)
        np.testing.assert_allclose(f, g + solvers._RELAX * (x - g), rtol=0, atol=1e-14)
        assert report.step_norm_history == [pytest.approx(np.linalg.norm(f - g), rel=1e-12)]

    @pytest.mark.parametrize("kernel, variant", [
        (Kernel.delta(), TVVariant.ISOTROPIC),
        (Kernel.delta(), TVVariant.ANISOTROPIC),
        (Kernel.gaussian(5, 1.0), TVVariant.ISOTROPIC),
    ], ids=["delta-iso", "delta-aniso", "gaussian5-iso"])
    def test_relaxed_loop_reaches_the_plain_fixed_point(self, kernel, variant):
        g = blurred_piecewise16(kernel)
        cfg = SolverConfig(tol_outer=1e-8, max_outer=500, tol_cg=1e-12, forcing=0.0)
        params = RestoreParams(lam=0.01, variant=variant, solver=cfg)
        f, report = tv_restore_fixed_point(g, kernel, params)
        assert report.converged and report.objective_monotone
        plain, plain_cg = g.copy(), 0
        for _ in range(cfg.max_outer):
            x, iters, ok = solvers.lagged_restore_step(g, plain, kernel, params)
            assert ok
            plain, step, plain_cg = x, np.linalg.norm(x - plain), plain_cg + iters
            if step < cfg.tol_outer:
                break
        assert step < cfg.tol_outer
        np.testing.assert_allclose(f, plain, rtol=0, atol=1e-6)
        # and it gets there in fewer CG iterations than the plain steps
        assert report.cg_iterations_total < plain_cg


class TestFixedPointSolver:
    def test_no_penalty_returns_observation(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.0, 1.0, (8, 8))
        f, report = tv_restore_fixed_point(g, Kernel.delta(), RestoreParams(lam=0.0))
        np.testing.assert_allclose(f, g, atol=1e-8)
        assert report.converged
        assert report.outer_iterations == 1

    def test_descent_monitored(self):
        _, noisy = noisy_step()
        for lam in (0.01, 0.05, 0.1):
            f, report = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(lam=lam))
            assert report.objective_monotone
            objs = report.objective_history
            assert len(objs) == report.outer_iterations
            assert all(np.isfinite(objs))
            assert objs[-1] <= tv_objective(noisy, noisy, Kernel.delta(), lam) + 1e-9

    def test_large_penalty_contracts_variance(self):
        _, noisy = noisy_step(24, 24)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(lam=5.0))
        assert f.var() < 0.05 * noisy.var()
        assert abs(f.mean() - noisy.mean()) < 0.05

    def test_histories_consistent(self):
        _, noisy = noisy_step(16, 16)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(lam=0.05))
        n = report.outer_iterations
        assert len(report.objective_history) == n
        assert len(report.step_norm_history) == n
        assert len(report.cg_iters_history) == n
        assert report.cg_iterations_total == sum(report.cg_iters_history)
        assert 1 <= n <= 50

    def test_halts_at_cap(self):
        _, noisy = noisy_step(16, 16)
        cfg = SolverConfig(tol_outer=1e-300, max_outer=4)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(),
                                           RestoreParams(lam=0.1, solver=cfg))
        assert report.outer_iterations == 4
        assert not report.converged

    def test_convergence_flag_truthful(self):
        _, noisy = noisy_step(16, 16)
        cfg = SolverConfig(tol_outer=1e3, max_outer=10)
        _, report = tv_restore_fixed_point(noisy, Kernel.delta(),
                                           RestoreParams(lam=0.1, solver=cfg))
        assert report.converged
        assert report.step_norm_history[-1] < 1e3

    def test_anisotropic_variant_descends_its_energy(self):
        _, noisy = noisy_step(16, 16)
        f, report = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(
            lam=0.05, variant=TVVariant.ANISOTROPIC))
        assert report.objective_monotone
        want = tv_objective(f, noisy, Kernel.delta(), 0.05, variant=TVVariant.ANISOTROPIC)
        assert report.objective_history[-1] == pytest.approx(want, rel=1e-10)

    def test_divergence_carries_report(self):
        # finite samples whose squared residual overflows the objective
        g = 1e200 * np.random.default_rng(0).uniform(0, 1, (16, 16))
        with pytest.raises(SolverDivergenceError,
                           match=r"non-finite objective \(outer iteration 1\)") as exc_info:
            tv_restore_fixed_point(g, Kernel.delta(), RestoreParams(lam=0.1))
        assert isinstance(exc_info.value.report, SolveReport)

    def test_overflowing_jacobi_diagonal_raises(self):
        # lam / alpha overflows the Jacobi diagonal to inf: its inverse would
        # zero every residual entry and PCG would stop at once, leaving the
        # flat start as an unconverged "solution"
        _, noisy = synth.make_step32()
        flat = np.full_like(noisy, noisy.mean())
        with pytest.raises(SolverDivergenceError, match="Jacobi") as exc_info:
            tv_restore_fixed_point(flat, Kernel.delta(), RestoreParams(lam=1e300, alpha=1e-160))
        assert isinstance(exc_info.value.report, SolveReport)

    def test_non_finite_objective_raises_with_report(self):
        # the step itself succeeded; the report keeps only the steps before it
        values = iter([1.0, np.inf])
        with pytest.raises(SolverDivergenceError,
                           match=r"non-finite objective \(outer iteration 2\)") as exc_info:
            solvers.lagged_loop(lambda x: (x + 1.0, 3, True), lambda x: next(values),
                                np.zeros(4), SolverConfig(max_outer=5))
        report = exc_info.value.report
        assert report.objective_history == [1.0]
        assert report.cg_iters_history == [3] and report.cg_iterations_total == 3

    def test_overflowing_step_norm_raises_with_report(self):
        # x_next - x overflows to inf: an error with the (empty) partial
        # report, not a numpy warning and an inf in the step-norm history
        with pytest.raises(SolverDivergenceError,
                           match=r"non-finite step norm \(outer iteration 1\)") as exc_info:
            solvers.lagged_loop(lambda x: (-x, 0, True), lambda x: 0.0,
                                np.full(4, 1.5e308), SolverConfig(max_outer=2))
        assert exc_info.value.report.outer_iterations == 0


def capped_denoise(cfg):
    _, noisy = synth.make_step32()
    return tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(lam=0.05, solver=cfg))[1]


def capped_flow(cfg):
    # a looser outer tolerance lets the outer loop stop before max_outer;
    # three preconditioned CG iterations reach the default forcing
    # tolerance, so every step is solved to tol_cg instead
    pair, _ = synth.make_split_motion()
    return flow_tv(pair, FlowParams(lam=0.003, eps=0.05,
                                    solver=replace(cfg, tol_outer=0.1, forcing=0.0)))[1]


def capped_blind(cfg):
    # the kernel step runs no CG; with this lam_image the image step's CG
    # cannot reach its tolerance in three iterations
    _, noisy = synth.make_step32()
    return blind_deconvolve(noisy, BlindParams(lam_image=1e-2, solver=cfg))[2]


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
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(
            lam=0.05, solver=cfg, variant=TVVariant.ANISOTROPIC))
        f_flip, _ = tv_restore_fixed_point(noisy[:, ::-1].copy(), Kernel.delta(), RestoreParams(
            lam=0.05, solver=cfg, variant=TVVariant.ANISOTROPIC))
        dev = np.abs(f[:, ::-1] - f_flip).max()
        assert dev <= 1e-8

    def test_flip_equivariance_isotropic_first_order(self):
        # the coupled sqrt(dx^2+dy^2) term staggers the two axes by half a
        # pixel, so mirroring only commutes to discretization order, not to
        # solver tolerance; the gap shrinks with the penalty weight
        _, noisy = noisy_step(16, 16, seed=2)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(lam=0.05))
        f_flip, _ = tv_restore_fixed_point(noisy[:, ::-1].copy(), Kernel.delta(),
                                           RestoreParams(lam=0.05))
        assert np.abs(f[:, ::-1] - f_flip).max() <= 0.1

    def test_constant_shift_invariance(self):
        _, noisy = noisy_step(16, 16, seed=4)
        cfg = SolverConfig(tol_cg=1e-12)
        f, _ = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(lam=0.05, solver=cfg))
        f_shift, _ = tv_restore_fixed_point(noisy + 2.0, Kernel.delta(),
                                            RestoreParams(lam=0.05, solver=cfg))
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
        primal, _ = tv_restore_fixed_point(noisy, Kernel.delta(), RestoreParams(
            lam=lam, solver=SolverConfig(tol_cg=1e-10)))
        dual = dual_projection_denoise(noisy, lam, steps=300)
        rel = np.linalg.norm(primal - dual) / np.linalg.norm(primal)
        assert rel <= 0.02

    def test_invalid_arguments(self):
        g = np.zeros((4, 4))
        with pytest.raises(ValueError):
            dual_projection_denoise(g, 0.0)
        with pytest.raises(ValueError):
            dual_projection_denoise(g, 0.1, steps=-1)
        for lam, tau in ((np.nan, 0.25), (np.inf, 0.25), (0.1, np.nan), (0.1, np.inf),
                         (0.1, 0.0)):
            with pytest.raises(ValueError):
                dual_projection_denoise(g, lam, tau=tau)


# the functions that may switch numpy's floating-point warnings off: the two
# solve drivers, the solves that loop outside them and the set-up before a
# driver, each in one block; an overflow anywhere else must reach one of them
ERRSTATE_HOLDERS = ["blind_deconvolve", "conjugate_gradient", "dual_projection_denoise",
                    "gtr_estimate", "lagged_loop", "lasso_estimate"]


def _errstate_owners():
    """The top-level function (or ``module:line`` of another statement)
    around each ``with np.errstate(...)`` in the package's sources."""
    owners = []
    for path in sorted(Path(solvers.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.With) and any(
                        isinstance(item.context_expr, ast.Call)
                        and isinstance(item.context_expr.func, ast.Attribute)
                        and item.context_expr.func.attr == "errstate" for item in sub.items):
                    owners.append(node.name if isinstance(node, ast.FunctionDef)
                                  else f"{path.name}:{node.lineno}")
    return owners


def test_overflow_policy_is_held_by_the_drivers_alone():
    assert sorted(_errstate_owners()) == ERRSTATE_HOLDERS
