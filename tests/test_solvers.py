import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tvkit import functionals, grid, restore, solvers, synth
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

    @pytest.mark.parametrize("make", [
        lambda n: SolverConfig(max_outer=n),
        lambda n: SolverConfig(max_cg=n),
        lambda n: BlindParams(kernel_size=n),
        lambda n: dual_projection_denoise(np.zeros((4, 4)), 0.1, steps=n),
        lambda n: restore.lasso_estimate(np.zeros((4, 4)), Kernel.delta(), 0.1, steps=n),
    ], ids=["max_outer", "max_cg", "kernel_size", "dual-projection-steps", "lasso-steps"])
    def test_counts_must_be_integers(self, make):
        # a non-integral count is refused where it is validated, not by a
        # range() in the middle of a solve; numpy integers are integers
        for bad in (2.5, 3.0, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="must be an integer"):
                make(bad)
        make(np.int64(3))

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

    @pytest.mark.parametrize("a, b, x0, message", [
        # a zero start calls no operator, so the start is given: inf * 0 is NaN
        ([np.inf, 1.0], [1.0, 1.0], np.zeros(2), "non-finite residual entering CG"),
        ([1e300, 1e300], [1e10, 1.0], None, "non-finite curvature at CG iteration 1"),
        # <p, A p> = 1e-100 is finite, and the step 1e100 * A p overflows r
        ([1e300, 1e-300], [1e-200, 1.0], None, "non-finite residual at CG iteration 1"),
    ], ids=["entering", "curvature", "residual"])
    def test_non_finite_names_where(self, a, b, x0, message):
        a = np.array(a)
        with pytest.raises(SolverDivergenceError, match=f"^{message}$"):
            conjugate_gradient(lambda x: a * x, np.array(b), x0=x0)

    def test_null_direction_stops_unconverged(self):
        # <p, A p> = 0 on the first direction: no step taken, not converged
        x, iters, converged = conjugate_gradient(lambda v: 0 * v, np.ones(3))
        assert iters == 0 and not converged
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_zero_start_calls_no_operator_before_iteration_one(self):
        # without x0, r0 is b itself: one operator call per iteration, where
        # a given start costs one more; the iterates are those of x0 = 0
        a, apply_A, b = dense_system(47)
        calls = []

        def counted(v):
            calls.append(v.copy())
            return apply_A(v)

        x, iters, converged = conjugate_gradient(counted, b)
        assert converged and len(calls) == iters >= 2
        assert np.any(calls[0])
        calls.clear()
        want, want_iters, _ = conjugate_gradient(counted, b, x0=np.zeros_like(b))
        assert len(calls) == want_iters + 1 and not np.any(calls[0])
        assert iters == want_iters and np.array_equal(x, want)

    @pytest.mark.parametrize("solve", [
        lambda g, k: restore.ls_estimate(g, k),
        lambda g, k: restore.rls_estimate(g, k, 0.3),
        lambda g, k: restore.gtr_estimate(g, 0.5 * g, k, np.ones_like(g), 0.3),
    ], ids=["ls", "rls", "gtr"])
    def test_linear_estimators_apply_the_operator_once_per_iteration(self, solve,
                                                                     monkeypatch):
        # each operator application is one convolve; the right-hand side
        # H^T P (g - H f0) takes one more, from the zero start of CG alone
        iters, calls = [], []
        cg, convolve = solvers.conjugate_gradient, grid.convolve

        def spy_cg(*args, **kwargs):
            out = cg(*args, **kwargs)
            iters.append(out[1])
            return out

        def spy_convolve(x, kernel, out=None):
            calls.append(x)
            return convolve(x, kernel, out=out)

        monkeypatch.setattr(solvers, "conjugate_gradient", spy_cg)
        monkeypatch.setattr(restore, "convolve", spy_convolve)
        k = Kernel.gaussian(5, 1.0)
        solve(blurred_piecewise16(k), k)
        assert len(iters) == 1 and iters[0] >= 2
        assert len(calls) == iters[0] + 1

    def test_float32_rhs_keeps_the_solve_in_float32(self):
        a, apply_A, b = dense_system(53)
        seen = []

        def apply32(v):
            seen.append(v.dtype)
            return (a.astype(np.float32) @ v.ravel()).reshape(6, 6)

        x, iters, converged = conjugate_gradient(apply32, b.astype(np.float32),
                                                 cfg=SolverConfig(tol_cg=1e-3))
        assert converged and x.dtype == np.float32 and set(seen) == {np.dtype(np.float32)}
        want = np.linalg.solve(a, b.ravel()).reshape(6, 6)
        assert np.linalg.norm(x - want) <= 1e-2 * np.linalg.norm(want)


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
    def test_buffered_operator_matches_allocating_closure(self, kernel, variant,
                                                          monkeypatch):
        # the step's operator writes into its own buffers; it must keep the
        # operands of K^T K x + L(lam w) x, so CG runs the same iterates.
        # An empty float32 range keeps the step in one float64 CG solve
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
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
                    + functionals.apply_weighted_laplacian(lam * wx, lam * wy, x))

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


def piecewise64(kernel, sigma, seed):
    """The 64x64 piecewise scene blurred by ``kernel``, plus noise."""
    clean = synth.make_piecewise64()[0]
    return grid.convolve(clean, kernel) + sigma * synth.gaussian_field(clean.shape, seed)


def spy_cg(monkeypatch):
    """Record the dtype of ``b`` and of every ``apply_A`` argument of each
    `conjugate_gradient` call that `solvers` makes."""
    seen = []
    cg = solvers.conjugate_gradient

    def spy(apply_A, b, *args, **kwargs):
        args_seen = []
        seen.append((np.asarray(b).dtype, args_seen))

        def spied(x):
            args_seen.append(x.dtype)
            return apply_A(x)

        return cg(spied, b, *args, **kwargs)

    monkeypatch.setattr(solvers, "conjugate_gradient", spy)
    return seen


# (kernel, noise, lam) of denoise-256 and deconv-64, and deconv-64's with
# the rank-3 kernel of blind's estimates
MIXED_CASES = {
    "denoise": (Kernel.delta(), 0.05, 0.05),
    "gaussian5": (Kernel.gaussian(5, 1.0), 0.01, 0.01),
    "rank3": (RANK3, 0.01, 0.01),
}


class TestMixedPrecisionStep:
    """Under any forcing term a lagged step solves its corrections in
    float32 sweeps and returns a float64 step."""

    @pytest.mark.parametrize("forcing", [0.1, 0.0])
    @pytest.mark.parametrize("variant", list(TVVariant))
    @pytest.mark.parametrize("case", MIXED_CASES)
    def test_true_residual_meets_the_forcing_threshold(self, case, variant, forcing):
        # every step of a solve, on the float64 system frozen at its start
        kernel, sigma, lam = MIXED_CASES[case]
        params = RestoreParams(lam=lam, variant=variant, solver=SolverConfig(forcing=forcing))
        cfg = params.solver
        g = piecewise64(kernel, sigma, seed=1)
        b = grid.convolve_adjoint(g, kernel)
        f_k, steps = g.copy(), 0
        for _ in range(cfg.max_outer):
            x, iters, converged = solvers.lagged_restore_step(g, f_k, kernel, params)
            assert converged and x.dtype == np.float64
            wx, wy = functionals.diffusion_weights(f_k, params.alpha, variant)

            def apply_A(v):
                return (grid.convolve_adjoint(grid.convolve(v, kernel), kernel)
                        + lam * functionals.apply_weighted_laplacian(wx, wy, v))

            r0 = np.linalg.norm(b - apply_A(f_k))
            threshold = max(cfg.tol_cg * np.linalg.norm(b), cfg.forcing * r0)
            assert np.linalg.norm(b - apply_A(x)) <= (1 + 1e-3) * threshold
            step = solvers._RELAX * (x - f_k)
            f_k, steps = f_k + step, steps + 1
            if np.linalg.norm(step) < cfg.resolved_tol_outer(g.size):
                break
        assert steps >= 5

    def test_iterates_are_float32_and_forcing_zero_runs_sweeps(self, monkeypatch):
        # the default forcing term takes one sweep; forcing 0 takes more than
        # one sweep of 1e-2 to reach tol_cg, every one float32
        seen = spy_cg(monkeypatch)
        g = blurred_piecewise16(Kernel.gaussian(5, 1.0))
        params = RestoreParams(lam=0.01)
        x, iters, _ = solvers.lagged_restore_step(g, g, Kernel.gaussian(5, 1.0), params)
        assert x.dtype == np.float64 and iters >= 1
        (b_dtype, args), = seen
        assert b_dtype == np.float32 and args == [np.dtype(np.float32)] * iters
        seen.clear()
        x, iters, converged = solvers.lagged_restore_step(
            g, g, Kernel.gaussian(5, 1.0), replace(params, solver=SolverConfig(forcing=0.0)))
        assert converged and x.dtype == np.float64 and len(seen) > 1
        assert {b_dtype for b_dtype, _ in seen} == {np.dtype(np.float32)}
        assert [dtype for _, args in seen for dtype in args] == [np.dtype(np.float32)] * iters

    @pytest.mark.parametrize("variant", list(TVVariant))
    @pytest.mark.parametrize("case", MIXED_CASES)
    def test_forcing_zero_sweeps_cost_few_iterations(self, monkeypatch, case, variant):
        # a solve to tol_cg at every step: each sweep restarts CG, which
        # costs at most a tenth more iterations than one float64 CG per
        # step, in the same outer steps and to the same output
        kernel, sigma, lam = MIXED_CASES[case]
        params = RestoreParams(lam=lam, variant=variant, solver=SolverConfig(forcing=0.0))
        g = piecewise64(kernel, sigma, seed=1)
        seen = spy_cg(monkeypatch)
        f, report = tv_restore_fixed_point(g, kernel, params)
        assert {b_dtype for b_dtype, _ in seen} == {np.dtype(np.float32)}
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
        want, want_report = tv_restore_fixed_point(g, kernel, params)
        assert report.converged and want_report.converged
        assert report.outer_iterations == want_report.outer_iterations
        assert report.cg_iterations_total <= 1.1 * want_report.cg_iterations_total
        np.testing.assert_allclose(f, want, rtol=0, atol=1e-6)

    def test_system_beyond_float32_stays_float64(self, monkeypatch):
        # lam / alpha = 1e13 puts the Jacobi diagonal past solvers._F32_SAFE
        seen = spy_cg(monkeypatch)
        g = blurred_piecewise16(Kernel.delta())
        solvers.lagged_restore_step(g, g, Kernel.delta(), RestoreParams(lam=1e10))
        assert [dtype for dtype, _ in seen] == [np.dtype(np.float64)]

    @pytest.mark.parametrize("failure", ["diverges", "no-curvature"])
    def test_failed_float32_solve_is_solved_again_in_float64(self, failure, monkeypatch):
        # a float32 solve that raises, or stops on a direction of no
        # curvature before max_cg, leaves the step to the float64 path
        kernel = Kernel.gaussian(5, 1.0)
        g = blurred_piecewise16(kernel)
        params = RestoreParams(lam=0.01)
        cg = solvers.conjugate_gradient

        def failing(apply_A, b, *args, **kwargs):
            if np.asarray(b).dtype == np.float32:
                if failure == "diverges":
                    raise SolverDivergenceError("non-finite curvature at CG iteration 1")
                return np.zeros_like(b), 0, False
            return cg(apply_A, b, *args, **kwargs)

        monkeypatch.setattr(solvers, "conjugate_gradient", failing)
        x, iters, converged = solvers.lagged_restore_step(g, g, kernel, params)
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
        want, want_iters, want_converged = solvers.lagged_restore_step(g, g, kernel, params)
        assert (iters, converged) == (want_iters, want_converged) and converged
        np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("kernel", [Kernel.delta(), Kernel.gaussian(5, 1.0), RANK3],
                             ids=["delta", "gaussian5", "rank3"])
    def test_observation_beyond_float32_solves_as_in_float64(self, kernel, monkeypatch):
        # g, lam, alpha and the outer tolerance scaled by 1e39 state the same
        # problem, its minimizer scaled by 1e39, in values that overflow
        # float32: the residual is scaled to unit norm before the cast
        s = 1e39
        g = s * blurred_piecewise16(kernel)
        cfg = SolverConfig(tol_outer=s * SolverConfig().resolved_tol_outer(g.size))
        params = RestoreParams(lam=0.01 * s, alpha=functionals.DEFAULT_ALPHA * s, solver=cfg)
        seen = spy_cg(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, report = tv_restore_fixed_point(g, kernel, params)
        # every step solved in float32, none fell back to float64
        assert [dtype for dtype, _ in seen] == [np.dtype(np.float32)] * report.outer_iterations
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
        want, want_report = tv_restore_fixed_point(g, kernel, params)
        assert report.converged and report.cg_iters_history == want_report.cg_iters_history
        np.testing.assert_allclose(f, want, rtol=0, atol=1e-6 * np.abs(want).max())

    def test_float32_operator_writes_into_the_float64_buffers(self, monkeypatch):
        # the float32 operator's three buffers are float32 views of the
        # float64 ones that formed r0: a step allocates one set, not two
        calls = []
        lagged_operator = solvers._lagged_operator

        def spy(kernel, wx, wy, buffers):
            calls.append(buffers)
            return lagged_operator(kernel, wx, wy, buffers)

        monkeypatch.setattr(solvers, "_lagged_operator", spy)
        kernel = Kernel.gaussian(5, 1.0)
        g = blurred_piecewise16(kernel)
        _, iters, _ = solvers.lagged_restore_step(g, g, kernel, RestoreParams(lam=0.01))
        b64, b32 = calls
        assert iters >= 1
        assert [b.dtype for b in b64] == [np.dtype(np.float64)] * 3
        assert [b.dtype for b in b32] == [np.dtype(np.float32)] * 3
        assert all(np.shares_memory(a, b) for a, b in zip(b32, b64, strict=True))

    def test_zero_rhs_returns_zeros(self):
        # H^T g = 0 solves to zero, whatever f_k is, with no CG iteration
        f_k = np.random.default_rng(59).standard_normal((8, 8))
        x, iters, converged = solvers.lagged_restore_step(np.zeros((8, 8)), f_k, Kernel.delta(),
                                                          RestoreParams(lam=0.05))
        assert (iters, converged) == (0, True)
        np.testing.assert_array_equal(x, np.zeros((8, 8)))

    def test_start_at_tolerance_returns_it(self):
        # no penalty and the observation as the start: r0 = 0
        g = np.random.default_rng(61).uniform(0.0, 1.0, (8, 8))
        x, iters, converged = solvers.lagged_restore_step(g, g, Kernel.delta(),
                                                          RestoreParams(lam=0.0))
        assert (iters, converged) == (0, True)
        assert x is not g and np.array_equal(x, g)


def spread_spd(n=48, cond=1e4, seed=67):
    """An SPD matrix with eigenvalues spread log-evenly from 1 to ``cond``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, np.log10(cond), n)) @ q.T


def dense_operator(a):
    """`solvers._mixed_precision_cg`'s operator for the matrix ``a``: it
    computes in the dtype of its one buffer and writes into it."""
    def operator(buffers):
        out, = buffers
        m = a.astype(out.dtype)
        return lambda x: np.matmul(m, x, out=out)

    return operator


class TestMixedPrecisionSolve:
    """`solvers._mixed_precision_cg` on a dense SPD system."""

    def test_sweeps_reach_tol_cg_on_the_float64_residual(self, monkeypatch):
        # no forcing term: sweeps of 1e-2 each, restarted from the float64
        # residual, until one aimed at tol_cg ||b|| converges
        a = spread_spd()
        b = np.random.default_rng(71).standard_normal(len(a))
        b_given = b.copy()
        cfg = SolverConfig(forcing=0.0)
        seen = spy_cg(monkeypatch)
        tols = []
        cg = solvers.conjugate_gradient

        def record_tol(*args, **kwargs):
            tols.append(kwargs["cfg"].tol_cg)
            return cg(*args, **kwargs)

        monkeypatch.setattr(solvers, "conjugate_gradient", record_tol)
        x, iters, converged = solvers._mixed_precision_cg(
            dense_operator(a), lambda buffers: None, lambda: b, np.zeros(len(a)), cfg,
            [np.empty(len(a))], (1.0, 1e4))
        assert converged and x.dtype == np.float64
        # every residual read b, and none wrote into it
        assert np.array_equal(b, b_given)
        assert np.linalg.norm(b - a @ x) <= (1 + 1e-3) * cfg.tol_cg * np.linalg.norm(b)
        assert len(seen) >= 3 and {dtype for dtype, _ in seen} == {np.dtype(np.float32)}
        assert iters == sum(len(args) for _, args in seen)
        # every sweep but the last asks for solvers._MIXED_FORCING
        assert tols[:-1] == pytest.approx([solvers._MIXED_FORCING] * (len(tols) - 1))
        assert tols[-1] > solvers._MIXED_FORCING

    @pytest.mark.parametrize("diag_range", [(1.0, 2.0**41), (2.0**-41, 1.0), (1.0, np.inf),
                                            (np.nan, 1.0)],
                             ids=["above", "below", "inf", "nan"])
    def test_range_outside_float32_solves_once_in_float64(self, diag_range, monkeypatch):
        a = spread_spd()
        b = np.random.default_rng(73).standard_normal(len(a))
        seen = spy_cg(monkeypatch)
        x, iters, converged = solvers._mixed_precision_cg(
            dense_operator(a), lambda buffers: None, lambda: b, np.zeros(len(a)),
            SolverConfig(forcing=0.0), [np.empty(len(a))], diag_range)
        want = conjugate_gradient(lambda v: a @ v, b, x0=np.zeros(len(a)))
        assert [dtype for dtype, _ in seen] == [np.dtype(np.float64)]
        assert (iters, converged) == want[1:]
        np.testing.assert_array_equal(x, want[0])


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
