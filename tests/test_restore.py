import numpy as np
import pytest

from tvkit import grid, restore, synth
from tvkit.functionals import tv_isotropic
from tvkit.grid import Kernel
from tvkit.restore import (
    BlindParams,
    DegenerateKernelError,
    RestoreParams,
    blind_deconvolve,
    gtr_estimate,
    lasso_estimate,
    ls_estimate,
    psnr,
    rls_estimate,
    tv_deconvolve,
    tv_denoise,
)
from tvkit.solvers import SolveReport, SolverConfig, SolverDivergenceError

from conftest import materialize


TIGHT = SolverConfig(tol_cg=1e-12, max_cg=5000)


def well_posed_kernel():
    # center-heavy blur: its normal operator has smallest singular value
    # ~0.5, so iterative schemes converge fast and inverses are benign
    w = 0.4 * Kernel.box(3).weights
    w[1, 1] += 0.6
    return Kernel(w)


def noisy_step(h=32, w=32, sigma=0.05, seed=0):
    rng = np.random.default_rng(seed)
    f = np.full((h, w), 0.25)
    f[:, w // 2:] = 0.75
    return f, f + sigma * rng.standard_normal((h, w))


class TestLeastSquares:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(0.0, 1.0, (6, 6))
        np.testing.assert_allclose(ls_estimate(g, Kernel.delta()), g, atol=1e-10)

    def test_noise_free_recovery(self):
        rng = np.random.default_rng(2)
        f_star = rng.uniform(0.0, 1.0, (8, 8))
        g = grid.convolve(f_star, Kernel.box(3))
        f = ls_estimate(g, Kernel.box(3), TIGHT)
        assert np.abs(f - f_star).max() <= 1e-4

    def test_beats_observation_residual(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0.0, 1.0, (10, 10))
        k = Kernel.binomial3()
        f = ls_estimate(g, k)
        res_f = np.linalg.norm(grid.convolve(f, k) - g)
        res_g = np.linalg.norm(grid.convolve(g, k) - g)
        assert res_f <= res_g + 1e-12


class TestRegularizedLeastSquares:
    def test_zero_penalty_equals_ls(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0.0, 1.0, (7, 7))
        k = Kernel.binomial3()
        np.testing.assert_array_equal(rls_estimate(g, k, 0.0), ls_estimate(g, k))

    def test_identity_kernel_closed_form(self):
        rng = np.random.default_rng(7)
        g = rng.uniform(0.0, 1.0, (6, 6))
        lam = 0.7
        f = rls_estimate(g, Kernel.delta(), lam, TIGHT)
        np.testing.assert_allclose(f, g / (1 + lam * lam), atol=1e-10)

    def test_dense_oracle(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.0, 1.0, (6, 6))
        k = Kernel.binomial3()
        lam = 0.3
        n = 36
        H = np.zeros((n, n))
        for c in range(n):
            e = np.zeros(n)
            e[c] = 1.0
            H[:, c] = grid.convolve(e.reshape(6, 6), k).ravel()
        want = np.linalg.solve(H.T @ H + lam * lam * np.eye(n), H.T @ g.ravel())
        f = rls_estimate(g, k, lam, TIGHT)
        np.testing.assert_allclose(f.ravel(), want, atol=1e-8)


class TestGeneralizedTikhonov:
    def test_reduces_to_rls(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(0.0, 1.0, (6, 6))
        k = Kernel.binomial3()
        f_gtr = gtr_estimate(g, np.zeros_like(g), k, np.ones_like(g), 0.4, TIGHT)
        f_rls = rls_estimate(g, k, 0.4, TIGHT)
        np.testing.assert_allclose(f_gtr, f_rls, atol=1e-10)

    def test_consistent_prior_needs_no_correction(self):
        rng = np.random.default_rng(13)
        f0 = rng.uniform(0.0, 1.0, (6, 6))
        k = Kernel.binomial3()
        g = grid.convolve(f0, k)
        f = gtr_estimate(g, f0, k, np.full_like(f0, 2.0), 0.5, TIGHT)
        np.testing.assert_allclose(f, f0, atol=1e-10)

    def test_dense_oracle_with_weights(self):
        rng = np.random.default_rng(17)
        g = rng.uniform(0.0, 1.0, (5, 5))
        f0 = rng.uniform(0.0, 1.0, (5, 5))
        p = rng.uniform(0.5, 2.0, (5, 5))
        k = Kernel.binomial3()
        lam = 0.25
        n = 25
        H = np.zeros((n, n))
        for c in range(n):
            e = np.zeros(n)
            e[c] = 1.0
            H[:, c] = grid.convolve(e.reshape(5, 5), k).ravel()
        P = np.diag(p.ravel())
        lhs = H.T @ P @ H + lam * lam * np.eye(n)
        rhs = H.T @ P @ (g.ravel() - H @ f0.ravel())
        want = f0.ravel() + np.linalg.solve(lhs, rhs)
        f = gtr_estimate(g, f0, k, p, lam, TIGHT)
        np.testing.assert_allclose(f.ravel(), want, atol=1e-8)

    def test_nonpositive_weight_rejected(self):
        g = np.zeros((4, 4))
        p = np.ones((4, 4))
        p[2, 2] = 0.0
        with pytest.raises(ValueError):
            gtr_estimate(g, g, Kernel.delta(), p, 0.1)


class TestTVDenoise:
    def test_zero_penalty_returns_observation(self):
        rng = np.random.default_rng(19)
        g = rng.uniform(0.0, 1.0, (8, 8))
        f, report = tv_denoise(g, RestoreParams(lam=0.0))
        np.testing.assert_allclose(f, g, atol=1e-8)
        assert report.converged

    def test_improves_psnr_on_noisy_step(self):
        clean, noisy = noisy_step()
        f, _ = tv_denoise(noisy, RestoreParams(lam=0.05))
        assert psnr(f, clean) >= psnr(noisy, clean) + 2.0

    def test_output_tv_not_larger(self):
        _, noisy = noisy_step(24, 24)
        for lam in (0.01, 0.1):
            f, _ = tv_denoise(noisy, RestoreParams(lam=lam))
            assert tv_isotropic(f) <= tv_isotropic(noisy) + 1e-9


class TestTVDeconvolve:
    def test_identity_kernel_matches_denoise(self):
        _, noisy = noisy_step(16, 16)
        params = RestoreParams(lam=0.05)
        f_dec, _ = tv_deconvolve(noisy, Kernel.delta(), params)
        f_den, _ = tv_denoise(noisy, params)
        np.testing.assert_array_equal(f_dec, f_den)

    def test_sharpens_blurred_edge(self):
        rng = np.random.default_rng(23)
        clean, _ = noisy_step()
        g = grid.convolve(clean, Kernel.box(3)) + 0.01 * rng.standard_normal(clean.shape)
        f, _ = tv_deconvolve(g, Kernel.box(3), RestoreParams(lam=0.01))
        sharp = np.abs(np.diff(f, axis=1)).max()
        assert sharp > np.abs(np.diff(g, axis=1)).max()

    def test_penalty_sweep_tradeoff(self):
        rng = np.random.default_rng(29)
        clean, _ = noisy_step()
        g = grid.convolve(clean, Kernel.box(3)) + 0.01 * rng.standard_normal(clean.shape)
        fids, tvs = [], []
        for lam in (0.001, 0.01, 0.1):
            f, _ = tv_deconvolve(g, Kernel.box(3), RestoreParams(lam=lam))
            r = grid.convolve(f, Kernel.box(3)) - g
            fids.append(0.5 * float(np.sum(r * r)))
            tvs.append(tv_isotropic(f))
        assert fids == sorted(fids)
        assert tvs == sorted(tvs, reverse=True)


class TestForcingQuality:
    """The default forcing term stops each lagged step's CG early; its output
    must be as close to the minimizer as the exact-CG output, at no higher
    objective."""

    @pytest.mark.parametrize("kernel, sigma, lam", [
        (Kernel.delta(), 0.05, 0.05),
        (Kernel.gaussian(5, 1.0), 0.01, 0.01),
    ], ids=["denoise", "deconv-gaussian5"])
    def test_no_farther_from_minimizer_than_exact_cg(self, kernel, sigma, lam):
        clean, _ = synth.make_piecewise64()
        g = grid.convolve(clean, kernel) + sigma * synth.gaussian_field(clean.shape, 0)
        # a tighter tol_outer = 1e-7 moves either distance by under 0.2%
        tight, tight_rep = tv_deconvolve(g, kernel, RestoreParams(
            lam=lam, solver=SolverConfig(tol_outer=1e-5, tol_cg=1e-10, max_outer=500,
                                         forcing=0.0)))
        assert tight_rep.converged
        exact, exact_rep = tv_deconvolve(g, kernel, RestoreParams(
            lam=lam, solver=SolverConfig(forcing=0.0)))
        inexact, rep = tv_deconvolve(g, kernel, RestoreParams(lam=lam))
        assert rep.forcing == 0.1 and rep.converged
        assert rep.cg_iterations_total < exact_rep.cg_iterations_total
        assert np.linalg.norm(inexact - tight) <= 1.05 * np.linalg.norm(exact - tight)
        assert rep.objective_history[-1] <= exact_rep.objective_history[-1]


class TestBlindDeconvolve:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.clean = np.full((24, 24), 0.2)
        self.clean[6:18, 4:12] = 0.8
        self.clean[14:22, 14:22] = 0.5
        self.ktrue = Kernel.motion_horizontal(3)
        self.g = grid.convolve(self.clean, self.ktrue)

    def test_true_kernel_is_fixed_point(self):
        params = BlindParams(solver=SolverConfig(max_outer=30))
        f, khat, report = blind_deconvolve(self.g, params, kernel0=self.ktrue)
        assert np.abs(khat.weights - self.ktrue.weights).max() <= 1e-3
        assert np.sqrt(np.mean((f - self.clean) ** 2)) <= 1e-2

    def test_constant_image_terminates(self):
        g = np.full((16, 16), 0.5)
        f, khat, report = blind_deconvolve(g, BlindParams())
        assert report.outer_iterations <= BlindParams().solver.max_outer
        assert khat.weights.min() >= 0.0
        assert khat.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_kernel_always_normalized(self):
        params = BlindParams(lam_image=3e-3, lam_kernel=0.5,
                             solver=SolverConfig(max_outer=3))
        _, khat, _ = blind_deconvolve(self.g, params)
        assert khat.weights.min() >= 0.0
        assert khat.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_report_histories_consistent(self):
        params = BlindParams(solver=SolverConfig(max_outer=4))
        _, _, report = blind_deconvolve(self.g, params)
        n = report.outer_iterations
        assert len(report.objective_history) == n
        assert len(report.step_norm_history) == n
        # the total also counts the initial image solve before alternation
        assert report.cg_iterations_total >= sum(report.cg_iters_history)

    def test_kernel0_shape_validated(self):
        with pytest.raises(ValueError):
            blind_deconvolve(self.g, BlindParams(kernel_size=5), kernel0=self.ktrue)

    def test_even_kernel_size_rejected(self):
        with pytest.raises(ValueError):
            BlindParams(kernel_size=4)

    @pytest.mark.parametrize("ks", [3, 5])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (7, 9)])
    def test_kernel_adjoint_identity(self, shape, ks):
        rng = np.random.default_rng(41)
        f = rng.standard_normal(shape)
        h = rng.standard_normal((ks, ks))
        r = rng.standard_normal(shape)
        lhs = grid.inner(restore._image_times_kernel(f, h), r)
        rhs = grid.inner(h, restore._image_times_kernel_adjoint(f, r, ks))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("ks", [3, 5])
    def test_kernel_adjoint_dense_transpose(self, ks):
        # columns probe unit kernels (forward) and unit residuals (adjoint)
        rng = np.random.default_rng(43)
        f = rng.standard_normal((4, 5))
        A = np.column_stack([
            restore._image_times_kernel(f, e.reshape(ks, ks)).ravel()
            for e in np.eye(ks * ks)
        ])
        At = np.column_stack([
            restore._image_times_kernel_adjoint(f, e.reshape(4, 5), ks).ravel()
            for e in np.eye(20)
        ])
        assert np.abs(A.T - At).max() < 1e-14

    @pytest.mark.parametrize("ks", [3, 5])
    @pytest.mark.parametrize("shape", [(2, 3), (7, 9)])
    def test_kernel_step_jacobi_diagonal(self, shape, ks):
        # the kernel step's preconditioner: diag(F^T F) of the dense F
        rng = np.random.default_rng(53)
        f = rng.standard_normal(shape)
        A = materialize(lambda x: restore._image_times_kernel(f, x), (ks, ks))
        got = restore._image_times_kernel_adjoint(f * f, np.ones_like(f), ks)
        np.testing.assert_allclose(got.ravel(), np.diag(A.T @ A), rtol=1e-13, atol=0)

    def test_unregularized_kernel_step_is_projected_least_squares(self):
        # lam_kernel = 0 leaves only the data term: the step is the projected
        # dense least-squares kernel
        rng = np.random.default_rng(47)
        f = rng.uniform(0.0, 1.0, (8, 8))
        g = grid.convolve(f, self.ktrue) + 0.01 * rng.standard_normal((8, 8))
        params = BlindParams(lam_kernel=0.0, solver=SolverConfig(tol_cg=1e-12, forcing=0.0))
        h, _, converged = restore._kernel_step(g, f, Kernel.delta(3).weights, params)
        A = materialize(lambda x: restore._image_times_kernel(f, x), (3, 3))
        h_ls = np.linalg.lstsq(A, g.ravel(), rcond=None)[0].reshape(3, 3)
        assert converged
        np.testing.assert_allclose(h, restore._project_kernel(h_ls), rtol=1e-9, atol=1e-12)

    def test_degenerate_projection_signals(self):
        with pytest.raises(DegenerateKernelError):
            restore._project_kernel(np.full((3, 3), -1.0))

    def test_degenerate_kernel_carries_partial_report(self, monkeypatch):
        # the first alternation projects once; fail the second projection,
        # with an outer tolerance small enough that a second one runs
        project = restore._project_kernel
        calls = []

        def collapse_on_second_call(weights):
            calls.append(weights)
            if len(calls) == 2:
                raise DegenerateKernelError("kernel collapsed")
            return project(weights)

        monkeypatch.setattr(restore, "_project_kernel", collapse_on_second_call)
        params = BlindParams(solver=SolverConfig(max_outer=4, tol_outer=1e-12))
        with pytest.raises(DegenerateKernelError) as exc_info:
            blind_deconvolve(self.g, params)
        err = exc_info.value
        # one failure type: a collapsed kernel is a solver failure that
        # names its outer iteration
        assert isinstance(err, SolverDivergenceError)
        assert "outer iteration 2" in str(err)
        report = err.report
        assert isinstance(report, SolveReport)
        assert report.outer_iterations >= 1
        assert len(report.objective_history) == report.outer_iterations
        # the pre-seeded total still counts the initial image solve
        _, init_rep = tv_deconvolve(self.g, Kernel.delta(params.kernel_size), RestoreParams(
            lam=params.lam_image, alpha=params.alpha, solver=params.solver))
        assert init_rep.cg_iterations_total > 0
        assert report.cg_iterations_total == (init_rep.cg_iterations_total
                                              + sum(report.cg_iters_history))


class TestLasso:
    def test_identity_kernel_soft_threshold(self):
        rng = np.random.default_rng(37)
        g = rng.uniform(-1.0, 1.0, (6, 6))
        t = 0.3
        f = lasso_estimate(g, Kernel.delta(), t, steps=200)
        want = np.sign(g) * np.maximum(np.abs(g) - t, 0.0)
        np.testing.assert_allclose(f, want, atol=1e-10)

    def test_vanishing_penalty_approaches_ls(self):
        rng = np.random.default_rng(41)
        k = well_posed_kernel()
        g = grid.convolve(rng.uniform(0.0, 1.0, (5, 5)), k)
        f_ls = ls_estimate(g, k, TIGHT)
        f_l1 = lasso_estimate(g, k, 1e-8, steps=500)
        assert np.abs(f_l1 - f_ls).max() <= 1e-3

    def test_huge_penalty_kills_everything(self):
        rng = np.random.default_rng(43)
        g = rng.uniform(0.0, 1.0, (6, 6))
        f = lasso_estimate(g, Kernel.binomial3(), 1e3, steps=50)
        np.testing.assert_array_equal(f, np.zeros((6, 6)))

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(47)
        k = Kernel.binomial3()
        g = rng.uniform(0.0, 1.0, (6, 6))
        t = 0.05

        def objective(f):
            r = grid.convolve(f, k) - g
            return 0.5 * float(np.sum(r * r)) + t * float(np.abs(f).sum())

        objs = [objective(lasso_estimate(g, k, t, steps=s)) for s in range(1, 12)]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_invalid_penalty(self):
        g = np.zeros((4, 4))
        with pytest.raises(ValueError):
            lasso_estimate(g, Kernel.delta(), 0.0)
        with pytest.raises(ValueError):
            lasso_estimate(g, Kernel.delta(), -0.1)


class TestPSNR:
    def test_exact_match_is_capped(self):
        g = np.full((5, 5), 0.3)
        assert psnr(g, g) == 300.0

    def test_uniform_error_closed_form(self):
        ref = np.zeros((10, 10))
        assert psnr(ref + 0.1, ref) == pytest.approx(20.0, abs=1e-12)
        assert psnr(ref + 0.1, ref, peak=2.0) == pytest.approx(
            10 * np.log10(4.0 / 0.01), abs=1e-12)

    def test_formula_oracle(self):
        rng = np.random.default_rng(53)
        f = rng.uniform(0.0, 1.0, (7, 9))
        ref = rng.uniform(0.0, 1.0, (7, 9))
        mse = np.mean((f - ref) ** 2)
        assert psnr(f, ref) == pytest.approx(10 * np.log10(1.0 / mse), rel=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 3)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 3)), np.zeros((3, 3)), peak=0.0)
