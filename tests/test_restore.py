import tracemalloc

import numpy as np
import pytest

from tvkit import functionals, grid, restore, solvers, synth
from tvkit.flow import FlowParams, FlowVariant, FramePair, flow_image_driven, flow_tv
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

from conftest import materialize, noisy_step


TIGHT = SolverConfig(tol_cg=1e-12, max_cg=5000)


def well_posed_kernel():
    # center-heavy blur: its normal operator has smallest singular value
    # ~0.5, so iterative schemes converge fast and inverses are benign
    w = 0.4 * Kernel.box(3).weights
    w[1, 1] += 0.6
    return Kernel(w)


def _uniform(scale):
    return scale * np.random.default_rng(31).uniform(0.0, 1.0, (16, 16))


def _scaled_ramp_shift(scale):
    pair, _ = synth.make_ramp_shift()
    return FramePair(scale * pair.f1, scale * pair.f2)


# rank 2, so it runs the patch strips of grid._taps
PLUS = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])

RESTORE_KERNELS = {
    "factored": Kernel.gaussian(5, 1.0),
    "rank3": Kernel(np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [0.0, 1.0, 1.0]])),
    "delta": Kernel.delta(),
}

# one overflowing call per solve driver, and whether it runs in
# `solvers.lagged_loop` and so carries the partial report
OVERFLOWS = [
    *(pytest.param(lambda k=k, s=s: tv_deconvolve(_uniform(s), k, RestoreParams(lam=0.01)),
                   True, id=f"{name}-{s:g}")
      for name, k in RESTORE_KERNELS.items() for s in (1e200, 1.7e308)),
    # a rank-3 kernel with zero taps (which enter its patch-strip products)
    # under an overflowing lambda, as `tvkit deconv --lambda 1e308` runs it:
    # the Jacobi diagonal overflows before CG
    pytest.param(lambda: tv_deconvolve(_uniform(1.0), RESTORE_KERNELS["rank3"],
                                       RestoreParams(lam=1e308)), True, id="rank3-lam-1e+308"),
    pytest.param(lambda: blind_deconvolve(_uniform(1e200), BlindParams()), True,
                 id="blind-1e+200"),
    # the initial image solve survives, the kernel step's Gram overflows
    pytest.param(lambda: blind_deconvolve(_uniform(1e154), BlindParams()), True,
                 id="blind-1e+154"),
    *(pytest.param(lambda s=s: flow_tv(_scaled_ramp_shift(s), FlowParams()), True,
                   id=f"flow-tv-{s:g}") for s in (1e160, 1.7e308)),
    # at 1.7e308 the frame average itself overflows
    *(pytest.param(lambda s=s: flow_image_driven(_scaled_ramp_shift(s),
                                                 FlowParams(variant=FlowVariant.IMAGE_DRIVEN)),
                   True, id=f"flow-an-{s:g}") for s in (1e160, 1.7e308)),
    pytest.param(lambda: solvers.conjugate_gradient(lambda x: (x * 1e300) * 1e10, np.ones(4)),
                 False, id="cg"),
    pytest.param(lambda: lasso_estimate(_uniform(1.7e308), Kernel.box(3), 0.1), False,
                 id="lasso"),
    # the step size 1 / (sum |h|)^2 itself overflows
    *(pytest.param(lambda s=s: lasso_estimate(_uniform(1.0), Kernel(np.full((3, 3), s)), 0.1),
                   False, id=f"lasso-kernel-{s:g}") for s in (1e200, 1e308)),
    # the right-hand side H^T P (g - H f0), formed before CG, overflows
    pytest.param(lambda: ls_estimate(_uniform(1.0), Kernel(np.full((3, 3), 1e308))), False,
                 id="ls-kernel-1e+308"),
    pytest.param(lambda: rls_estimate(_uniform(1.0), Kernel(1e308 * PLUS), 0.1), False,
                 id="rls-plus-1e+308"),
    pytest.param(lambda: solvers.dual_projection_denoise(_uniform(1.0), 0.1, tau=1e308), False,
                 id="dual-tau"),
    pytest.param(lambda: solvers.dual_projection_denoise(_uniform(1e300), 1e-10), False,
                 id="dual-scale"),
]


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

    @pytest.mark.parametrize("q_lambda, weight", [
        (np.nan, 1.0), (np.inf, 1.0), (-1.0, 1.0), (0.1, np.nan), (0.1, np.inf), (0.1, 0.0),
    ], ids=["q-nan", "q-inf", "q-negative", "p-nan", "p-inf", "p-zero"])
    def test_bad_parameter_rejected(self, q_lambda, weight):
        # a ValueError before CG runs, not a solver failure
        g = np.ones((4, 4))
        p = np.ones((4, 4))
        p[2, 2] = weight
        with pytest.raises(ValueError, match="finite"):
            gtr_estimate(g, np.zeros_like(g), Kernel.delta(), p, q_lambda)
        if weight == 1.0:
            with pytest.raises(ValueError, match="finite"):
                rls_estimate(g, Kernel.delta(), q_lambda)

    @pytest.mark.parametrize("f0_shape, p_shape", [((4, 5), (4, 4)), ((4, 4), (4, 5))],
                             ids=["f0", "p-weight"])
    def test_shape_mismatch_rejected(self, f0_shape, p_shape):
        with pytest.raises(ValueError, match="same shape"):
            gtr_estimate(np.ones((4, 4)), np.zeros(f0_shape), Kernel.delta(), np.ones(p_shape),
                         0.1)


class TestTVDenoise:
    @pytest.mark.parametrize("bad", [dict(lam=np.nan), dict(lam=np.inf), dict(lam=-0.1),
                                     dict(alpha=np.inf), dict(alpha=np.nan), dict(alpha=0.0),
                                     dict(variant="bogus")])
    def test_params_validated(self, bad):
        with pytest.raises(ValueError):
            RestoreParams(**bad)

    @pytest.mark.parametrize("variant", list(functionals.TVVariant))
    def test_variant_given_by_value(self, variant):
        # the value solves the member's problem, not the anisotropic one
        _, noisy = noisy_step(12, 12)
        params = RestoreParams(lam=0.1, variant=variant.value)
        assert params.variant is variant
        f, _ = tv_denoise(noisy, params)
        assert np.array_equal(f, tv_denoise(noisy, RestoreParams(lam=0.1, variant=variant))[0])

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


    # under the suite's error::RuntimeWarning filter an overflow in any
    # solve driver (restore with a factored, rank-3 or delta kernel, blind,
    # both flows, CG itself, LASSO, LS/RLS, the dual projection) must raise
    # SolverDivergenceError, with the partial report from the lagged loop,
    # not a numpy warning
    @pytest.mark.parametrize("solve, loop_driven", OVERFLOWS)
    def test_overflow_raises_divergence_not_warning(self, solve, loop_driven):
        with pytest.raises(SolverDivergenceError) as exc_info:
            solve()
        report = exc_info.value.report
        if loop_driven:
            assert "(outer iteration 1)" in str(exc_info.value)
            assert isinstance(report, SolveReport) and report.outer_iterations == 0
        else:
            assert report is None


def _one_nan():
    g = np.random.default_rng(59).uniform(0.0, 1.0, (8, 8))
    g[3, 4] = np.nan
    return g


# a non-finite or empty observation (or prior mean) is an input error at
# every solve entry point, raised before any solve, as such a frame is to flow
@pytest.mark.parametrize("solve", [
    pytest.param(lambda g: tv_deconvolve(g, Kernel.box(3), RestoreParams()), id="tv-deconvolve"),
    pytest.param(lambda g: tv_denoise(g, RestoreParams()), id="tv-denoise"),
    pytest.param(lambda g: blind_deconvolve(g, BlindParams()), id="blind"),
    pytest.param(lambda g: ls_estimate(g, Kernel.box(3)), id="ls"),
    pytest.param(lambda g: rls_estimate(g, Kernel.box(3), 0.1), id="rls"),
    pytest.param(lambda g: gtr_estimate(np.zeros(g.shape), g, Kernel.box(3), np.ones(g.shape),
                                        0.1), id="gtr-f0"),
    pytest.param(lambda g: lasso_estimate(g, Kernel.box(3), 0.1), id="lasso"),
    pytest.param(lambda g: solvers.dual_projection_denoise(g, 0.1), id="dual-projection"),
])
def test_non_finite_observation_is_input_error(solve):
    with pytest.raises(ValueError, match="non-finite"):
        solve(_one_nan())
    with pytest.raises(ValueError, match="no pixels"):
        solve(np.zeros((0, 0)))


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

    def test_one_kernel_step_and_one_image_step_per_alternation(self, monkeypatch):
        # the initial image solve is the only full restore; every alternation
        # after it makes one kernel step and one lagged image step, and only
        # the image steps go through lagged_restore_step
        steps, kernel_steps, solves = [], [], []
        lagged_step, fixed_point = solvers.lagged_restore_step, solvers.tv_restore_fixed_point
        kernel_step = restore._kernel_step

        def counting_step(*args, **kwargs):
            steps.append(1)
            return lagged_step(*args, **kwargs)

        def counting_kernel_step(*args, **kwargs):
            kernel_steps.append(1)
            return kernel_step(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            solves.append(fixed_point(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(solvers, "lagged_restore_step", counting_step)
        monkeypatch.setattr(restore, "_kernel_step", counting_kernel_step)
        monkeypatch.setattr(solvers, "tv_restore_fixed_point", counting_solve)
        params = BlindParams(lam_image=3e-3, lam_kernel=0.5, solver=SolverConfig(max_outer=4))
        _, _, report = blind_deconvolve(self.g, params)
        assert len(solves) == 1
        init_outer = solves[0][1].outer_iterations
        assert report.outer_iterations == 4
        assert len(kernel_steps) == report.outer_iterations
        assert len(steps) == init_outer + report.outer_iterations

    def test_objective_is_the_restoration_objective_plus_kernel_tv(self):
        params = BlindParams(lam_image=3e-3, lam_kernel=0.5, solver=SolverConfig(max_outer=4))
        f, khat, report = blind_deconvolve(self.g, params)
        expected = (functionals.tv_objective(f, self.g, khat, params.lam_image, params.alpha)
                    + params.lam_kernel * tv_isotropic(khat.weights, params.alpha))
        assert report.objective_history[-1] == pytest.approx(expected, rel=1e-12, abs=0)

    def kernel_step_norms(self, monkeypatch):
        """Record the norm of every kernel step of `blind_deconvolve`."""
        norms, kernel_step = [], restore._kernel_step

        def spy(g, f, h_k, params):
            h = kernel_step(g, f, h_k, params)
            norms.append(float(np.linalg.norm(h - h_k)))
            return h

        monkeypatch.setattr(restore, "_kernel_step", spy)
        return norms

    def test_piecewise_fixture_descends_and_converges(self, monkeypatch):
        # the fixture of acceptance test 08: the loop stops on the image
        # step before its cap, and the report calls it converged exactly
        # when the last kernel step was below its own tolerance too
        clean, _ = synth.make_piecewise64()
        g = grid.convolve(clean, self.ktrue)
        params = BlindParams(lam_image=3e-3, lam_kernel=0.5, kernel_size=3,
                             solver=SolverConfig(max_outer=60))
        norms = self.kernel_step_norms(monkeypatch)
        _, _, report = blind_deconvolve(g, params)
        assert report.objective_monotone
        assert report.outer_iterations < params.solver.max_outer
        assert report.step_norm_history[-1] < params.solver.resolved_tol_outer(g.size)
        assert report.converged == (norms[-1] < params.solver.resolved_tol_outer(9))

    def test_settled_image_with_moving_kernel_is_not_converged(self, monkeypatch):
        # default parameters: the image step falls below its tolerance in
        # the first alternation while the kernel is still the delta, 0.998
        # at the center, and still moving
        norms = self.kernel_step_norms(monkeypatch)
        _, khat, report = blind_deconvolve(self.g, BlindParams())
        cfg = BlindParams().solver
        assert report.outer_iterations == 1
        assert report.step_norm_history[-1] < cfg.resolved_tol_outer(self.g.size)
        assert khat.weights[1, 1] > 0.99
        assert norms[-1] > cfg.resolved_tol_outer(9)
        assert not report.converged and all(report.cg_converged_history)

    def test_settled_kernel_and_image_converge(self, monkeypatch):
        # with a tight outer tolerance both the image and the kernel settle
        params = BlindParams(lam_image=3e-3, lam_kernel=0.5,
                             solver=SolverConfig(tol_outer=1e-5, max_outer=400))
        norms = self.kernel_step_norms(monkeypatch)
        _, _, report = blind_deconvolve(self.g, params)
        assert report.outer_iterations < params.solver.max_outer
        assert norms[-1] < params.solver.resolved_tol_outer(9)
        assert report.converged

    def test_kernel0_shape_validated(self):
        with pytest.raises(ValueError):
            blind_deconvolve(self.g, BlindParams(kernel_size=5), kernel0=self.ktrue)

    # no positive tap, and positive taps whose sum overflows: either would
    # project to a zero kernel, so it is an input error raised before any solve
    @pytest.mark.parametrize("weights", [-np.ones((3, 3)), np.full((3, 3), 1e308)],
                             ids=["negative", "overflowing-sum"])
    def test_kernel0_without_positive_mass_is_input_error(self, weights, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(solvers, "tv_restore_fixed_point", never)
        with pytest.raises(ValueError, match="kernel0"):
            blind_deconvolve(self.g, BlindParams(), kernel0=Kernel(weights))

    def test_even_kernel_size_rejected(self):
        with pytest.raises(ValueError):
            BlindParams(kernel_size=4)

    @pytest.mark.parametrize("bad", [dict(lam_image=np.nan), dict(lam_image=np.inf),
                                     dict(lam_kernel=np.nan), dict(lam_kernel=np.inf),
                                     dict(alpha=np.inf), dict(alpha=np.nan)])
    def test_params_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BlindParams(**bad)

    @pytest.mark.parametrize("ks", [3, 5])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (7, 9)])
    def test_kernel_adjoint_identity(self, shape, ks):
        rng = np.random.default_rng(41)
        f = rng.standard_normal(shape)
        h = rng.standard_normal((ks, ks))
        r = rng.standard_normal(shape)
        fp = grid.pad_edge(f, ks // 2, ks // 2)
        lhs = grid.inner(grid._taps(fp, h), r)
        rhs = grid.inner(h, restore._image_times_kernel_adjoint(fp, r))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("ks", [3, 5])
    def test_kernel_map_is_the_convolve_tap_loop(self, ks):
        # over one padded image, bit for bit convolve for a kernel of rank > 1
        rng = np.random.default_rng(59)
        f = rng.standard_normal((9, 7))
        h = rng.uniform(0.0, 1.0, (ks, ks))
        assert Kernel(h).factors is None
        got = grid._taps(grid.pad_edge(f, ks // 2, ks // 2), h)
        assert np.array_equal(got, grid.convolve(f, Kernel(h)))

    @pytest.mark.parametrize("ks", [3, 5])
    def test_kernel_adjoint_dense_transpose(self, ks):
        # columns probe unit kernels (forward) and unit residuals (adjoint)
        rng = np.random.default_rng(43)
        fp = grid.pad_edge(rng.standard_normal((4, 5)), ks // 2, ks // 2)
        A = np.column_stack([
            grid._taps(fp, e.reshape(ks, ks)).ravel()
            for e in np.eye(ks * ks)
        ])
        At = np.column_stack([
            restore._image_times_kernel_adjoint(fp, e.reshape(4, 5)).ravel()
            for e in np.eye(20)
        ])
        assert np.abs(A.T - At).max() < 1e-14

    @pytest.mark.parametrize("ks", [3, 5])
    @pytest.mark.parametrize("shape", [(2, 3), (7, 9)])
    def test_kernel_step_jacobi_diagonal(self, shape, ks):
        # diag(F^T F) of the dense F is the adjoint of the squared image
        # applied to a field of ones
        rng = np.random.default_rng(53)
        f = rng.standard_normal(shape)
        fp = grid.pad_edge(f, ks // 2, ks // 2)
        A = materialize(lambda x: grid._taps(fp, x), (ks, ks))
        got = restore._image_times_kernel_adjoint(fp * fp, np.ones_like(f))
        np.testing.assert_allclose(got.ravel(), np.diag(A.T @ A), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("ks", [3, 5])
    @pytest.mark.parametrize("shape", [(2, 3), (7, 9)])
    def test_kernel_step_jacobi_scalar_is_centre_entry(self, shape, ks):
        # the centre entry of F^T F is sum(f^2): the centre tap's column of
        # F is the unshifted image
        rng = np.random.default_rng(61)
        f = rng.standard_normal(shape)
        A = materialize(lambda x: grid._taps(grid.pad_edge(f, ks // 2, ks // 2), x), (ks, ks))
        centre = (ks * ks) // 2
        assert np.sum(f * f) == pytest.approx((A.T @ A)[centre, centre], rel=1e-13)

    def test_kernel_step_applies_the_adjoint_once_per_kernel_step(self, monkeypatch):
        # F^T g is the step's one adjoint call; F^T F comes from the patch
        # Gram, and no CG runs
        adjoint, calls = restore._image_times_kernel_adjoint, []

        def counting_adjoint(fp, r):
            calls.append(1)
            return adjoint(fp, r)

        monkeypatch.setattr(restore, "_image_times_kernel_adjoint", counting_adjoint)
        restore._kernel_step(self.g, self.clean, Kernel.delta(3).weights, BlindParams())
        assert len(calls) == 1

    @pytest.mark.parametrize("ks", [3, 5])
    def test_kernel_step_is_the_projected_dense_lagged_solve(self, ks):
        # [F^T F + lam_h L(w(h_k))] h = F^T g with F and L materialized
        rng = np.random.default_rng(67)
        f = rng.uniform(0.0, 1.0, (11, 8))
        h_k = restore._project_kernel(rng.uniform(0.0, 1.0, (ks, ks)))
        g = grid.convolve(f, Kernel(h_k)) + 0.01 * rng.standard_normal(f.shape)
        params = BlindParams(lam_kernel=0.05, kernel_size=ks)
        fp = grid.pad_edge(f, ks // 2, ks // 2)
        F = materialize(lambda x: grid._taps(fp, x), (ks, ks))
        wx, wy = functionals.diffusion_weights(h_k, params.alpha)
        L = materialize(lambda x: functionals.apply_weighted_laplacian(wx, wy, x), (ks, ks))
        h_dense = np.linalg.solve(F.T @ F + params.lam_kernel * L, F.T @ g.ravel())
        h = restore._kernel_step(g, f, h_k, params)
        np.testing.assert_allclose(h, restore._project_kernel(h_dense.reshape(ks, ks)),
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("ks", [3, 5])
    def test_kernel_gram_strips_sum_to_one_strip(self, ks, monkeypatch):
        rng = np.random.default_rng(71)
        f = rng.standard_normal((13, 10))
        r = rng.standard_normal(f.shape)
        fp = grid.pad_edge(f, ks // 2, ks // 2)
        one_strip = restore._kernel_gram(fp, f.shape)
        one_adjoint = restore._image_times_kernel_adjoint(fp, r)
        F = materialize(lambda x: grid._taps(fp, x), (ks, ks))
        np.testing.assert_allclose(one_strip, F.T @ F, rtol=1e-13, atol=0)
        np.testing.assert_allclose(one_adjoint.ravel(), F.T @ r.ravel(), rtol=1e-12, atol=1e-13)
        # a strip of 3 image rows: 5 strips, the last one short
        monkeypatch.setattr(grid, "_STRIP_FLOATS", 3 * ks * ks * 10)
        strips = restore._kernel_gram(fp, f.shape)
        assert np.abs(strips - one_strip).max() <= 1e-13 * np.abs(one_strip).max()
        adjoint = restore._image_times_kernel_adjoint(fp, r)
        assert np.abs(adjoint - one_adjoint).max() <= 1e-13 * np.abs(one_adjoint).max()

    def test_singular_kernel_system_keeps_the_projected_kernel(self):
        # lam_kernel = 0 on a flat image: F^T F has rank 1 and the system is
        # singular; the minimum-norm correction of a consistent system is zero
        f = np.full((8, 8), 0.5)
        h_k = restore._project_kernel(np.arange(1.0, 10.0).reshape(3, 3))
        h = restore._kernel_step(f, f, h_k, BlindParams(lam_kernel=0.0))
        np.testing.assert_allclose(h, restore._project_kernel(h_k), rtol=1e-12, atol=1e-15)

    def test_kernel_step_memory_is_bounded_by_the_strip(self):
        # one strip of the patch matrix (grid._STRIP_FLOATS floats, 512 KB)
        # at a time and the padded image; the whole 49 x 256^2 patch matrix
        # is 25.7 MB
        rng = np.random.default_rng(73)
        f = rng.uniform(0.0, 1.0, (256, 256))
        tracemalloc.start()
        try:
            restore._kernel_step(f, f, Kernel.delta(7).weights, BlindParams(kernel_size=7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_unregularized_kernel_step_is_projected_least_squares(self):
        # lam_kernel = 0 leaves only the data term: the step is the projected
        # dense least-squares kernel
        rng = np.random.default_rng(47)
        f = rng.uniform(0.0, 1.0, (8, 8))
        g = grid.convolve(f, self.ktrue) + 0.01 * rng.standard_normal((8, 8))
        params = BlindParams(lam_kernel=0.0, solver=SolverConfig(tol_cg=1e-12, forcing=0.0))
        h = restore._kernel_step(g, f, Kernel.delta(3).weights, params)
        A = materialize(lambda x: grid._taps(grid.pad_edge(f, 1, 1), x), (3, 3))
        h_ls = np.linalg.lstsq(A, g.ravel(), rcond=None)[0].reshape(3, 3)
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
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError):
                lasso_estimate(g, Kernel.delta(), t)
        with pytest.raises(ValueError, match="steps"):
            lasso_estimate(g, Kernel.delta(), 0.1, steps=0)

    def test_zero_kernel_returns_zeros(self):
        g = np.random.default_rng(53).uniform(0.0, 1.0, (5, 5))
        f = lasso_estimate(g, Kernel(np.zeros((3, 3))), 0.1)
        np.testing.assert_array_equal(f, np.zeros((5, 5)))

    def test_tiny_kernel_returns_zero_minimizer(self):
        # (sum |h|)^2 is subnormal and its reciprocal step overflows, but
        # max |H^T g| <= t makes zero the exact minimizer
        g = np.random.default_rng(53).uniform(0.0, 1.0, (5, 5))
        f = lasso_estimate(g, Kernel(np.full((3, 3), 1e-160)), 0.1)
        np.testing.assert_array_equal(f, np.zeros((5, 5)))


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
        for peak in (np.nan, np.inf):
            with pytest.raises(ValueError):
                psnr(np.zeros((3, 3)), np.full((3, 3), 0.1), peak=peak)

    def test_empty_images_rejected(self):
        # no pixels means no mean squared error, not an exact match
        with pytest.raises(ValueError, match="empty"):
            psnr(np.zeros((0, 0)), np.zeros((0, 0)))
