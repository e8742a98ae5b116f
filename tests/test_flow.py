from dataclasses import replace

import numpy as np
import pytest

from tvkit import flow, synth
from tvkit.flow import (
    FlowParams,
    FlowVariant,
    FramePair,
    apply_tensor_diffusion,
    diffusion_tensor,
    displaced_frame_difference,
    endpoint_error,
    estimate_flow,
    flow_image_driven,
    flow_smoothness_weights,
    flow_tv,
    image_derivatives,
    ofc_residual,
)
from tvkit.grid import VectorField, gradient, inner
from tvkit.solvers import SolveReport, SolverConfig, SolverDivergenceError

from conftest import materialize


def ramp_pair(h=8, w=8):
    f = np.tile(np.arange(w, dtype=np.float64), (h, 1))
    return FramePair(f, f)


class TestFramePair:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FramePair(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            FlowParams(lam=0.0)
        with pytest.raises(ValueError):
            FlowParams(eps=-0.1)


class TestImageDerivatives:
    def test_static_pair_has_zero_time_derivative(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(0.0, 1.0, (6, 6))
        _, _, ft = image_derivatives(FramePair(f, f))
        np.testing.assert_array_equal(ft, np.zeros((6, 6)))

    def test_ramp_gradient(self):
        fx, fy, ft = image_derivatives(ramp_pair())
        np.testing.assert_array_equal(fx[:, 1:-1], np.ones((8, 6)))
        # replicate padding halves the one-sided edge derivative
        np.testing.assert_array_equal(fx[:, 0], np.full(8, 0.5))
        assert not fy.any() and not ft.any()

    def test_stencil_oracle(self):
        rng = np.random.default_rng(3)
        f1 = rng.standard_normal((5, 6))
        f2 = rng.standard_normal((5, 6))
        fx, fy, ft = image_derivatives(FramePair(f1, f2))
        avg = 0.5 * (f1 + f2)
        pad = np.pad(avg, 1, mode="edge")
        for j in range(5):
            for i in range(6):
                assert fx[j, i] == 0.5 * (pad[j + 1, i + 2] - pad[j + 1, i])
                assert fy[j, i] == 0.5 * (pad[j + 2, i + 1] - pad[j, i + 1])
        np.testing.assert_array_equal(ft, f2 - f1)


class TestDisplacedFrameDifference:
    def test_zero_flow_static(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(0.0, 1.0, (7, 7))
        pair = FramePair(f, f)
        zero = VectorField(np.zeros((7, 7)), np.zeros((7, 7)))
        np.testing.assert_allclose(displaced_frame_difference(pair, zero), 0.0, atol=1e-14)

    def test_integer_translation(self):
        f1 = np.tile(np.arange(8.0), (6, 1))
        f2 = f1 - 1.0  # scene moved one pixel to the right
        w = VectorField(np.ones((6, 8)), np.zeros((6, 8)))
        d = displaced_frame_difference(FramePair(f1, f2), w)
        np.testing.assert_allclose(d[:, :-1], 0.0, atol=1e-12)

    def test_fractional_shift_on_linear_ramp(self):
        # bilinear interpolation reproduces linear images exactly
        f1 = np.tile(np.arange(8.0), (6, 1))
        f2 = f1 - 0.5
        w = VectorField(np.full((6, 8), 0.5), np.zeros((6, 8)))
        d = displaced_frame_difference(FramePair(f1, f2), w)
        np.testing.assert_allclose(d[:, :-1], 0.0, atol=1e-12)


class TestOFCResidual:
    def test_translating_ramp_satisfies_constraint(self):
        f1 = np.tile(np.arange(8.0), (6, 1))
        pair = FramePair(f1, f1 - 1.0)
        fx, fy, ft = image_derivatives(pair)
        w = VectorField(np.ones((6, 8)), np.zeros((6, 8)))
        r = ofc_residual(fx, fy, ft, w)
        np.testing.assert_allclose(r[:, 1:-1], 0.0, atol=1e-12)

    def test_formula_oracle(self):
        rng = np.random.default_rng(7)
        fx, fy, ft = (rng.standard_normal((4, 5)) for _ in range(3))
        w = VectorField(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        np.testing.assert_array_equal(ofc_residual(fx, fy, ft, w),
                                      fx * w.u + fy * w.v + ft)


class TestDiffusionTensor:
    def test_flat_region_is_half_identity(self):
        z = np.zeros((4, 4))
        t = diffusion_tensor(VectorField(z, z), eps=0.01)
        np.testing.assert_allclose(t.xx, 0.5, atol=1e-14)
        np.testing.assert_allclose(t.yy, 0.5, atol=1e-14)
        np.testing.assert_array_equal(t.xy, z)

    def test_strong_horizontal_gradient_diffuses_vertically(self):
        g = VectorField(np.ones((3, 3)), np.zeros((3, 3)))
        t = diffusion_tensor(g, eps=1e-6)
        np.testing.assert_allclose(t.xx, 0.0, atol=1e-11)
        np.testing.assert_allclose(t.yy, 1.0, atol=1e-11)
        np.testing.assert_allclose(t.xy, 0.0, atol=1e-11)

    def test_unit_trace_and_spectrum(self):
        rng = np.random.default_rng(9)
        g = VectorField(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        t = diffusion_tensor(g, eps=0.05)
        np.testing.assert_allclose(t.xx + t.yy, 1.0, rtol=1e-13)
        # eigenvalues of [[xx,xy],[xy,yy]]: (1 +- sqrt((xx-yy)^2+4xy^2))/2
        disc = np.sqrt((t.xx - t.yy) ** 2 + 4 * t.xy ** 2)
        lo, hi = 0.5 * (1 - disc), 0.5 * (1 + disc)
        assert lo.min() > 0.0 and hi.max() < 1.0

    def test_invalid_eps(self):
        z = np.zeros((3, 3))
        with pytest.raises(ValueError):
            diffusion_tensor(VectorField(z, z), eps=0.0)


class TestTensorDiffusion:
    def test_constants_annihilated(self):
        rng = np.random.default_rng(11)
        g = VectorField(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        t = diffusion_tensor(g, eps=0.1)
        out = apply_tensor_diffusion(t, np.full((5, 5), 2.0))
        np.testing.assert_array_equal(out, np.zeros((5, 5)))

    def test_identity_tensor_is_laplacian(self):
        # on a linear ramp the Laplacian vanishes away from the boundary
        from tvkit.flow import DiffusionTensor

        ones = np.ones((6, 6))
        t = DiffusionTensor(ones, np.zeros((6, 6)), ones)
        z = np.tile(np.arange(6.0), (6, 1))
        out = apply_tensor_diffusion(t, z)
        np.testing.assert_allclose(out[1:-1, 1:-1], 0.0, atol=1e-13)

    def test_symmetric_negative_semidefinite(self):
        rng = np.random.default_rng(13)
        g = VectorField(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        t = diffusion_tensor(g, eps=0.05)
        dense = materialize(lambda z: apply_tensor_diffusion(t, z), (5, 5))
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.max() <= 1e-12


class TestSmoothnessWeights:
    def test_zero_flow_hits_ceiling(self):
        z = np.zeros((4, 4))
        w = flow_smoothness_weights(VectorField(z, z), eps=0.02)
        np.testing.assert_allclose(w, 50.0, rtol=1e-13)

    def test_formula_oracle(self):
        rng = np.random.default_rng(17)
        wf = VectorField(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        from tvkit.grid import gradient

        du, dv = gradient(wf.u), gradient(wf.v)
        want = 1.0 / np.sqrt(du.u ** 2 + du.v ** 2 + dv.u ** 2 + dv.v ** 2 + 0.05 ** 2)
        np.testing.assert_allclose(flow_smoothness_weights(wf, 0.05), want, rtol=1e-13)

    def test_bounds(self):
        rng = np.random.default_rng(19)
        wf = VectorField(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        w = flow_smoothness_weights(wf, 0.1)
        assert w.min() > 0.0
        assert w.max() <= 10.0 + 1e-12


class TestImageDrivenFlow:
    def test_static_pair_gives_zero_flow(self):
        rng = np.random.default_rng(21)
        f = rng.uniform(0.0, 1.0, (16, 16))
        w, report = flow_image_driven(FramePair(f, f),
                                      FlowParams(variant=FlowVariant.IMAGE_DRIVEN))
        assert np.abs(w.u).max() <= 1e-8
        assert np.abs(w.v).max() <= 1e-8
        assert report.converged

    def test_recovers_unit_shift(self):
        pair, gt = synth.make_ramp_shift()
        params = FlowParams(lam=0.1, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        w, _ = flow_image_driven(pair, params)
        mean_epe, _ = endpoint_error(w, gt)
        assert mean_epe <= 0.2

    def test_flip_equivariance_to_discretization_order(self):
        # forward-difference smoothness staggers under mirroring, so the
        # match is first-order in the grid spacing rather than exact
        pair, _ = synth.make_ramp_shift()
        params = FlowParams(lam=0.1, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        w, _ = flow_image_driven(pair, params)
        flipped = FramePair(pair.f1[:, ::-1].copy(), pair.f2[:, ::-1].copy())
        wm, _ = flow_image_driven(flipped, params)
        assert np.abs(-wm.u[:, ::-1] - w.u).max() <= 0.05
        assert np.abs(wm.v[:, ::-1] - w.v).max() <= 0.05

    def test_brightness_offset_invariance(self):
        pair, _ = synth.make_ramp_shift()
        params = FlowParams(lam=0.1, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        w, _ = flow_image_driven(pair, params)
        shifted = FramePair(pair.f1 + 0.3, pair.f2 + 0.3)
        ws, _ = flow_image_driven(shifted, params)
        assert np.abs(ws.u - w.u).max() <= 1e-8
        assert np.abs(ws.v - w.v).max() <= 1e-8

    def test_ignores_forcing(self):
        # one cold solve from zero flow (r0 = b): the default forcing term
        # would only loosen tol_cg, so the solve ignores it
        pair, _ = synth.make_split_motion()
        params = FlowParams(lam=0.003, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        assert params.solver.forcing > 0
        w, report = flow_image_driven(pair, params)
        w_exact, report_exact = flow_image_driven(
            pair, replace(params, solver=SolverConfig(forcing=0.0)))
        np.testing.assert_array_equal(w.u, w_exact.u)
        np.testing.assert_array_equal(w.v, w_exact.v)
        assert report == report_exact
        assert report.forcing == 0.0


class TestTVFlow:
    def test_static_pair_gives_zero_flow(self):
        rng = np.random.default_rng(23)
        f = rng.uniform(0.0, 1.0, (16, 16))
        w, report = flow_tv(FramePair(f, f), FlowParams())
        assert np.abs(w.u).max() <= 1e-8
        assert np.abs(w.v).max() <= 1e-8

    def test_recovers_unit_shift(self):
        pair, gt = synth.make_ramp_shift()
        w, _ = flow_tv(pair, FlowParams(lam=0.003, eps=0.05))
        mean_epe, _ = endpoint_error(w, gt)
        assert mean_epe <= 0.2

    def test_step_norms_flagged_truthfully(self):
        pair, _ = synth.make_ramp_shift()
        _, report = flow_tv(pair, FlowParams(lam=0.003, eps=0.05))
        steps = report.step_norm_history
        recomputed = all(b <= a + 1e-9 for a, b in zip(steps, steps[1:]))
        assert report.step_norms_monotone == recomputed
        assert report.step_norms_monotone

    def test_histories_consistent(self):
        pair, _ = synth.make_ramp_shift()
        _, report = flow_tv(pair, FlowParams(lam=0.003, eps=0.05))
        n = report.outer_iterations
        assert len(report.step_norm_history) == n
        assert len(report.objective_history) == n
        assert report.cg_iterations_total == sum(report.cg_iters_history)

    def test_sharper_boundary_than_image_driven(self):
        pair, gt = synth.make_split_motion()
        wan, _ = flow_image_driven(pair, FlowParams(lam=0.003, eps=0.05,
                                                    variant=FlowVariant.IMAGE_DRIVEN))
        wtv, _ = flow_tv(pair, FlowParams(lam=0.003, eps=0.05))

        def transition_width(w):
            return int(np.count_nonzero(np.abs(w.u - np.round(w.u)) > 0.25))

        assert transition_width(wtv) < transition_width(wan)

    def test_overflow_raises_divergence_not_warning(self):
        # the same blow-up without np.errstate: under the suite's
        # error::RuntimeWarning filter the overflow in the operator must
        # reach CG's non-finite check, not escape as a numpy warning
        pair, _ = synth.make_ramp_shift()
        with pytest.raises(SolverDivergenceError) as exc_info:
            flow_tv(pair, FlowParams(lam=1e300, eps=1e-160))
        assert isinstance(exc_info.value.report, SolveReport)

    def test_divergence_reports_outer_index(self):
        # overflow-scale parameters blow up the first linearized solve
        pair, _ = synth.make_ramp_shift()
        with np.errstate(all="ignore"):
            with pytest.raises(SolverDivergenceError) as exc_info:
                flow_tv(pair, FlowParams(lam=1e300, eps=1e-160))
        assert "outer iteration" in str(exc_info.value)
        assert isinstance(exc_info.value.report, SolveReport)


class TestReportedEnergies:
    """The reported objective is the energy each variant minimizes, checked
    against the energy written out term by term at the returned flow."""

    def test_tv_objective(self):
        pair, _ = synth.make_split_motion()
        params = FlowParams(lam=0.003, eps=0.05)
        w, report = flow_tv(pair, params)
        fx, fy, ft = image_derivatives(pair)
        r = ofc_residual(fx, fy, ft, w)
        gu, gv = gradient(w.u), gradient(w.v)
        tv = np.sum(np.sqrt(gu.u ** 2 + gu.v ** 2 + gv.u ** 2 + gv.v ** 2 + params.eps ** 2))
        want = np.sum(r * r) + 2.0 * params.lam * tv
        assert report.objective_history[-1] == pytest.approx(want, rel=1e-12)

    def test_image_driven_energy(self):
        pair, _ = synth.make_split_motion()
        params = FlowParams(lam=0.003, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        w, report = flow_image_driven(pair, params)
        fx, fy, ft = image_derivatives(pair)
        r = ofc_residual(fx, fy, ft, w)
        t = diffusion_tensor(flow.centered_gradient(pair.f1), params.eps)
        smooth = 0.0
        for z in (w.u, w.v):
            gx, gy = gradient(z)
            smooth += np.sum(t.xx * gx * gx + 2.0 * t.xy * gx * gy + t.yy * gy * gy)
        want = np.sum(r * r) + params.lam * smooth
        assert report.objective_history[-1] == pytest.approx(want, rel=1e-12)


class TestVariantAgreement:
    def test_constant_motion_far_from_boundary(self):
        # both regularizers vanish on constant flow, so the two variants
        # should land on the same interior answer
        pair, _ = synth.make_ramp_shift()
        wan, _ = flow_image_driven(pair, FlowParams(lam=0.01, eps=0.05,
                                                    variant=FlowVariant.IMAGE_DRIVEN))
        wtv, _ = flow_tv(pair, FlowParams(lam=0.01, eps=0.05))
        inter = np.s_[4:-4, 4:-4]
        assert np.abs(wan.u[inter] - wtv.u[inter]).max() <= 0.05
        assert np.abs(wan.v[inter] - wtv.v[inter]).max() <= 0.05

    def test_dispatch(self):
        pair, _ = synth.make_ramp_shift()
        w1, _ = estimate_flow(pair, FlowParams(lam=0.1, eps=0.05,
                                               variant=FlowVariant.IMAGE_DRIVEN))
        w2, _ = flow_image_driven(pair, FlowParams(lam=0.1, eps=0.05,
                                                   variant=FlowVariant.IMAGE_DRIVEN))
        np.testing.assert_array_equal(w1.u, w2.u)


class TestEndpointError:
    def test_exact_flow_scores_zero(self):
        rng = np.random.default_rng(29)
        gt = VectorField(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        assert endpoint_error(gt, gt) == (0.0, 0.0)

    def test_pythagorean_offset(self):
        z = np.zeros((6, 6))
        w = VectorField(z + 0.3, z + 0.4)
        gt = VectorField(z, z)
        mean, mx = endpoint_error(w, gt)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert mx == pytest.approx(0.5, abs=1e-12)

    def test_formula_oracle(self):
        rng = np.random.default_rng(31)
        w = VectorField(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        gt = VectorField(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        per_pixel = np.hypot(w.u - gt.u, w.v - gt.v)
        mean, mx = endpoint_error(w, gt)
        assert mean == pytest.approx(per_pixel.mean(), rel=1e-12)
        assert mx == pytest.approx(per_pixel.max(), rel=1e-12)
