from dataclasses import replace

import numpy as np
import pytest
from scipy import fft

from tvkit import flow, functionals, solvers, synth
from tvkit.flow import (
    FlowParams,
    FlowVariant,
    FramePair,
    apply_tensor_diffusion,
    diffusion_tensor,
    endpoint_error,
    estimate_flow,
    flow_image_driven,
    flow_smoothness_weights,
    flow_tv,
    image_derivatives,
    ofc_residual,
    tensor_diffusion_diagonal,
)
from tvkit.grid import VectorField, divergence, gradient, inner
from tvkit.solvers import SolveReport, SolverConfig, SolverDivergenceError

from conftest import materialize, peak_allocation


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
        for bad in (dict(lam=np.nan), dict(lam=np.inf), dict(eps=np.nan), dict(eps=np.inf)):
            with pytest.raises(ValueError, match="finite"):
                FlowParams(**bad)


class TestInputValidation:
    @pytest.mark.parametrize("call, message", [
        (lambda: ofc_residual(*image_derivatives(ramp_pair()),
                              VectorField(np.zeros((8, 7)), np.zeros((8, 7)))),
         "derivative and flow shapes must match"),
        (lambda: endpoint_error(VectorField(np.zeros((4, 4)), np.zeros((4, 4))),
                                VectorField(np.zeros((4, 5)), np.zeros((4, 5)))),
         "flow shapes must match"),
        # a value that names no variant fails at construction
        (lambda: FlowParams(variant="bogus"), "'bogus' is not a valid FlowVariant"),
        (lambda: FramePair(np.zeros((0, 4)), np.zeros((0, 4))), "field has no pixels"),
    ], ids=["ofc-residual-shapes", "endpoint-error-shapes", "variant-string", "frame-pair-empty"])
    def test_malformed_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("variant", list(FlowVariant))
    def test_variant_given_by_value(self, variant):
        pair, _ = synth.make_split_motion()
        params = FlowParams(lam=0.003, eps=0.05, variant=variant.value)
        assert params.variant is variant
        w, _ = estimate_flow(pair, params)
        want, _ = estimate_flow(pair, FlowParams(lam=0.003, eps=0.05, variant=variant))
        assert np.array_equal(w.u, want.u) and np.array_equal(w.v, want.v)


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

    def test_stacked_field_matches_vector_field(self):
        rng = np.random.default_rng(8)
        fx, fy, ft = (rng.standard_normal((4, 5)) for _ in range(3))
        w = VectorField(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        assert np.array_equal(ofc_residual(fx, fy, ft, np.stack(w)), ofc_residual(fx, fy, ft, w))


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

    def test_out_and_work_buffers(self):
        # pre-filled with NaN, so any entry left unwritten shows
        rng = np.random.default_rng(101)
        g = VectorField(rng.standard_normal((9, 11)), rng.standard_normal((9, 11)))
        t = diffusion_tensor(g, eps=0.05)
        z = rng.standard_normal((2, 9, 11))
        out = np.full(z.shape, np.nan)
        work = np.full((3,) + z.shape, np.nan)
        assert apply_tensor_diffusion(t, z, out=out, work=work) is out
        assert np.array_equal(out, apply_tensor_diffusion(t, z))

    def test_stacked_equals_per_channel(self):
        # the tensor broadcasts over the channels: bit for bit two calls
        rng = np.random.default_rng(103)
        g = VectorField(rng.standard_normal((9, 11)), rng.standard_normal((9, 11)))
        t = diffusion_tensor(g, eps=0.05)
        z = rng.standard_normal((2, 9, 11))
        out = apply_tensor_diffusion(t, z)
        for c in range(2):
            assert np.array_equal(out[c], apply_tensor_diffusion(t, z[c]))

    def test_buffered_call_allocates_no_field(self):
        rng = np.random.default_rng(107)
        g = VectorField(rng.standard_normal((128, 128)), rng.standard_normal((128, 128)))
        t = diffusion_tensor(g, eps=0.05)
        z = rng.standard_normal((2, 128, 128))
        out, work = np.empty_like(z), np.empty((3,) + z.shape)
        peak = peak_allocation(lambda: apply_tensor_diffusion(t, z, out=out, work=work))
        assert peak < g.u.nbytes
        assert peak_allocation(lambda: apply_tensor_diffusion(t, z)) >= 4 * z.nbytes


def _per_channel_linear_flow(fx, fy, ft, apply_smooth, smooth_diag, x0, cfg, forcing):
    """The coupled flow system with the smoothing lam*S applied to u and to v
    in turn and a fresh array for every term: the reference for the stacked
    solve.  It builds the solve's preconditioner from the same diagonals,
    lam*S's being ``smooth_diag``."""
    b = np.stack([-fx * ft, -fy * ft])

    def apply_A(wvec):
        u, v = wvec[0], wvec[1]
        return np.stack([fx * fx * u + fx * fy * v + apply_smooth(u),
                         fx * fy * u + fy * fy * v + apply_smooth(v)])

    precond = flow._flow_preconditioner(np.stack([fx * fx, fy * fy]), smooth_diag,
                                        out=(np.empty(b.shape), np.empty(b.shape)))
    return solvers.conjugate_gradient(apply_A, b, x0=x0, cfg=cfg, precond=precond,
                                      forcing=forcing)


def per_channel_flow_tv(pair, params):
    fx, fy, ft = image_derivatives(pair)

    def step(wvec):
        weights = params.lam * flow_smoothness_weights(VectorField(wvec[0], wvec[1]),
                                                       params.eps)
        return _per_channel_linear_flow(
            fx, fy, ft,
            lambda z: functionals.apply_weighted_laplacian(weights, weights, z),
            functionals.weighted_laplacian_diagonal(weights, weights),
            wvec, params.solver, params.solver.forcing)

    def objective(wvec):
        r = ofc_residual(fx, fy, ft, VectorField(wvec[0], wvec[1]))
        return float(np.sum(r * r)) + 2.0 * params.lam * functionals.tv_isotropic(
            wvec, params.eps)

    return solvers.lagged_loop(step, objective, np.zeros((2,) + pair.shape), params.solver)


def per_channel_flow_image_driven(pair, params):
    fx, fy, ft = image_derivatives(pair)
    # lam*S = -lam*div(D grad) is the diffusion of the tensor -lam*D
    t = diffusion_tensor(flow.centered_gradient(pair.f1), params.eps)
    t = flow.DiffusionTensor(*(-params.lam * a for a in t))

    def apply_smooth(z):
        return apply_tensor_diffusion(t, z)

    wvec, iters, ok = _per_channel_linear_flow(
        fx, fy, ft, apply_smooth, tensor_diffusion_diagonal(t),
        np.zeros((2,) + pair.shape), params.solver, 0.0)
    r = ofc_residual(fx, fy, ft, VectorField(wvec[0], wvec[1]))
    energy = float(np.sum(r * r)) + (
        inner(wvec[0], apply_smooth(wvec[0])) + inner(wvec[1], apply_smooth(wvec[1])))
    return wvec, iters, ok, energy


def assert_same_report(got, want):
    for name in ("objective_history", "step_norm_history", "cg_iters_history",
                 "cg_converged_history", "cg_iterations_total", "converged", "forcing"):
        assert getattr(got, name) == getattr(want, name), name


class TestStackedSolves:
    """The stacked, buffered solves against the per-channel reference: the
    same flow and the same report, bit for bit, on the 32 x 32 fixtures.
    Both run the same preconditioner; only the operator's layout differs.
    The solves run on the float64 path: no Jacobi diagonal lies in an empty
    `solvers._F32_SAFE`, so every step solves in float64."""

    SCENES = {"ramp": synth.make_ramp_shift, "split": synth.make_split_motion}

    @pytest.fixture(autouse=True)
    def float64_path(self, monkeypatch):
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_tv(self, scene):
        pair, _ = self.SCENES[scene]()
        params = FlowParams(lam=0.003, eps=0.05)
        w, report = flow_tv(pair, params)
        wvec, want = per_channel_flow_tv(pair, params)
        assert np.array_equal(w.u, wvec[0]) and np.array_equal(w.v, wvec[1])
        assert_same_report(report, want)
        assert report.outer_iterations > 1

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_image_driven(self, scene):
        pair, _ = self.SCENES[scene]()
        params = FlowParams(lam=0.01, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        w, report = flow_image_driven(pair, params)
        wvec, iters, ok, energy = per_channel_flow_image_driven(pair, params)
        assert np.array_equal(w.u, wvec[0]) and np.array_equal(w.v, wvec[1])
        assert report.objective_history == [energy]
        assert report.cg_iters_history == [iters] and report.converged == ok
        assert report.step_norm_history == [float(np.linalg.norm(wvec))]


class TestDenseOperator:
    """Each lagged step's operator, materialized in float64 and in float32
    on the float32 views of its buffers, against the dense block matrix
    [[diag(fx^2) + lam S, diag(fx fy)], [diag(fx fy), diag(fy^2) + lam S]]
    with S built from the public smoothing operators."""

    @pytest.mark.parametrize("variant", list(FlowVariant))
    def test_matches_block_matrix(self, monkeypatch, variant):
        rng = np.random.default_rng(131)
        shape = (5, 6)
        pair = FramePair(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))
        params = FlowParams(lam=0.3, eps=0.05, variant=variant,
                            solver=SolverConfig(max_outer=3, forcing=0.0))
        steps, diagonals = [], []
        solve, build_precond = solvers._mixed_precision_cg, flow._flow_preconditioner

        def capture_solve(operator, preconditioner, rhs, x0, cfg, work, diag_range):
            work32 = [solvers._float32_view(a) for a in work]
            apply32 = operator(work32)
            steps.append((materialize(operator(work), x0.shape),
                          materialize(lambda z: apply32(z.astype(np.float32)), x0.shape),
                          np.array(x0)))
            return solve(operator, preconditioner, rhs, x0, cfg, work, diag_range)

        def capture_precond(data_diag, lam_diag, out):
            diagonals.append(data_diag + lam_diag)
            return build_precond(data_diag, lam_diag, out)

        monkeypatch.setattr(solvers, "_mixed_precision_cg", capture_solve)
        monkeypatch.setattr(flow, "_flow_preconditioner", capture_precond)
        estimate_flow(pair, params)

        fx, fy, ft = image_derivatives(pair)
        tensor = diffusion_tensor(flow.centered_gradient(pair.f1), params.eps)
        if variant is FlowVariant.TV:
            # the first step is frozen at zero flow, the later ones are not
            assert len(steps) == 3 and np.any(steps[1][2])
        # one float32 preconditioner per step, the float64 one never built
        for (dense, dense32, w), jacobi in zip(steps, diagonals, strict=True):
            if variant is FlowVariant.TV:
                weights = flow_smoothness_weights(w, params.eps)
                s = materialize(
                    lambda z: functionals.apply_weighted_laplacian(weights, weights, z), shape)
            else:
                s = materialize(lambda z: -apply_tensor_diffusion(tensor, z), shape)
            want = np.block([[np.diag((fx * fx).ravel()) + params.lam * s,
                              np.diag((fx * fy).ravel())],
                             [np.diag((fx * fy).ravel()),
                              np.diag((fy * fy).ravel()) + params.lam * s]])
            atol = 1e-13 * np.abs(want).max()
            np.testing.assert_allclose(dense, want, rtol=0, atol=atol)
            np.testing.assert_allclose(dense, dense.T, rtol=0, atol=atol)
            np.testing.assert_allclose(np.diag(dense), jacobi.ravel(), rtol=0, atol=atol)
            # float32 operands and arithmetic: a few roundings of float32
            # per entry, each at most eps32 times the largest entry
            assert dense32.dtype == np.float32
            atol32 = 8 * np.finfo(np.float32).eps * np.abs(want).max()
            np.testing.assert_allclose(dense32, want, rtol=0, atol=atol32)


def spy_cg(monkeypatch):
    """Record, per `conjugate_gradient` call that `solvers` makes, the
    dtype of ``b`` and of every ``apply_A`` argument."""
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


FLOW_CASES = {"tv": (FlowVariant.TV, 0.003), "an": (FlowVariant.IMAGE_DRIVEN, 0.01)}


class TestMixedPrecisionFlow:
    """Both flow variants solve each lagged step by float32 sweeps on a
    float64 residual (`solvers._mixed_precision_cg`)."""

    @pytest.mark.parametrize("scene", sorted(TestStackedSolves.SCENES))
    @pytest.mark.parametrize("case", FLOW_CASES)
    def test_agrees_with_float64_path(self, monkeypatch, scene, case):
        # the float32 sweeps leave what the forcing term and tol_cg already
        # leave: flows within 1e-5 px of the float64 path's, and the TV
        # loop takes the same steps with the same CG counts
        variant, lam = FLOW_CASES[case]
        pair, _ = TestStackedSolves.SCENES[scene]()
        params = FlowParams(lam=lam, eps=0.05, variant=variant)
        w, report = estimate_flow(pair, params)
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
        w64, report64 = estimate_flow(pair, params)
        assert np.abs(w.u - w64.u).max() <= 1e-5 and np.abs(w.v - w64.v).max() <= 1e-5
        assert report.converged and report64.converged
        if variant is FlowVariant.TV:
            assert report.cg_iters_history == report64.cg_iters_history

    @pytest.mark.parametrize("scene, lam", [("ramp", 0.1), ("split", 0.003)])
    def test_image_driven_sweeps_cost_few_iterations(self, monkeypatch, scene, lam):
        # the image-driven solves of the flow-128 benchmark (fixture seed 0):
        # each sweep restarts CG, which costs at most a tenth more iterations
        pair, _ = TestStackedSolves.SCENES[scene](0, 128)
        params = FlowParams(lam=lam, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        _, report = flow_image_driven(pair, params)
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
        _, report64 = flow_image_driven(pair, params)
        assert report.converged and report64.converged
        assert report.cg_iterations_total <= 1.1 * report64.cg_iterations_total

    @pytest.mark.parametrize("scene", sorted(TestStackedSolves.SCENES))
    def test_image_driven_residual_meets_tol_cg(self, scene):
        # the sweeps end on the final threshold tol_cg ||b||, and the
        # float64 residual of the result meets it
        pair, _ = TestStackedSolves.SCENES[scene]()
        params = FlowParams(lam=0.01, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        w, report = flow_image_driven(pair, params)
        fx, fy, ft = image_derivatives(pair)
        t = diffusion_tensor(flow.centered_gradient(pair.f1), params.eps)
        z = np.stack([w.u, w.v])
        a_z = np.stack([fx * fx * w.u + fx * fy * w.v, fx * fy * w.u + fy * fy * w.v])
        a_z -= params.lam * apply_tensor_diffusion(t, z)
        b = np.stack([-fx * ft, -fy * ft])
        assert report.converged
        assert np.linalg.norm(b - a_z) <= params.solver.tol_cg * np.linalg.norm(b)

    @pytest.mark.parametrize("case", FLOW_CASES)
    def test_cg_iterates_are_float32(self, monkeypatch, case):
        variant, lam = FLOW_CASES[case]
        pair, _ = synth.make_split_motion()
        seen = spy_cg(monkeypatch)
        _, report = estimate_flow(pair, FlowParams(lam=lam, eps=0.05, variant=variant))
        assert sum(len(args) for _, args in seen) == report.cg_iterations_total > 0
        assert {b_dtype for b_dtype, _ in seen} == {np.dtype(np.float32)}
        assert {dtype for _, args in seen for dtype in args} == {np.dtype(np.float32)}
        if variant is FlowVariant.IMAGE_DRIVEN:
            # no forcing term: more than one sweep of 1e-2 to reach tol_cg
            assert len(seen) > 1
        else:
            # a forcing term of 0.1: one sweep per step
            assert len(seen) == report.outer_iterations

    @pytest.mark.parametrize("case", FLOW_CASES)
    def test_diagonal_past_float32_range_stays_float64(self, monkeypatch, case):
        # lam = 1e13 puts the Jacobi diagonal past solvers._F32_SAFE
        variant, _ = FLOW_CASES[case]
        pair, _ = synth.make_ramp_shift(0, 16)
        seen = spy_cg(monkeypatch)
        _, report = estimate_flow(pair, FlowParams(lam=1e13, eps=0.05, variant=variant,
                                                   solver=SolverConfig(max_outer=2)))
        assert len(seen) == report.outer_iterations
        assert {b_dtype for b_dtype, _ in seen} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("failure", ["diverges", "no-curvature"])
    @pytest.mark.parametrize("case", FLOW_CASES)
    def test_failed_sweep_is_solved_again_in_float64(self, monkeypatch, case, failure):
        # a sweep that raises, or stops on a direction of no curvature
        # before its cap, leaves the step to one float64 solve from its
        # start, on the system as given
        variant, lam = FLOW_CASES[case]
        pair, _ = synth.make_split_motion()
        params = FlowParams(lam=lam, eps=0.05, variant=variant)
        cg = solvers.conjugate_gradient

        def failing(apply_A, b, *args, **kwargs):
            if np.asarray(b).dtype == np.float32:
                if failure == "diverges":
                    raise SolverDivergenceError("non-finite curvature at CG iteration 1")
                return np.zeros_like(b), 0, False
            return cg(apply_A, b, *args, **kwargs)

        monkeypatch.setattr(solvers, "conjugate_gradient", failing)
        w, report = estimate_flow(pair, params)
        monkeypatch.setattr(solvers, "_F32_SAFE", (np.inf, 0.0))
        want, want_report = estimate_flow(pair, params)
        np.testing.assert_array_equal(w.u, want.u)
        np.testing.assert_array_equal(w.v, want.v)
        assert_same_report(report, want_report)


class TestTensorDiffusionDiagonal:
    @pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1), (1, 1)])
    def test_matches_unit_vector_probes(self, shape):
        rng = np.random.default_rng(109)
        g = VectorField(rng.standard_normal(shape), rng.standard_normal(shape))
        t = diffusion_tensor(g, eps=0.05)
        dense = materialize(lambda z: apply_tensor_diffusion(t, z), shape)
        np.testing.assert_allclose(tensor_diffusion_diagonal(t).ravel(), np.diag(dense),
                                   rtol=0, atol=1e-14)


class TestFlowPreconditioner:
    @pytest.mark.parametrize("n", [1, 5, flow._COARSE, 2 * flow._COARSE + 3])
    def test_cosine_modes_are_the_orthonormal_dct(self, n):
        modes, eigenvalues = flow._cosine_modes(n)
        assert modes.shape == (min(n, flow._COARSE), n) and not modes.flags.writeable
        x = np.random.default_rng(113).standard_normal(n)
        want = fft.dct(x, type=2, norm="ortho")[:len(modes)]
        np.testing.assert_allclose(modes @ x, want, rtol=0, atol=1e-13)
        # each mode is an eigenvector of the one-row -divergence(gradient)
        for mode, e in zip(modes, eigenvalues):
            row = mode[None, :]
            np.testing.assert_allclose(-divergence(gradient(row)), e * row, rtol=0, atol=1e-13)

    def test_symmetric_positive_definite(self):
        # dense on a non-square grid, with TV weights at a random flow
        rng = np.random.default_rng(127)
        shape = (9, 11)
        fx, fy = rng.standard_normal(shape), rng.standard_normal(shape)
        weights = flow_smoothness_weights(rng.standard_normal((2,) + shape), 0.05)
        lam_diag = 0.1 * functionals.weighted_laplacian_diagonal(weights, weights)
        out = (np.empty((2,) + shape), np.empty((2,) + shape))
        precond = flow._flow_preconditioner(np.stack([fx * fx, fy * fy]), lam_diag, out)
        dense = materialize(precond, (2,) + shape)
        np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-12)
        inv_diag = 1.0 / (np.stack([fx * fx, fy * fy]) + lam_diag).ravel()
        # the coarse correction is positive semi-definite: it only adds
        assert np.linalg.eigvalsh(dense - np.diag(inv_diag)).min() >= -1e-12
        assert np.linalg.eigvalsh(dense).min() > 0.0

    def test_non_finite_diagonal_raises(self):
        with pytest.raises(SolverDivergenceError, match="non-finite Jacobi diagonal"):
            flow._flow_preconditioner(np.ones((2, 4, 5)), np.full((4, 5), np.inf),
                                      (None, None))

    @pytest.mark.parametrize("frames", [
        (np.full((1, 1), 0.2), np.full((1, 1), 0.7)),
        (np.full((12, 9), 0.4), np.full((12, 9), 0.4)),
        (np.full((12, 9), 0.4), np.full((12, 9), 0.9)),
    ], ids=["1x1", "constant-static", "constant-brightening"])
    @pytest.mark.parametrize("variant", list(FlowVariant))
    def test_zero_diagonal_solves(self, frames, variant):
        # no data term (the frames have no gradient) and, on a 1x1 grid, no
        # smoothing either: zero flow, with no error and no warning
        w, report = estimate_flow(FramePair(*frames), FlowParams(variant=variant))
        assert not np.any(w.u) and not np.any(w.v)
        assert report.converged and report.cg_iterations_total == 0

    @pytest.mark.parametrize("scene", sorted(TestStackedSolves.SCENES))
    @pytest.mark.parametrize("variant, lam", [(FlowVariant.IMAGE_DRIVEN, 0.1),
                                              (FlowVariant.TV, 0.003)], ids=["an", "tv"])
    def test_agrees_with_plain_cg(self, monkeypatch, scene, variant, lam):
        # the first lagged step solved to tol_cg with and without the
        # preconditioner: both residuals are within tol_cg ||b||, so the
        # flows differ by at most twice that through the step's operator
        pair, _ = TestStackedSolves.SCENES[scene]()
        cfg = SolverConfig(max_outer=1, forcing=0.0)
        params = FlowParams(lam=lam, eps=0.05, variant=variant, solver=cfg)
        w, report = estimate_flow(pair, params)
        monkeypatch.setattr(flow, "_flow_preconditioner", lambda *args, **kwargs: None)
        w_plain, report_plain = estimate_flow(pair, params)
        assert report.cg_converged_history == report_plain.cg_converged_history == [True]
        assert report.cg_iterations_total < report_plain.cg_iterations_total
        fx, fy, ft = image_derivatives(pair)
        du, dv = w.u - w_plain.u, w.v - w_plain.v
        diff = np.stack([du, dv])
        if variant is FlowVariant.IMAGE_DRIVEN:
            t = diffusion_tensor(flow.centered_gradient(pair.f1), params.eps)
            s_diff = -apply_tensor_diffusion(t, diff)
        else:
            # the TV weights of the first step, frozen at zero flow
            weights = flow_smoothness_weights(np.zeros_like(diff), params.eps)
            s_diff = functionals.apply_weighted_laplacian(weights, weights, diff)
        a_diff = np.stack([fx * fx * du + fx * fy * dv, fx * fy * du + fy * fy * dv])
        a_diff += lam * s_diff
        b = np.stack([-fx * ft, -fy * ft])
        assert np.linalg.norm(a_diff) <= 2.0 * cfg.tol_cg * np.linalg.norm(b)

    def test_cuts_ramp_image_driven_iterations(self, monkeypatch):
        # where smoothness dominates, the cosine correction reaches the
        # smooth modes that plain CG spends its iterations on
        pair, _ = synth.make_ramp_shift(0, 128)
        params = FlowParams(lam=0.1, eps=0.05, variant=FlowVariant.IMAGE_DRIVEN)
        _, report = flow_image_driven(pair, params)
        monkeypatch.setattr(flow, "_flow_preconditioner", lambda *args, **kwargs: None)
        _, report_plain = flow_image_driven(pair, params)
        assert report.converged and report_plain.converged
        assert 4 * report.cg_iterations_total <= report_plain.cg_iterations_total


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

    def test_stacked_field_matches_vector_field(self):
        rng = np.random.default_rng(23)
        wf = VectorField(rng.standard_normal((6, 7)), rng.standard_normal((6, 7)))
        assert np.array_equal(flow_smoothness_weights(np.stack(wf), 0.05),
                              flow_smoothness_weights(wf, 0.05))


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
        # one lagged step from zero flow (r0 = b): the default forcing term
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
        # the system does not depend on the flow: the one step's CG decides
        assert report.outer_iterations == 1
        assert report.converged == report.cg_converged_history[0]


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

    # overflow-scale parameters that blow up the first linearized solve of
    # each variant: TV's first lagged step, the image-driven flow's only one
    BLOW_UPS = ((flow_tv, FlowParams(lam=1e300, eps=1e-160)),
                (flow_image_driven, FlowParams(lam=1e308, variant=FlowVariant.IMAGE_DRIVEN)))

    def test_overflow_raises_divergence_not_warning(self):
        # the same blow-up without np.errstate: under the suite's
        # error::RuntimeWarning filter the overflow in the operator must
        # reach CG's non-finite check, not escape as a numpy warning
        pair, _ = synth.make_ramp_shift()
        for solve, params in self.BLOW_UPS:
            with pytest.raises(SolverDivergenceError) as exc_info:
                solve(pair, params)
            assert isinstance(exc_info.value.report, SolveReport)

    def test_divergence_reports_outer_index(self):
        pair, _ = synth.make_ramp_shift()
        for solve, params in self.BLOW_UPS:
            with pytest.raises(SolverDivergenceError) as exc_info:
                solve(pair, params)
            assert "(outer iteration 1)" in str(exc_info.value)
            assert isinstance(exc_info.value.report, SolveReport)
            assert exc_info.value.report.outer_iterations == 0


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
