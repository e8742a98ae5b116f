import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvkit import functionals, grid
from tvkit.functionals import (
    DEFAULT_ALPHA,
    TVVariant,
    apply_tv_operator,
    apply_weighted_laplacian,
    diffusion_weights,
    spectral_tv,
    tv_anisotropic,
    tv_anisotropic_smoothed,
    tv_gradient,
    tv_isotropic,
    tv_objective,
    weighted_laplacian_diagonal,
)
from tvkit.grid import Kernel, inner

from conftest import materialize


def local_energy(f, j, i, alpha):
    """Sum of the smoothed-TV terms that involve pixel (j, i)."""
    h, w = f.shape
    total = 0.0
    for (r, c) in ((j, i), (j, i - 1), (j - 1, i)):
        if r < 0 or c < 0:
            continue
        dx = f[r, c + 1] - f[r, c] if c < w - 1 else 0.0
        dy = f[r + 1, c] - f[r, c] if r < h - 1 else 0.0
        total += np.sqrt(dx * dx + dy * dy + alpha * alpha)
    return total


class TestEnergies:
    def test_constant_field_values(self):
        f = np.full((5, 8), 0.7)
        assert tv_isotropic(f, 1e-2) == pytest.approx(40 * 1e-2, rel=1e-14)
        assert tv_anisotropic(f, 1e-2) == pytest.approx(40 * 1e-2, rel=1e-14)
        # the smoothed-L1 form pays alpha per axis, so twice per pixel
        assert tv_anisotropic_smoothed(f, 1e-2) == pytest.approx(80 * 1e-2, rel=1e-14)

    def test_two_pixel_jump(self):
        # [0, 1] in one row: one unit difference plus the alpha floor
        a = 1e-9
        f = np.array([[0.0, 1.0]])
        assert tv_isotropic(f, a) == pytest.approx(np.sqrt(1 + a * a) + a, rel=1e-15)
        assert abs(tv_isotropic(f, a) - 1.0) < 1e-8

    def test_summation_oracle_6x6(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((6, 6))
        a = 0.05
        iso = aniso = smoothed = 0.0
        for j in range(6):
            for i in range(6):
                dx = f[j, i + 1] - f[j, i] if i < 5 else 0.0
                dy = f[j + 1, i] - f[j, i] if j < 5 else 0.0
                iso += np.sqrt(dx * dx + dy * dy + a * a)
                aniso += abs(dx) + abs(dy)
                smoothed += np.sqrt(dx * dx + a * a) + np.sqrt(dy * dy + a * a)
        assert tv_isotropic(f, a) == pytest.approx(iso, rel=1e-12)
        assert tv_anisotropic(f, a) == pytest.approx(36 * a + aniso, rel=1e-12)
        assert tv_anisotropic_smoothed(f, a) == pytest.approx(smoothed, rel=1e-12)

    def test_stacked_field_shares_one_edge_set(self):
        rng = np.random.default_rng(23)
        w = rng.standard_normal((2, 5, 5))
        a = 0.03
        du, dv = grid.gradient(w[0]), grid.gradient(w[1])
        want = np.sum(np.sqrt(du.u ** 2 + du.v ** 2 + dv.u ** 2 + dv.v ** 2 + a * a))
        assert tv_isotropic(w, a) == pytest.approx(want, rel=1e-13)

    def test_plane_field_matches_direct_formula_exactly(self):
        rng = np.random.default_rng(31)
        f = rng.standard_normal((6, 7))
        a = 0.02
        dx, dy = grid.gradient(f)
        assert tv_isotropic(f, a) == float(np.sum(np.sqrt(dx * dx + dy * dy + a * a)))

    def test_vertical_step_closed_form(self):
        # left half 0, right half 1: H unit jumps down a single column
        h, w, a = 8, 12, 1e-3
        f = np.zeros((h, w))
        f[:, w // 2:] = 1.0
        assert tv_anisotropic(f, a) == pytest.approx(h * w * a + h, rel=1e-12)
        expect_iso = (h * w - h) * a + h * np.sqrt(1 + a * a)
        assert tv_isotropic(f, a) == pytest.approx(expect_iso, rel=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_energy_ordering(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((6, 7))
        a = 10 ** rng.uniform(-4, -1)
        iso = tv_isotropic(f, a)
        smoothed = tv_anisotropic_smoothed(f, a)
        aniso = tv_anisotropic(f, a)
        n = f.size
        # per-pixel: sqrt(dx^2+dy^2+a^2) <= sqrt(dx^2+a^2)+sqrt(dy^2+a^2)
        #            <= |dx|+|dy|+2a and |dx|+|dy| <= sqrt(2)*sqrt(dx^2+dy^2)
        slack = 1e-12 * (1 + abs(aniso))
        assert iso <= smoothed + slack
        assert smoothed <= aniso + n * a + slack
        assert aniso <= n * a + np.sqrt(2.0) * iso + slack

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((9, 5))
        for fn in (tv_isotropic, tv_anisotropic, tv_anisotropic_smoothed):
            assert fn(f + 17.25) == pytest.approx(fn(f), rel=1e-12)

    def test_floor_attained_only_by_constants(self):
        a = 1e-3
        assert tv_isotropic(np.full((6, 6), 2.0), a) == pytest.approx(36 * a, rel=1e-14)
        f = np.zeros((6, 6))
        f[3, 3] = 1e-4
        assert tv_isotropic(f, a) > 36 * a

    def test_alpha_must_be_positive(self):
        f = np.zeros((3, 3))
        for fn in (tv_isotropic, tv_anisotropic, tv_anisotropic_smoothed):
            with pytest.raises(ValueError):
                fn(f, 0.0)
            with pytest.raises(ValueError):
                fn(f, -1e-3)


class TestTVGradient:
    def test_constant_is_stationary(self):
        g = tv_gradient(np.full((6, 4), 1.8))
        np.testing.assert_array_equal(g, np.zeros((6, 4)))

    @pytest.mark.parametrize("alpha", [1e-3, 1e-1])
    def test_matches_local_finite_difference(self, alpha):
        # 5-point stencil keeps truncation below the 1e-5 bar even where
        # the smoothed energy curves sharply (|grad| ~ alpha)
        rng = np.random.default_rng(5)
        f = rng.uniform(0.0, 1.0, (5, 5))
        gan = tv_gradient(f, alpha)
        eps = 1e-5
        for j in range(5):
            for i in range(5):
                def energy(delta):
                    fp = f.copy()
                    fp[j, i] += delta
                    return local_energy(fp, j, i, alpha)

                gfd = (8 * (energy(eps) - energy(-eps))
                       - (energy(2 * eps) - energy(-2 * eps))) / (12 * eps)
                assert abs(gan[j, i] - gfd) <= 1e-5 * abs(gfd) + 1e-9

    def test_directional_derivative(self):
        rng = np.random.default_rng(19)
        f = rng.uniform(0.0, 1.0, (8, 8))
        v = rng.standard_normal((8, 8))
        a = 1e-2
        eps = 1e-6
        fd = (tv_isotropic(f + eps * v, a) - tv_isotropic(f - eps * v, a)) / (2 * eps)
        assert inner(tv_gradient(f, a), v) == pytest.approx(fd, rel=1e-5)


class TestOperator:
    def test_annihilates_constants(self):
        rng = np.random.default_rng(2)
        f_lin = rng.standard_normal((5, 5))
        out = apply_tv_operator(f_lin, np.full((5, 5), 3.0))
        np.testing.assert_array_equal(out, np.zeros((5, 5)))

    def test_linearity(self):
        rng = np.random.default_rng(31)
        f_lin = rng.standard_normal((6, 6))
        u = rng.standard_normal((6, 6))
        v = rng.standard_normal((6, 6))
        lhs = apply_tv_operator(f_lin, 2.5 * u - 3.0 * v)
        rhs = 2.5 * apply_tv_operator(f_lin, u) - 3.0 * apply_tv_operator(f_lin, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 8, size=2)
        f_lin = rng.standard_normal((h, w))
        u = rng.standard_normal((h, w))
        v = rng.standard_normal((h, w))
        variant = TVVariant.ANISOTROPIC if seed % 2 else TVVariant.ISOTROPIC
        lu = apply_tv_operator(f_lin, u, variant=variant)
        lv = apply_tv_operator(f_lin, v, variant=variant)
        scale = 1.0 + abs(inner(lu, v))
        assert abs(inner(lu, v) - inner(u, lv)) <= 1e-12 * scale

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            f_lin = rng.standard_normal((6, 6))
            v = rng.standard_normal((6, 6))
            quad = inner(apply_tv_operator(f_lin, v), v)
            assert quad >= -1e-12 * (1 + abs(quad))

    def test_dense_form_is_psd(self):
        rng = np.random.default_rng(41)
        f_lin = rng.standard_normal((4, 4))
        dense = materialize(lambda v: apply_tv_operator(f_lin, v), (4, 4))
        np.testing.assert_allclose(dense, dense.T, atol=1e-13)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() >= -1e-12
        np.testing.assert_allclose(dense @ np.ones(16), 0.0, atol=1e-12)

    def test_weights_formula(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((5, 7))
        a = 2e-3
        dx, dy = grid.gradient(f)
        wx, wy = diffusion_weights(f, a)
        np.testing.assert_allclose(wx, 1.0 / np.sqrt(dx ** 2 + dy ** 2 + a * a), rtol=1e-15)
        np.testing.assert_array_equal(wx, wy)
        ax, ay = diffusion_weights(f, a, TVVariant.ANISOTROPIC)
        np.testing.assert_allclose(ax, 1.0 / np.sqrt(dx ** 2 + a * a), rtol=1e-15)
        np.testing.assert_allclose(ay, 1.0 / np.sqrt(dy ** 2 + a * a), rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_tv_operator(np.zeros((3, 3)), np.zeros((3, 4)))

    def test_weighted_laplacian_oracle(self):
        # wx = wy = 1 reduces to the plain five-point Laplacian away from edges
        rng = np.random.default_rng(29)
        v = rng.standard_normal((7, 7))
        ones = np.ones((7, 7))
        out = apply_weighted_laplacian(ones, ones, v)
        interior = 4 * v[1:-1, 1:-1] - v[1:-1, :-2] - v[1:-1, 2:] - v[:-2, 1:-1] - v[2:, 1:-1]
        np.testing.assert_allclose(out[1:-1, 1:-1], interior, atol=1e-12)

    @pytest.mark.parametrize("variant", list(TVVariant))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 6)])
    def test_weighted_laplacian_diagonal(self, shape, variant):
        rng = np.random.default_rng(53)
        wx, wy = diffusion_weights(rng.standard_normal(shape), 0.3, variant)
        # the isotropic weights are one array shared by both axes
        assert (wx is wy) == (variant is TVVariant.ISOTROPIC)
        dense = materialize(lambda v: apply_weighted_laplacian(wx, wy, v), shape)
        np.testing.assert_allclose(weighted_laplacian_diagonal(wx, wy),
                                   np.diag(dense).reshape(shape), rtol=1e-14, atol=0)


class TestObjective:
    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(37)
        f = rng.uniform(0.0, 1.0, (6, 6))
        g = rng.uniform(0.0, 1.0, (6, 6))
        k = Kernel.box(3)
        lam, a = 0.07, 2e-3
        r = grid.convolve(f, k) - g
        want = 0.5 * np.sum(r * r) + lam * tv_isotropic(f, a)
        assert tv_objective(f, g, k, lam, a) == pytest.approx(want, rel=1e-12)
        want_an = 0.5 * np.sum(r * r) + lam * tv_anisotropic_smoothed(f, a)
        got_an = tv_objective(f, g, k, lam, a, TVVariant.ANISOTROPIC)
        assert got_an == pytest.approx(want_an, rel=1e-12)

    def test_zero_lambda_is_pure_fidelity(self):
        rng = np.random.default_rng(43)
        f = rng.standard_normal((5, 5))
        g = rng.standard_normal((5, 5))
        k = Kernel.binomial3()
        r = grid.convolve(f, k) - g
        assert tv_objective(f, g, k, 0.0) == pytest.approx(0.5 * np.sum(r * r), rel=1e-13)

    def test_perfect_fit_scores_regularizer_only(self):
        rng = np.random.default_rng(47)
        g = rng.uniform(0.0, 1.0, (6, 6))
        val = tv_objective(g, g, Kernel.delta(), 0.3, 1e-3)
        assert val == pytest.approx(0.3 * tv_isotropic(g, 1e-3), rel=1e-13)

    def test_invalid_arguments(self):
        g = np.zeros((4, 4))
        with pytest.raises(ValueError):
            tv_objective(np.zeros((4, 5)), g, Kernel.delta(), 0.1)
        with pytest.raises(ValueError):
            tv_objective(g, g, Kernel.delta(), -0.1)


class TestSpectralTV:
    def test_constant_is_zero(self):
        f = np.full((6, 9), 0.4)
        for n in (1, 2, 3):
            assert spectral_tv(f, n) == 0.0

    def test_sinusoid_quadrature_convergence(self):
        # f(i,j) = sin(2*pi*i/N) interpolates to F(x,y) = sin(2*pi*x/N);
        # integrating |grad F| = (2*pi/N)|cos(2*pi*x/N)| over the N x N cell
        # gives exactly 4N.
        N = 16
        ii = np.tile(np.arange(N, dtype=np.float64), (N, 1))
        f = np.sin(2 * np.pi * ii / N)
        exact = 4.0 * N
        errs = [abs(spectral_tv(f, n) - exact) / exact for n in range(1, 5)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1.5e-3

    def test_diagonal_sinusoid(self):
        # gradient magnitude picks up sqrt(2): integral is 4*sqrt(2)*N
        N = 16
        jj, ii = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        f = np.sin(2 * np.pi * (ii + jj) / N)
        exact = 4 * np.sqrt(2.0) * N
        assert abs(spectral_tv(f, 4) - exact) / exact < 2e-3

    def test_default_oversampling_is_two(self):
        rng = np.random.default_rng(53)
        f = rng.standard_normal((8, 8))
        assert spectral_tv(f) == spectral_tv(f, 2)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            spectral_tv(np.zeros((4, 4)), 0)
