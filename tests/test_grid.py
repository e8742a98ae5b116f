import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from tvkit import grid
from tvkit.grid import Kernel, VectorField

from conftest import materialize


def random_field(rng, h, w):
    return rng.standard_normal((h, w))


class TestKernel:
    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            Kernel(np.ones((2, 2)))
        with pytest.raises(ValueError):
            Kernel(np.ones((3, 4)))

    def test_non_finite_rejected(self):
        w = np.ones((3, 3))
        w[1, 1] = np.nan
        with pytest.raises(ValueError):
            Kernel(w)

    def test_factories_normalized(self):
        for k in (Kernel.box(3), Kernel.binomial3(), Kernel.gaussian(5, 0.8),
                  Kernel.motion_horizontal(3), Kernel.motion_vertical(5)):
            assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_delta_anchor(self):
        k = Kernel.delta(5)
        assert k.weights[2, 2] == 1.0
        assert k.weights.sum() == 1.0


class TestGradient:
    def test_constant_is_zero(self):
        g = grid.gradient(np.full((4, 7), 3.2))
        assert not g.u.any() and not g.v.any()

    def test_horizontal_ramp(self):
        # f(i,j) = i: unit horizontal difference, zero vertical
        f = np.tile(np.arange(6.0), (4, 1))
        g = grid.gradient(f)
        assert np.array_equal(g.u[:, :-1], np.ones((4, 5)))
        assert not g.u[:, -1].any()
        assert not g.v.any()

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(3)
        f = random_field(rng, 5, 5)
        g = grid.gradient(f)
        for j in range(5):
            for i in range(5):
                du = f[j, i + 1] - f[j, i] if i < 4 else 0.0
                dv = f[j + 1, i] - f[j, i] if j < 4 else 0.0
                assert g.u[j, i] == du
                assert g.v[j, i] == dv

    def test_stack_gives_channel_gradients(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((3, 5, 4))
        g = grid.gradient(f)
        assert g.u.shape == g.v.shape == f.shape
        for c in range(3):
            gc = grid.gradient(f[c])
            assert np.array_equal(g.u[c], gc.u)
            assert np.array_equal(g.v[c], gc.v)


class TestDivergence:
    def test_zero_field(self):
        p = VectorField(np.zeros((3, 5)), np.zeros((3, 5)))
        assert not grid.divergence(p).any()

    def test_gradient_of_ramp_has_zero_interior_divergence(self):
        f = np.tile(np.arange(8.0), (8, 1)) + 2.0 * np.arange(8.0)[:, None]
        div = grid.divergence(grid.gradient(f))
        assert np.abs(div[1:-1, 1:-1]).max() == 0.0

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_negative_adjoint_of_gradient(self, h, w, seed):
        rng = np.random.default_rng(seed)
        f = random_field(rng, h, w)
        p = VectorField(random_field(rng, h, w), random_field(rng, h, w))
        g = grid.gradient(f)
        lhs = float(np.sum(g.u * p.u + g.v * p.v))
        rhs = -float(np.sum(f * grid.divergence(p)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dense_transpose(self):
        # divergence must be exactly -G^T for the stacked gradient matrix
        shape = (4, 5)
        n = shape[0] * shape[1]
        G = np.vstack([
            materialize(lambda x: grid.gradient(x).u, shape),
            materialize(lambda x: grid.gradient(x).v, shape),
        ])
        rng = np.random.default_rng(0)
        p = rng.standard_normal(2 * n)
        got = grid.divergence(
            VectorField(p[:n].reshape(shape), p[n:].reshape(shape))
        ).ravel()
        assert np.allclose(got, -G.T @ p, atol=1e-12)

    def test_stack_gives_channel_divergences(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 5, 4))
        div = grid.divergence(VectorField(u, v))
        assert div.shape == u.shape
        for c in range(3):
            assert np.array_equal(div[c], grid.divergence(VectorField(u[c], v[c])))


class TestConvolve:
    def test_delta_identity_bitwise(self):
        rng = np.random.default_rng(1)
        f = random_field(rng, 6, 7)
        assert np.array_equal(grid.convolve(f, Kernel.delta()), f)
        assert np.array_equal(grid.convolve(f, Kernel.delta(3)), f)

    def test_box_preserves_constants(self):
        f = np.full((5, 8), 0.42)
        out = grid.convolve(f, Kernel.box(3))
        assert np.allclose(out, 0.42, atol=1e-15)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        f = random_field(rng, 7, 7)
        k = Kernel(rng.standard_normal((3, 3)))
        out = grid.convolve(f, k)
        expect = np.zeros_like(f)
        for j in range(7):
            for i in range(7):
                acc = 0.0
                for b in range(3):
                    for a in range(3):
                        jj = min(max(j + b - 1, 0), 6)
                        ii = min(max(i + a - 1, 0), 6)
                        acc += k.weights[b, a] * f[jj, ii]
                expect[j, i] = acc
        assert np.abs(out - expect).max() < 1e-12

    def test_matches_scipy_correlate(self):
        rng = np.random.default_rng(8)
        f = random_field(rng, 9, 6)
        k = Kernel(rng.standard_normal((5, 5)))
        out = grid.convolve(f, k)
        ref = ndimage.correlate(f, k.weights, mode="nearest")
        assert np.abs(out - ref).max() < 1e-12

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, h, w, seed):
        rng = np.random.default_rng(seed)
        f, g = random_field(rng, h, w), random_field(rng, h, w)
        k = Kernel(rng.standard_normal((3, 3)))
        left = grid.convolve(2.0 * f - 0.5 * g, k)
        right = 2.0 * grid.convolve(f, k) - 0.5 * grid.convolve(g, k)
        assert np.abs(left - right).max() < 1e-12 * max(1.0, np.abs(right).max())


class TestConvolveAdjoint:
    def test_delta_identity(self):
        rng = np.random.default_rng(2)
        f = random_field(rng, 5, 5)
        assert np.array_equal(grid.convolve_adjoint(f, Kernel.delta(3)), f)

    def test_symmetric_kernel_interior(self):
        # away from the boundary a symmetric kernel is self-adjoint
        rng = np.random.default_rng(4)
        f = np.zeros((9, 9))
        f[3:6, 3:6] = rng.standard_normal((3, 3))
        k = Kernel.binomial3()
        a = grid.convolve(f, k)
        b = grid.convolve_adjoint(f, k)
        assert np.abs(a - b).max() < 1e-14

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity(self, h, w, seed, kh, kw):
        rng = np.random.default_rng(seed)
        x = random_field(rng, h, w)
        y = random_field(rng, h, w)
        k = Kernel(rng.standard_normal((kh, kw)))
        lhs = float(np.sum(grid.convolve(x, k) * y))
        rhs = float(np.sum(x * grid.convolve_adjoint(y, k)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    # on the 2x3 field the (1,5) and (5,3) kernels are longer than the
    # field along one axis, so one window reaches past both opposite edges
    @pytest.mark.parametrize("kshape", [(3, 3), (1, 5), (5, 3)],
                             ids=["k3x3", "k1x5", "k5x3"])
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3)], ids=["5x4", "2x3"])
    def test_dense_transpose(self, shape, kshape):
        rng = np.random.default_rng(9)
        k = Kernel(rng.standard_normal(kshape))
        H = materialize(lambda x: grid.convolve(x, k), shape)
        Ht = materialize(lambda x: grid.convolve_adjoint(x, k), shape)
        assert np.abs(H.T - Ht).max() < 1e-14


class TestNorms:
    def test_inner_is_squared_norm(self):
        rng = np.random.default_rng(6)
        f = random_field(rng, 4, 4)
        assert grid.inner(f, f) == pytest.approx(np.linalg.norm(f) ** 2, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            grid.inner(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_summation_oracle(self):
        rng = np.random.default_rng(7)
        f, g = random_field(rng, 6, 3), random_field(rng, 6, 3)
        assert grid.inner(f, g) == pytest.approx(sum(f.ravel() * g.ravel()), rel=1e-12)
