import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from tvkit import grid
from tvkit.grid import Kernel, VectorField

from conftest import materialize, peak_allocation


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

    @pytest.mark.parametrize("factory", [Kernel.delta, Kernel.box, Kernel.gaussian,
                                         Kernel.motion_horizontal, Kernel.motion_vertical],
                             ids=["delta", "box", "gaussian", "motion-h", "motion-v"])
    @pytest.mark.parametrize("size", [0, -1, 4])
    def test_factories_reject_bad_sizes(self, factory, size):
        # an even size would silently build the next odd one, 0 the identity
        with pytest.raises(ValueError, match="odd"):
            factory(size)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf])
    def test_gaussian_rejects_bad_sigma_without_warning(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma"):
                Kernel.gaussian(3, sigma)

    @pytest.mark.parametrize("sigma", [1e-200, 5e-324])
    def test_gaussian_tiny_sigma_is_delta_without_warning(self, sigma):
        # x / sigma would overflow past the taps; those weights are 0 anyway
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = Kernel.gaussian(5, sigma)
        assert np.array_equal(k.weights, Kernel.delta(5).weights)

    def test_gaussian_unit_sigma_samples(self):
        r = np.exp(-0.5 * np.arange(-2.0, 3.0) ** 2)
        w = np.outer(r, r)
        assert np.array_equal(Kernel.gaussian(5, 1.0).weights, w / w.sum())

    def test_factories_normalized(self):
        for k in (Kernel.box(3), Kernel.binomial3(), Kernel.gaussian(5, 0.8),
                  Kernel.motion_horizontal(3), Kernel.motion_vertical(5)):
            assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_delta_anchor(self):
        k = Kernel.delta(5)
        assert k.weights[2, 2] == 1.0
        assert k.weights.sum() == 1.0

    # every nonzero rank-1 kernel has factors, down to the deltas and the
    # line kernels, whose one nonzero line leaves the other factor one tap
    @pytest.mark.parametrize("k", [
        Kernel.box(3), Kernel.box(5), Kernel.binomial3(), Kernel.gaussian(5, 1.0),
        Kernel.delta(), Kernel.delta(3), Kernel(np.full((1, 5), 0.2)),
        Kernel.motion_horizontal(5), Kernel.motion_vertical(5),
    ], ids=["box3", "box5", "binomial3", "gaussian5",
            "delta1", "delta3", "row1x5", "motion-h5", "motion-v5"])
    def test_factors_reproduce_weights(self, k):
        col, row = k.factors
        assert col.shape == (k.shape[0],) and row.shape == (k.shape[1],)
        err = np.abs(np.outer(col, row) - k.weights).max()
        assert err <= 1e-15 * np.abs(k.weights).max()

    # only a kernel of rank above 1, or of no nonzero tap, has none
    @pytest.mark.parametrize("k", [
        Kernel(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])),
        Kernel(np.zeros((3, 3))),
    ], ids=["plus-rank2", "zero"])
    def test_no_factors(self, k):
        assert k.factors is None

    def test_weights_are_a_read_only_copy(self):
        w = np.full((3, 3), 1.0 / 9.0)
        k = Kernel(w)
        w[1, 1] = 5.0
        assert k.weights[1, 1] == 1.0 / 9.0
        with pytest.raises(ValueError):
            k.weights[1, 1] = 5.0

    def test_factors_cached(self):
        k = Kernel.gaussian(5, 1.0)
        assert k.factors is k.factors

    def test_bands_cached_per_kernel(self):
        k = Kernel.gaussian(5, 1.0)
        grid.convolve(np.ones((40, 70)), k)
        assert k._band(0, 40, False) is k._band(0, 40, False)
        assert sorted(k._bands) == [(0, 40, False), (1, 70, False)]
        assert not Kernel.gaussian(5, 1.0)._bands

    def test_identity_equality_and_hash(self):
        a, b = Kernel.box(3), Kernel.box(3)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[b] == "b"


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


class TestOutBuffers:
    """``out=`` buffers pre-filled with NaN: every entry must be written."""

    SHAPES = [(1, 1), (1, 5), (5, 1), (2, 2), (6, 7), (2, 6, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradient_fills_given_buffers(self, shape):
        f = np.random.default_rng(61).standard_normal(shape)
        out = (np.full(shape, np.nan), np.full(shape, np.nan))
        g = grid.gradient(f, out=out)
        assert g.u is out[0] and g.v is out[1]
        want = grid.gradient(f)
        assert np.array_equal(g.u, want.u) and np.array_equal(g.v, want.v)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_divergence_fills_given_buffer(self, shape):
        rng = np.random.default_rng(67)
        p = VectorField(rng.standard_normal(shape), rng.standard_normal(shape))
        out = np.full(shape, np.nan)
        assert grid.divergence(p, out=out) is out
        assert np.array_equal(out, grid.divergence(p))

    @pytest.mark.parametrize("shape", SHAPES + [(3, 1, 4), (3, 4, 1)])
    def test_divergence_matches_zero_init_accumulation(self, shape):
        # the pre-buffer definition: four slice updates on a zeroed array
        rng = np.random.default_rng(71)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        want = np.zeros(shape)
        want[..., :-1] += u[..., :-1]
        want[..., 1:] -= u[..., :-1]
        want[..., :-1, :] += v[..., :-1, :]
        want[..., 1:, :] -= v[..., :-1, :]
        assert np.array_equal(grid.divergence(VectorField(u, v)), want)

    def test_non_contiguous_buffer_rejected(self):
        # a flat view of it would be a copy, and the result would be lost
        f = np.ones((4, 6))
        out = np.empty((6, 4)).T
        with pytest.raises(ValueError):
            grid.gradient(f, out=(out, np.empty_like(f)))
        with pytest.raises(ValueError):
            grid.divergence(VectorField(f, f), out=out)

    def test_wrong_shape_or_dtype_buffer_rejected(self):
        # numpy would cast into a float32 buffer without a word
        f = np.ones((4, 6))
        for out in (np.empty((4, 6), dtype=np.float32), np.empty((2, 4, 6))):
            with pytest.raises(ValueError):
                grid.gradient(f, out=(out, np.empty_like(f)))
            with pytest.raises(ValueError):
                grid.divergence(VectorField(f, f), out=out)

    def test_non_contiguous_input(self):
        f = np.random.default_rng(79).standard_normal((7, 6)).T
        g = grid.gradient(f)
        assert np.array_equal(g.u, grid.gradient(f.copy()).u)
        assert np.array_equal(grid.divergence(VectorField(f, f)),
                              grid.divergence(VectorField(f.copy(), f.copy())))

    def test_buffered_calls_allocate_no_field(self):
        rng = np.random.default_rng(73)
        f = rng.standard_normal((2, 128, 128))
        p = VectorField(rng.standard_normal(f.shape), rng.standard_normal(f.shape))
        g_out = (np.empty_like(f), np.empty_like(f))
        d_out = np.empty_like(f)
        assert peak_allocation(lambda: grid.gradient(f, out=g_out)) < f[0].nbytes
        assert peak_allocation(lambda: grid.divergence(p, out=d_out)) < f[0].nbytes
        # the allocating calls are measured the same way
        assert peak_allocation(lambda: grid.gradient(f)) >= 2 * f.nbytes

    # delta is one multiply; box3, binomial3 and gaussian5 run two band
    # passes and the motion kernel one; the rank-2 kernel (third row = first
    # + second) and the zero kernel run the patch strips of grid._taps
    CONVOLVE_KERNELS = {
        "delta": Kernel.delta(),
        "box3": Kernel.box(3),
        "binomial3": Kernel.binomial3(),
        "gaussian5": Kernel.gaussian(5, 1.0),
        "motion3": Kernel.motion_horizontal(3),
        "rank2": Kernel(np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [1.5, 1.0, 3.0]])),
        "zero": Kernel(np.zeros((3, 3))),
    }
    CONVOLVE_SHAPES = [(1, 1), (1, 5), (5, 1), (6, 7)]

    @pytest.mark.parametrize("op", [grid.convolve, grid.convolve_adjoint],
                             ids=["convolve", "adjoint"])
    @pytest.mark.parametrize("name", CONVOLVE_KERNELS)
    @pytest.mark.parametrize("shape", CONVOLVE_SHAPES)
    def test_convolution_fills_given_buffer(self, op, name, shape):
        k = self.CONVOLVE_KERNELS[name]
        f = np.random.default_rng(83).standard_normal(shape)
        out = np.full(shape, np.nan)
        assert op(f, k, out=out) is out
        assert np.array_equal(out, op(f, k))

    @pytest.mark.parametrize("name", CONVOLVE_KERNELS)
    @pytest.mark.parametrize("shape", CONVOLVE_SHAPES)
    def test_adjoint_identity_with_buffers(self, name, shape):
        k = self.CONVOLVE_KERNELS[name]
        rng = np.random.default_rng(89)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        hx = grid.convolve(x, k, out=np.full(shape, np.nan))
        hty = grid.convolve_adjoint(y, k, out=np.full(shape, np.nan))
        assert grid.inner(hx, y) == pytest.approx(grid.inner(x, hty), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("op", [grid.convolve, grid.convolve_adjoint],
                             ids=["convolve", "adjoint"])
    @pytest.mark.parametrize("k", [Kernel.delta(), Kernel.gaussian(5, 1.0)],
                             ids=["delta", "gaussian5"])
    def test_convolution_rejects_bad_buffer(self, op, k):
        f = np.ones((4, 6))
        for out in (np.empty((6, 4)).T, np.empty((4, 5)), np.empty((2, 4, 6)),
                    np.empty((4, 6), dtype=np.float32)):
            with pytest.raises(ValueError):
                op(f, k, out=out)

    def test_buffered_convolution_allocates_no_field(self):
        # a delta is one multiply and a line kernel one band pass into out;
        # the first calls also build the motion kernel's bands
        f = np.random.default_rng(97).standard_normal((128, 128))
        out = np.empty_like(f)
        for k in (Kernel.delta(), Kernel.delta(3), Kernel.motion_horizontal(7)):
            for op in (grid.convolve, grid.convolve_adjoint):
                assert peak_allocation(lambda: op(f, k, out=out)) < f.nbytes
                # the allocating call is measured the same way
                assert peak_allocation(lambda: op(f, k)) >= f.nbytes


FLOAT32_KERNELS = {
    "delta": Kernel.delta(), "gaussian5": Kernel.gaussian(5, 1.0),
    "motion7": Kernel.motion_horizontal(7),
    "rank3": Kernel(np.array([[0.05, 0.1, 0.0], [0.2, 0.3, 0.1], [0.0, 0.15, 0.1]])),
}
# float32's rounding, with room for the sums of up to 49 taps
F32_RTOL = 64 * np.finfo(np.float32).eps


class TestFloat32:
    """A float32 field stays float32 in the operator layer, and agrees with
    the float64 operator to float32 rounding."""

    SHAPES = [(1, 1), (5, 1), (37, 70), (2, 9, 11)]

    @staticmethod
    def fields(shape, seed=101):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape).astype(np.float32), rng.standard_normal(shape)

    @pytest.mark.parametrize("op", [grid.convolve, grid.convolve_adjoint],
                             ids=["convolve", "adjoint"])
    @pytest.mark.parametrize("name", FLOAT32_KERNELS)
    @pytest.mark.parametrize("shape", SHAPES[:3])
    def test_convolution_keeps_float32(self, op, name, shape):
        k = FLOAT32_KERNELS[name]
        x32, _ = self.fields(shape)
        got = op(x32, k)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        want = op(x32.astype(np.float64), k)
        assert np.abs(got - want).max() <= F32_RTOL * np.abs(want).max()
        out = np.full(shape, np.nan, np.float32)
        assert op(x32, k, out=out) is out
        assert np.array_equal(out, got)

    @pytest.mark.parametrize("name", FLOAT32_KERNELS)
    def test_adjoint_identity_in_float32(self, name):
        k = FLOAT32_KERNELS[name]
        x, _ = self.fields((37, 70), 103)
        y, _ = self.fields((37, 70), 107)
        lhs = np.vdot(grid.convolve(x, k).astype(np.float64), y.astype(np.float64))
        rhs = np.vdot(x.astype(np.float64), grid.convolve_adjoint(y, k).astype(np.float64))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.abs(k.weights).sum()
        assert abs(lhs - rhs) <= F32_RTOL * scale

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradient_and_divergence_keep_float32(self, shape):
        x32, _ = self.fields(shape, 109)
        g = grid.gradient(x32)
        assert g.u.dtype == g.v.dtype == np.float32
        want = grid.gradient(x32.astype(np.float64))
        for got, ref in zip(g, want):
            np.testing.assert_allclose(got, ref, rtol=F32_RTOL, atol=F32_RTOL)
        d = grid.divergence(g)
        assert d.dtype == np.float32
        np.testing.assert_allclose(d, grid.divergence(want), rtol=0, atol=4 * F32_RTOL)

    @pytest.mark.parametrize("name", FLOAT32_KERNELS)
    def test_float64_results_unchanged_by_float32_calls(self, name):
        # the float32 bands and taps are kept beside the float64 ones, not
        # in their place: a kernel used in both precisions gives the float64
        # results of a kernel used only in float64, bit for bit
        fresh, used = Kernel(FLOAT32_KERNELS[name].weights), Kernel(FLOAT32_KERNELS[name].weights)
        x32, x = self.fields((37, 70), 113)
        for op in (grid.convolve, grid.convolve_adjoint):
            op(x32, used)
        for op in (grid.convolve, grid.convolve_adjoint):
            got = op(x, used)
            assert got.dtype == np.float64
            assert np.array_equal(got, op(x, fresh))
        assert sorted(k for k in used._bands if len(k) == 3) == sorted(fresh._bands)

    @pytest.mark.parametrize("op", [grid.convolve, grid.convolve_adjoint],
                             ids=["convolve", "adjoint"])
    @pytest.mark.parametrize("name", FLOAT32_KERNELS)
    def test_out_of_the_other_dtype_rejected(self, op, name):
        k = FLOAT32_KERNELS[name]
        x32, x = self.fields((4, 6))
        with pytest.raises(ValueError):
            op(x32, k, out=np.empty((4, 6)))
        with pytest.raises(ValueError):
            op(x, k, out=np.empty((4, 6), np.float32))

    def test_stencils_reject_out_of_the_other_dtype(self):
        x32, _ = self.fields((4, 6))
        with pytest.raises(ValueError):
            grid.gradient(x32, out=(np.empty((4, 6)), np.empty((4, 6))))
        with pytest.raises(ValueError):
            grid.divergence(VectorField(x32, x32), out=np.empty((4, 6)))


# pads wider than the field repeat the edge sample throughout; a zero pad
# leaves its axis as it is
PADS = [((5, 4), 2, 2), ((2, 3), 4, 0), ((2, 3), 0, 4), ((1, 1), 3, 2)]


class TestPad:
    @pytest.mark.parametrize("shape,cy,cx", PADS)
    def test_pad_edge_matches_numpy_edge_mode(self, shape, cy, cx):
        f = random_field(np.random.default_rng(14), *shape)
        expect = np.pad(f, ((cy, cy), (cx, cx)), mode="edge")
        assert np.array_equal(grid.pad_edge(f, cy, cx), expect)
        expect = np.pad(f, ((cy, cy), (cx, cx)))
        assert np.array_equal(grid._pad_zero(f, cy, cx), expect)

    @pytest.mark.parametrize("shape,cy,cx", PADS)
    def test_fold_edge_is_the_transpose_of_pad_edge(self, shape, cy, cx):
        padded = (shape[0] + 2 * cy, shape[1] + 2 * cx)
        pad = materialize(lambda x: grid.pad_edge(x, cy, cx), shape)
        fold = materialize(lambda x: grid._fold_edge(x.copy(), cy, cx), padded)
        assert np.array_equal(fold, pad.T)


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


NAMED_KERNELS = {
    "delta1": Kernel.delta(), "delta3": Kernel.delta(3), "box3": Kernel.box(3),
    "box5": Kernel.box(5), "binomial3": Kernel.binomial3(),
    "gaussian3": Kernel.gaussian(3, 0.8), "gaussian5": Kernel.gaussian(5, 1.0),
    "motion-h5": Kernel.motion_horizontal(5), "motion-v5": Kernel.motion_vertical(5),
}

_rng = np.random.default_rng(12)
RANK1_KERNELS = {
    f"outer{kh}x{kw}": Kernel(np.outer(_rng.standard_normal(kh), _rng.standard_normal(kw)))
    for kh, kw in [(3, 3), (5, 5), (3, 5), (5, 3)]
}
RANK1_KERNELS["gaussian5"] = Kernel.gaussian(5, 1.0)
# rank 1 with one factor a single tap: one band pass, or none for a kernel
# of one centred tap; the shift's one tap is off centre, so it runs a pass
LINE_KERNELS = {
    "motion-h3": Kernel.motion_horizontal(3), "motion-h7": Kernel.motion_horizontal(7),
    "motion-v3": Kernel.motion_vertical(3), "motion-v7": Kernel.motion_vertical(7),
    "row1x5": Kernel(_rng.standard_normal((1, 5))), "col5x1": Kernel(_rng.standard_normal((5, 1))),
    "delta3": Kernel.delta(3), "scale1x1": Kernel([[2.0]]), "shift1x3": Kernel([[0.0, 0.0, 1.0]]),
}
RANK1_KERNELS.update(LINE_KERNELS)


def clamp_matrix(w, shape):
    """Dense matrix of the replicate-boundary correlation, index by index."""
    h, wd = shape
    kh, kw = w.shape
    m = np.zeros((h * wd, h * wd))
    for j in range(h):
        for i in range(wd):
            for b in range(kh):
                for a in range(kw):
                    jj = min(max(j + b - kh // 2, 0), h - 1)
                    ii = min(max(i + a - kw // 2, 0), wd - 1)
                    m[j * wd + i, jj * wd + ii] += w[b, a]
    return m


# sides around one and two band blocks, one with interior blocks clear of
# both edges, and one shorter than a 5-tap factor; the 67-tap factor
# reaches past a whole block on each side
BAND_SIDES = [grid._BLOCK - 1, grid._BLOCK, grid._BLOCK + 1, 2 * grid._BLOCK + 3,
              4 * grid._BLOCK + 3, 2]
BAND_KERNELS = {
    "gaussian5": Kernel.gaussian(5, 1.0), "box3": Kernel.box(3),
    "outer3x5": RANK1_KERNELS["outer3x5"], "outer5x3": RANK1_KERNELS["outer5x3"],
    "outer67x3": Kernel(np.outer(np.hanning(69)[1:-1], [0.25, 0.5, 0.25])),
    **LINE_KERNELS,
}


class TestFactoredConvolve:
    """Kernels with `Kernel.factors` run as products of band matrices."""

    @pytest.mark.parametrize("name", sorted(NAMED_KERNELS))
    def test_matches_tap_loop(self, name):
        k = NAMED_KERNELS[name]
        w = k.weights
        kh, kw = w.shape
        rng = np.random.default_rng(11)
        f = random_field(rng, 64, 64)
        tap = grid._taps(grid.pad_edge(f, kh // 2, kw // 2), w)
        out = grid.convolve(f, k)
        assert np.abs(out - tap).max() <= 1e-14 * np.abs(tap).max()
        tap_adj = grid._fold_edge(
            grid._taps(grid._pad_zero(f, kh - 1, kw - 1), w[::-1, ::-1]), kh // 2, kw // 2)
        adj = grid.convolve_adjoint(f, k)
        assert np.abs(adj - tap_adj).max() <= 1e-14 * np.abs(tap_adj).max()

    # on the 2x3 field a 5-tap axis reaches past both opposite edges
    @pytest.mark.parametrize("kname", sorted(RANK1_KERNELS))
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3)], ids=["5x4", "2x3"])
    def test_dense_oracle(self, shape, kname):
        k = RANK1_KERNELS[kname]
        assert k.factors is not None
        H = materialize(lambda x: grid.convolve(x, k), shape)
        Ht = materialize(lambda x: grid.convolve_adjoint(x, k), shape)
        assert np.abs(H - clamp_matrix(k.weights, shape)).max() < 1e-14
        assert np.abs(H.T - Ht).max() < 1e-14

    @pytest.mark.parametrize("kname", sorted(BAND_KERNELS))
    @pytest.mark.parametrize("h", BAND_SIDES)
    def test_band_blocks_match_oracles(self, h, kname):
        k = BAND_KERNELS[kname]
        assert k.factors is not None
        w = k.weights
        kh, kw = w.shape
        rng = np.random.default_rng(h)
        for wd in BAND_SIDES:
            f, y = random_field(rng, h, wd), random_field(rng, h, wd)
            ref = ndimage.correlate(f, w, mode="nearest")
            out = grid.convolve(f, k)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
            tap_adj = grid._fold_edge(
                grid._taps(grid._pad_zero(y, kh - 1, kw - 1), w[::-1, ::-1]), kh // 2, kw // 2)
            adj = grid.convolve_adjoint(y, k)
            assert np.abs(adj - tap_adj).max() <= 1e-12 * np.abs(tap_adj).max()
            assert grid.inner(out, y) == pytest.approx(grid.inner(f, adj), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("op", [grid.convolve, grid.convolve_adjoint],
                             ids=["convolve", "adjoint"])
    def test_first_call_builds_no_square_matrix(self, op):
        # the 4096-long axis as a dense 4096x4096 matrix would be 128 MiB;
        # its band blocks hold 4096 x (_BLOCK + 4) entries (1.2 MB), and the
        # call adds its result, one intermediate and the 3-long axis' blocks
        f = random_field(np.random.default_rng(17), 3, 4096)
        k = Kernel.gaussian(5, 1.0)
        blocks = 4096 * (grid._BLOCK + 4) * 8
        assert peak_allocation(lambda: op(f, k)) < 2 * blocks

    @pytest.mark.parametrize("k", [Kernel.gaussian(5, 1.0), Kernel(np.arange(9.0).reshape(3, 3))],
                             ids=["factored", "tap-loop"])
    def test_results_own_contiguous_memory(self, k):
        f = random_field(np.random.default_rng(13), 64, 64)
        for op in (grid.convolve, grid.convolve_adjoint):
            out = op(f, k)
            assert out.shape == f.shape
            assert out.flags["C_CONTIGUOUS"]
            assert out.base is None


_rng = np.random.default_rng(19)
# kernels without factors, which run the patch strips of `grid._taps`: two
# with zero taps (which enter the strip products) and the all-zero kernel
STRIP_KERNELS = {
    "rank3-zero-taps": Kernel(np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [0.0, 1.0, 1.0]])),
    "random3x3": Kernel(_rng.standard_normal((3, 3))),
    "random5x3": Kernel(_rng.standard_normal((5, 3))),
    "random3x5": Kernel(_rng.standard_normal((3, 5))),
    "plus": Kernel(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])),
    "zero": Kernel(np.zeros((3, 3))),
}
# 7 rows are not a multiple of 2-row strips; 1xN and Nx1 fields; a 2x2
# field and a 1x1 field are smaller than every kernel above
STRIP_SHAPES = [(7, 8), (1, 9), (9, 1), (2, 2), (1, 1)]
# the default strip (one strip on these fields), one row per strip, and
# strips of about 150 floats: 2 rows of a 3x3 forward pass on the 7x8 field
STRIP_FLOATS = {"default": grid._STRIP_FLOATS, "one-row": 1, "150": 150}


def patch_matrix(fp, kh, kw):
    """The whole patch matrix, row ``(b, a)`` the window at that offset."""
    h, wd = fp.shape[0] - kh + 1, fp.shape[1] - kw + 1
    return np.array([fp[b : b + h, a : a + wd].ravel() for b in range(kh) for a in range(kw)])


class TestPatchStrips:
    """Kernels without `Kernel.factors` run `grid._taps`: one BLAS product
    of the taps with each patch strip of `grid._strips`."""

    @pytest.mark.parametrize("strip", STRIP_FLOATS)
    @pytest.mark.parametrize("fshape,kh,kw", [((9, 10), 3, 3), ((15, 6), 5, 3),
                                              ((5, 13), 3, 5), ((3, 3), 3, 3)])
    def test_strips_tile_the_patch_matrix(self, fshape, kh, kw, strip, monkeypatch):
        monkeypatch.setattr(grid, "_STRIP_FLOATS", STRIP_FLOATS[strip])
        fp = random_field(np.random.default_rng(23), *fshape)
        h, wd = fshape[0] - kh + 1, fshape[1] - kw + 1
        rows = min(h, max(1, grid._STRIP_FLOATS // (kh * kw * wd)))
        tops, parts = [], []
        for top, n, p in grid._strips(fp, kh, kw):
            assert p.shape == (kh * kw, n * wd) and p.flags.c_contiguous
            assert n == min(rows, h - top)
            tops.append(top)
            parts.append(p.reshape(kh * kw, n, wd).copy())
        assert tops == list(range(0, h, rows))
        assert np.array_equal(np.concatenate(parts, axis=1).reshape(kh * kw, -1),
                              patch_matrix(fp, kh, kw))

    @pytest.mark.parametrize("strip", STRIP_FLOATS)
    @pytest.mark.parametrize("kname", STRIP_KERNELS)
    @pytest.mark.parametrize("shape", STRIP_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_dense_oracle_and_adjoint(self, shape, kname, strip, monkeypatch):
        monkeypatch.setattr(grid, "_STRIP_FLOATS", STRIP_FLOATS[strip])
        k = STRIP_KERNELS[kname]
        assert k.factors is None
        H = materialize(lambda x: grid.convolve(x, k), shape)
        Ht = materialize(lambda x: grid.convolve_adjoint(x, k), shape)
        assert np.abs(H - clamp_matrix(k.weights, shape)).max() < 1e-14
        assert np.abs(H.T - Ht).max() < 1e-14
        rng = np.random.default_rng(29)
        x, y = random_field(rng, *shape), random_field(rng, *shape)
        assert grid.inner(grid.convolve(x, k), y) == pytest.approx(
            grid.inner(x, grid.convolve_adjoint(y, k)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kname", ["random3x3", "random5x3"])
    def test_tall_field_runs_several_strips(self, kname):
        # with the default strip size: 2 full strips and a short third
        k = STRIP_KERNELS[kname]
        kh, kw = k.shape
        rows = grid._STRIP_FLOATS // (kh * kw * 64)
        rng = np.random.default_rng(37)
        f, y = random_field(rng, 2 * rows + 5, 64), random_field(rng, 2 * rows + 5, 64)
        assert len(list(grid._strips(grid.pad_edge(f, kh // 2, kw // 2), kh, kw))) == 3
        out = grid.convolve(f, k)
        ref = ndimage.correlate(f, k.weights, mode="nearest")
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert grid.inner(out, y) == pytest.approx(
            grid.inner(f, grid.convolve_adjoint(y, k)), rel=1e-12)

    @pytest.mark.parametrize("strip", STRIP_FLOATS)
    @pytest.mark.parametrize("kname", STRIP_KERNELS)
    def test_garbage_out_is_overwritten(self, kname, strip, monkeypatch):
        monkeypatch.setattr(grid, "_STRIP_FLOATS", STRIP_FLOATS[strip])
        k = STRIP_KERNELS[kname]
        kh, kw = k.shape
        fp = random_field(np.random.default_rng(41), 7 + kh - 1, 8 + kw - 1)
        expect = grid._taps(fp, k.weights)
        for fill in (np.nan, np.inf, 1e300):
            out = np.full((7, 8), fill)
            assert grid._taps(fp, k.weights, out) is out
            assert np.array_equal(out, expect)
        f = fp[:7, :8]
        for op in (grid.convolve, grid.convolve_adjoint):
            assert np.array_equal(op(f, k, out=np.full(f.shape, np.nan)), op(f, k))

    def test_overflow_warns(self):
        # numpy reports the product's overflow, which the solve drivers'
        # overflow policy silences before their non-finite check
        fp = np.full((5, 5), 1e300)
        w = 1e10 * STRIP_KERNELS["rank3-zero-taps"].weights
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = grid._taps(fp, w)
        assert not np.isfinite(out).any()


class TestInputValidation:
    @pytest.mark.parametrize("call, message", [
        (lambda: Kernel(np.ones(3)), "2D array"),
        (lambda: grid.ensure_field(np.zeros((2, 3, 3))), "expected a 2D field, got ndim=3"),
        (lambda: grid.ensure_field(np.zeros((0, 3))), r"field has no pixels: shape \(0, 3\)"),
        (lambda: grid.divergence(VectorField(np.zeros((3, 3)), np.zeros((3, 4)))),
         "components differ"),
    ], ids=["kernel-1d", "field-3d", "field-empty", "divergence-components"])
    def test_malformed_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


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
