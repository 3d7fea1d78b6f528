"""Forward semantics of the tensor ops: oracles, shape formulas, edge cases."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from volsynth import autodiff as ad
from volsynth.autodiff import Tensor


def conv3d_loop_oracle(x, k, bias, stride, pad):
    """Direct correlation: loops over every output cell and kernel window."""
    n_, c_, d_, h_, w_ = x.shape
    f_, _, kd, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    do = (d_ + 2 * pad - kd) // stride + 1
    ho = (h_ + 2 * pad - kh) // stride + 1
    wo = (w_ + 2 * pad - kw) // stride + 1
    out = np.zeros((n_, f_, do, ho, wo))
    for n in range(n_):
        for f in range(f_):
            for od in range(do):
                for oh in range(ho):
                    for ow in range(wo):
                        win = xp[n, :, od * stride:od * stride + kd,
                                 oh * stride:oh * stride + kh,
                                 ow * stride:ow * stride + kw]
                        out[n, f, od, oh, ow] = (win * k[f]).sum() + bias[f]
    return out


class TestConv3d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3)))
        k = Tensor(np.ones((1, 1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = ad.conv3d(x, k, b, stride=1, pad=0)
        assert out.data.shape == (1, 1, 3, 3, 3)
        assert np.array_equal(out.data, np.ones((1, 1, 3, 3, 3)))

    def test_shape_formula_halving(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8, 8)))
        k = Tensor(rng.normal(size=(3, 2, 4, 4, 4)))
        out = ad.conv3d(x, k, None, stride=2, pad=1)
        assert out.data.shape == (1, 3, 4, 4, 4)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 5, 6, 7))
        k = rng.normal(size=(4, 3, 3, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv3d(Tensor(x), Tensor(k), Tensor(b), stride=1, pad=1)
        ref = conv3d_loop_oracle(x, k, b, 1, 1)
        assert np.abs(out.data - ref).max() <= 1e-10

    def test_strided_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 2, 9, 8, 7))
        k = rng.normal(size=(3, 2, 4, 4, 4))
        b = rng.normal(size=3)
        out = ad.conv3d(Tensor(x), Tensor(k), Tensor(b), stride=2, pad=1)
        ref = conv3d_loop_oracle(x, k, b, 2, 1)
        assert np.abs(out.data - ref).max() <= 1e-10

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4, 4)))
        k = Tensor(rng.normal(size=(2, 4, 3, 3, 3)))
        with pytest.raises(ad.DimensionError, match=r"\(1, 3, 4, 4, 4\)"):
            ad.conv3d(x, k, None)

    def test_kernel_too_large_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 3, 3, 3)))
        k = Tensor(rng.normal(size=(1, 1, 5, 5, 5)))
        with pytest.raises(ad.DimensionError):
            ad.conv3d(x, k, None, stride=1, pad=0)


class TestConv3dTranspose:
    def test_scalar_kernel_scales_channels(self, rng):
        x = rng.normal(size=(1, 2, 3, 3, 3))
        k = np.zeros((2, 2, 1, 1, 1))
        k[0, 0] = 2.5
        k[1, 1] = 2.5
        out = ad.conv3d_transpose(Tensor(x), Tensor(k), None, stride=1, pad=0)
        assert np.abs(out.data - 2.5 * x).max() == 0.0

    def test_shape_formula_doubling(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8, 8)))
        k = Tensor(rng.normal(size=(2, 3, 4, 4, 4)))
        out = ad.conv3d_transpose(x, k, None, stride=2, pad=1)
        assert out.data.shape == (1, 3, 16, 16, 16)

    @pytest.mark.parametrize("ksz,stride,pad", [
        (4, 2, 1), (3, 1, 1), (2, 2, 0), (1, 1, 0), (4, 2, 2), (3, 2, 1), (5, 3, 2),
    ])
    def test_adjoint_identity(self, rng, ksz, stride, pad):
        q = 4
        x_sp = (q - 1) * stride - 2 * pad + ksz
        x = rng.normal(size=(2, 3, x_sp, x_sp, x_sp))
        k = rng.normal(size=(5, 3, ksz, ksz, ksz))
        y = rng.normal(size=(2, 5, q, q, q))
        lhs = float((ad.conv3d(Tensor(x), Tensor(k), None, stride, pad).data * y).sum())
        rhs = float((x * ad.conv3d_transpose(Tensor(y), Tensor(k), None, stride, pad).data).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_output_dims_override_for_odd_targets(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5, 5)))
        k = Tensor(rng.normal(size=(2, 1, 4, 4, 4)))
        out = ad.conv3d_transpose(x, k, None, stride=2, pad=1, output_dims=(9, 9, 9))
        assert out.data.shape == (1, 1, 9, 9, 9)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4, 4)))
        k = Tensor(rng.normal(size=(2, 4, 3, 3, 3)))
        with pytest.raises(ad.DimensionError):
            ad.conv3d_transpose(x, k, None)


@st.composite
def adjoint_cases(draw):
    """Shapes where conv3d maps x's dims onto y's and conv3d_transpose maps back.

    Each axis of x is (q - 1)*stride - 2*pad + k + extra; an extra below the
    stride leaves conv3d's output at q, and only then is x's size passed as
    the ``output_dims`` override.
    """
    stride = draw(st.integers(1, 3))
    ks = draw(st.tuples(*[st.integers(1, 5)] * 3))
    q = draw(st.tuples(*[st.integers(1, 4)] * 3))
    extra = (0,) * 3
    if draw(st.booleans()):
        extra = draw(st.tuples(*[st.integers(0, stride - 1)] * 3))
    reach = [(a - 1) * stride + k + e for a, k, e in zip(q, ks, extra)]
    pad = draw(st.integers(0, min(2, (min(reach) - 1) // 2)))
    dims = tuple(r - 2 * pad for r in reach)
    n, c, f = (draw(st.integers(1, 3)) for _ in range(3))
    return n, c, f, stride, pad, ks, q, dims, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(adjoint_cases())
def test_conv3d_and_transpose_are_adjoint(case):
    """<conv3d(x, k), y> = <x, conv3d_transpose(y, k)>, with equal gradients in x, k and y."""
    n, c, f, stride, pad, ks, q, dims, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, c) + dims), requires_grad=True)
    k = Tensor(rng.normal(size=(f, c) + ks), requires_grad=True)
    y = Tensor(rng.normal(size=(n, f) + q), requires_grad=True)
    natural = ad.conv3d_transpose_output_dims(q, ks, stride, pad)
    override = None if natural == dims else dims
    lhs = ad.tsum(ad.conv3d(x, k, None, stride, pad) * y)
    rhs = ad.tsum(x * ad.conv3d_transpose(y, k, None, stride, pad, output_dims=override))
    assert lhs.item() == pytest.approx(rhs.item(), rel=1e-9, abs=1e-9)
    leaves = {"x": x, "k": k, "y": y}
    g_lhs, g_rhs = ad.backward(lhs, leaves), ad.backward(rhs, leaves)
    for name in leaves:
        np.testing.assert_allclose(g_lhs[name], g_rhs[name], rtol=1e-9, atol=1e-9)


def window_view_im2col(x_padded, ksize, stride):
    """Reference gather: strided windows of the channels-last copy, one copy."""
    xcl = np.ascontiguousarray(np.moveaxis(x_padded, 1, -1))
    win = sliding_window_view(xcl, ksize, axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
    pdims = win.shape[1:4]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 3, 5, 6, 7, 4))
    return cols.reshape(x_padded.shape[0] * int(np.prod(pdims)), -1), pdims


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 3), st.integers(1, 5),
       st.tuples(*[st.integers(1, 4)] * 3), st.integers(1, 3),
       st.tuples(*[st.integers(0, 6)] * 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_im2col_columns_equal_the_window_view_gather(dtype, n, c, ksize, stride, extra,
                                                     sliced, seed):
    rng = np.random.default_rng(seed)
    dims = tuple(k + e for k, e in zip(ksize, extra))
    if sliced:      # a non-contiguous view: channel, front, back and strided cuts
        big = rng.normal(size=(n, c + 1, dims[0] + 1, dims[1] + 2, 2 * dims[2]))
        x = big.astype(dtype)[:, 1:, 1:, :-2, ::2]
    else:
        x = rng.normal(size=(n, c) + dims).astype(dtype)
    cols, pdims = ad._im2col(x, ksize, stride)
    ref, ref_pdims = window_view_im2col(x, ksize, stride)
    assert pdims == ref_pdims
    assert cols.dtype == ref.dtype and cols.shape == ref.shape
    assert cols.tobytes() == ref.tobytes()


class TestBatchNorm:
    def test_normalizes_to_zero_mean_unit_variance(self, rng):
        # variance deviates by eps/var, so keep the input variance >> 10*eps
        x = Tensor(rng.normal(loc=3.0, scale=5.0, size=(4, 3, 5, 5, 5)))
        state = ad.BatchNormState(3)
        out = ad.batchnorm3d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, True)
        means = out.data.mean(axis=(0, 2, 3, 4))
        variances = out.data.var(axis=(0, 2, 3, 4))
        assert np.abs(means).max() <= 1e-7
        assert np.abs(variances - 1.0).max() <= 1e-6

    def test_constant_channel_maps_to_zero(self):
        x = Tensor(np.full((2, 1, 3, 3, 3), 7.0))
        state = ad.BatchNormState(1)
        out = ad.batchnorm3d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, True)
        assert np.array_equal(out.data, np.zeros_like(x.data))

    def test_running_stats_match_ema_oracle(self, rng):
        momentum = 0.9
        state = ad.BatchNormState(2, momentum=momentum)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        for _ in range(2):
            batch = rng.normal(size=(3, 2, 4, 4, 4))
            ad.batchnorm3d(Tensor(batch), gamma, beta, state, True)
            rm = momentum * rm + (1 - momentum) * batch.mean(axis=(0, 2, 3, 4))
            rv = momentum * rv + (1 - momentum) * batch.var(axis=(0, 2, 3, 4))
        assert np.abs(state.running_mean - rm).max() <= 1e-12
        assert np.abs(state.running_var - rv).max() <= 1e-12

    def test_inference_is_fixed_affine_and_pure(self, rng):
        state = ad.BatchNormState(2)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        ad.batchnorm3d(Tensor(rng.normal(size=(3, 2, 4, 4, 4))), gamma, beta, state, True)
        saved = (state.running_mean.copy(), state.running_var.copy())
        x = Tensor(rng.normal(size=(2, 2, 4, 4, 4)))
        out1 = ad.batchnorm3d(x, gamma, beta, state, False)
        out2 = ad.batchnorm3d(x, gamma, beta, state, False)
        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(state.running_mean, saved[0])
        assert np.array_equal(state.running_var, saved[1])

    def test_degenerate_batch_raises(self):
        x = Tensor(np.zeros((1, 2, 1, 1, 1)))
        state = ad.BatchNormState(2)
        with pytest.raises(ad.BatchNormError):
            ad.batchnorm3d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)


class TestActivations:
    def test_definitions(self):
        x = Tensor(np.array([-2.0, 3.0]))
        assert np.array_equal(ad.relu(x).data, [0.0, 3.0])
        assert ad.sigmoid(Tensor(np.zeros(1))).data[0] == 0.5
        assert ad.tanh(Tensor(np.zeros(1))).data[0] == 0.0
        assert ad.leaky_relu(Tensor(np.array([-1.0])), 0.2).data[0] == pytest.approx(-0.2)

    def test_sigmoid_strictly_inside_unit_interval(self, rng):
        x = Tensor(rng.normal(scale=20.0, size=1000))
        out = ad.sigmoid(x).data
        assert out.min() > 0.0 and out.max() < 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]).flatmap(lambda dt: hnp.arrays(
        dt, hnp.array_shapes(max_dims=3, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False,
                           width=np.finfo(dt).bits))))
    @example(np.array([0.0, -0.0, 100.0, -100.0, 1e-30, -1e-30], dtype=np.float32))
    @example(np.array([0.0, -0.0, 100.0, -100.0, 1e-30, -1e-30, 800.0, -800.0]))
    def test_sigmoid_bits_equal_the_piecewise_form(self, x):
        """The branch-free form gives the masked piecewise form's bits."""
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        ref = np.clip(ref, np.finfo(x.dtype).tiny,
                      np.nextafter(x.dtype.type(1.0), x.dtype.type(0.0)))
        out = ad.sigmoid(Tensor(x)).data
        assert out.dtype == x.dtype
        assert out.tobytes() == ref.tobytes()

    def test_leaky_alpha_bounds(self):
        with pytest.raises(ad.GraphError):
            ad.leaky_relu(Tensor(np.zeros(1)), alpha=1.5)


class TestDense:
    def test_identity_weight(self, rng):
        x = rng.normal(size=(3, 4))
        out = ad.dense(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x)

    def test_hand_arithmetic(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(3.0 * np.eye(2))
        b = Tensor(np.array([1.0, 1.0]))
        out = ad.dense(x, w, b)
        assert np.array_equal(out.data, [[4.0, 7.0]])

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                ref[i, j] = sum(x[i, k] * w[k, j] for k in range(5)) + b[j]
        out = ad.dense(Tensor(x), Tensor(w), Tensor(b))
        assert np.abs(out.data - ref).max() <= 1e-12

    def test_mismatch_names_both_shapes(self, rng):
        with pytest.raises(ad.DimensionError, match=r"\(3, 4\).*\(5, 2\)"):
            ad.dense(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))), None)


class TestConcat:
    def test_channel_ordering(self, rng):
        a = rng.normal(size=(1, 1, 2, 2, 2))
        b = rng.normal(size=(1, 1, 2, 2, 2))
        out = ad.concat_channels(Tensor(a), Tensor(b))
        assert np.array_equal(out.data[:, 0], a[:, 0])
        assert np.array_equal(out.data[:, 1], b[:, 0])

    def test_empty_concat_is_identity(self, rng):
        a = rng.normal(size=(1, 2, 2, 2, 2))
        out = ad.concat_channels(Tensor(a), Tensor(np.zeros((1, 0, 2, 2, 2))))
        assert np.array_equal(out.data, a)

    def test_gradient_is_ones_on_first_input(self, rng):
        a = Tensor(rng.normal(size=(1, 2, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 1, 2, 2, 2)))
        loss = ad.tsum(ad.concat_channels(a, b))
        grads = ad.backward(loss, {"a": a})
        assert np.array_equal(grads["a"], np.ones_like(a.data))

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ad.DimensionError):
            ad.concat_channels(Tensor(np.zeros((1, 1, 2, 2, 2))),
                               Tensor(np.zeros((1, 1, 3, 2, 2))))


class TestTensorBasics:
    def test_non_finite_leaf_rejected(self):
        with pytest.raises(ad.GraphError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(ad.GraphError):
            Tensor(np.array([np.inf]))

    def test_deterministic_evaluation(self, rng):
        x = rng.normal(size=(2, 2, 6, 6, 6))
        k = rng.normal(size=(3, 2, 4, 4, 4))
        a = ad.conv3d(Tensor(x), Tensor(k), None, 2, 1).data
        b = ad.conv3d(Tensor(x), Tensor(k), None, 2, 1).data
        assert np.array_equal(a, b)
