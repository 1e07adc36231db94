"""Tests for conv2d / pooling primitives."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def numeric_grad(fn, value, eps=1e-6):
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = value[idx]
        value[idx] = orig + eps
        plus = fn(value)
        value[idx] = orig - eps
        minus = fn(value)
        value[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestConv2d:
    def test_output_shape_no_padding(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3, 3, 3)))
        b = Tensor(np.zeros(4))
        out = F.conv2d(x, w, b)
        assert out.shape == (2, 4, 6, 6)

    def test_output_shape_with_padding_and_stride(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.zeros(2))
        out = F.conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((2, 3, 3, 3)))
        b = Tensor(np.zeros(2))
        with pytest.raises(ValueError):
            F.conv2d(x, w, b)

    def test_identity_kernel(self):
        """A 1x1 kernel equal to 1 copies the input channel."""
        x_val = np.random.default_rng(2).normal(size=(1, 1, 5, 5))
        x = Tensor(x_val)
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = F.conv2d(x, w, b)
        assert np.allclose(out.data, x_val)

    def test_bias_is_added(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b)
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(1, 2, 4, 4))
        w_val = rng.normal(size=(2, 2, 3, 3))
        b_val = rng.normal(size=(2,))

        def forward(xv, wv, bv):
            return F.conv2d(Tensor(xv), Tensor(wv), Tensor(bv), padding=1).data.sum()

        x = Tensor(x_val.copy(), requires_grad=True)
        w = Tensor(w_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()

        assert np.allclose(x.grad, numeric_grad(lambda v: forward(v, w_val, b_val), x_val.copy()), atol=1e-5)
        assert np.allclose(w.grad, numeric_grad(lambda v: forward(x_val, v, b_val), w_val.copy()), atol=1e-5)
        assert np.allclose(b.grad, numeric_grad(lambda v: forward(x_val, w_val, v), b_val.copy()), atol=1e-5)


class TestPooling:
    def test_max_pool_shape_and_values(self):
        x_val = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x_val), kernel=2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data.ravel(), [5.0, 7.0, 13.0, 15.0])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, kernel=2).sum().backward()
        grad = x.grad.reshape(4, 4)
        assert grad.sum() == pytest.approx(4.0)
        assert grad[1, 1] == 1.0 and grad[3, 3] == 1.0
        assert grad[0, 0] == 0.0

    def test_avg_pool_values(self):
        x_val = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x_val), kernel=2)
        assert np.allclose(out.data.ravel(), [2.5, 4.5, 10.5, 12.5])

    def test_avg_pool_gradient_uniform(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, kernel=2).sum().backward()
        assert np.allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 5, 5)))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, 1.0)

    def test_max_pool_multichannel_batch(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 2, 6, 6)), requires_grad=True)
        out = F.max_pool2d(x, kernel=3)
        assert out.shape == (3, 2, 2, 2)
        out.sum().backward()
        assert x.grad.shape == (3, 2, 6, 6)


class TestShapeValidation:
    def test_max_pool_kernel_larger_than_input_raises(self):
        with pytest.raises(ValueError, match=r"kernel 5 with stride 5 and padding 0 .*\(1, 1, 3, 4\)"):
            F.max_pool2d(Tensor(np.zeros((1, 1, 3, 4))), kernel=5)

    def test_conv_kernel_larger_than_padded_input_raises(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((1, 1, 6, 6)))
        with pytest.raises(ValueError, match=r"kernel 6 with stride 1 and padding 1 .*\(1, 1, 3, 3\)"):
            F.conv2d(x, w, Tensor(np.zeros(1)), padding=1)

    @pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
    def test_pool_stride_zero_raises(self, pool):
        with pytest.raises(ValueError, match="stride 0"):
            pool(Tensor(np.zeros((1, 1, 4, 4))), 2, 0)

    def test_kernel_equal_to_padded_input_fits(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 5, 5)))
        assert F.conv2d(x, w, Tensor(np.zeros(1)), padding=1).shape == (1, 1, 1, 1)


# ---------------------------------------------------------------------- #
# Equivalence with the original fancy-index im2col / np.add.at col2im
# ---------------------------------------------------------------------- #
def _reference_indices(x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kernel * kernel).reshape(-1, 1)
    return k, i, j, out_h, out_w


def reference_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    k, i, j, out_h, out_w = _reference_indices(x.shape, kernel, stride, padding)
    cols = padded[:, k, i, j].transpose(1, 2, 0).reshape(c * kernel * kernel, -1)
    return cols, out_h, out_w


def reference_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    k, i, j, _, _ = _reference_indices(x_shape, kernel, stride, padding)
    np.add.at(padded, (slice(None), k, i, j), cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1))
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


#: (n, c, h, w) inputs: h != w, odd and even sides, single and multiple samples.
SHAPES = [(1, 1, 7, 5), (3, 2, 6, 9), (2, 3, 5, 5)]
WINDOWS = list(itertools.product(range(1, 5), range(1, 4), range(3)))  # kernel, stride, padding


def fits(shape, kernel, padding):
    return kernel <= min(shape[2], shape[3]) + 2 * padding


def assert_same_bytes(new, old):
    assert new.shape == old.shape
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def signed_values(rng, shape):
    """Normal values with exact zeros of both signs sprinkled in."""
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return values


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel,stride,padding", WINDOWS)
    def test_im2col_and_col2im_match_reference_bytes(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        for shape in SHAPES:
            if not fits(shape, kernel, padding):
                continue
            x = rng.normal(size=shape)
            cols, out_h, out_w = F._im2col(x, kernel, stride, padding)
            ref_cols, ref_h, ref_w = reference_im2col(x, kernel, stride, padding)
            assert (out_h, out_w) == (ref_h, ref_w)
            assert_same_bytes(cols, ref_cols)
            assert cols.flags.c_contiguous
            assert not np.shares_memory(cols, x)

            dcols = signed_values(rng, cols.shape)
            dx = F._col2im(dcols, shape, kernel, stride, padding)
            assert_same_bytes(dx, reference_col2im(dcols, shape, kernel, stride, padding))

    def test_all_negative_zero_columns_fold_to_positive_zero(self):
        cols = np.full((4, 9), -0.0)
        dx = F._col2im(cols, (1, 1, 4, 4), 2, 1, 0)
        assert not np.signbit(dx).any()
        assert_same_bytes(dx, reference_col2im(cols, (1, 1, 4, 4), 2, 1, 0))


def run_op(op, arrays, upstream, **kwargs):
    """Forward ``op`` and backpropagate ``upstream``; return output and input grads."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors, **kwargs)
    out.backward(upstream)
    return [out.data] + [t.grad for t in tensors]


@pytest.fixture
def reference_kernels(monkeypatch):
    """A callable that swaps the reference kernels into ``repro.nn.functional``."""

    def swap():
        monkeypatch.setattr(F, "_im2col", reference_im2col)
        monkeypatch.setattr(F, "_col2im", reference_col2im)

    return swap


class TestOperatorEquivalence:
    @pytest.mark.parametrize("kernel,stride,padding", WINDOWS)
    def test_conv2d_matches_reference_bytes(self, kernel, stride, padding, reference_kernels):
        rng = np.random.default_rng(7 + kernel * 100 + stride * 10 + padding)
        arrays = [rng.normal(size=(3, 2, 6, 9)), rng.normal(size=(4, 2, kernel, kernel)), rng.normal(size=4)]
        out_shape = F.conv2d(*(Tensor(a) for a in arrays), stride=stride, padding=padding).shape
        upstream = signed_values(rng, out_shape)
        new = run_op(F.conv2d, arrays, upstream, stride=stride, padding=padding)
        reference_kernels()
        old = run_op(F.conv2d, arrays, upstream, stride=stride, padding=padding)
        for a, b in zip(new, old):
            assert_same_bytes(a, b)

    @pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, None), (2, 1), (3, 2), (3, 1)])
    def test_pooling_matches_reference_bytes(self, pool, kernel, stride, reference_kernels):
        rng = np.random.default_rng(kernel * 10 + (stride or 0))
        # Small integers: many windows hold tied maxima.
        x = rng.integers(-2, 3, size=(2, 3, 7, 8)).astype(np.float64)
        out_shape = pool(Tensor(x), kernel, stride).shape
        upstream = signed_values(rng, out_shape)
        new = run_op(pool, [x], upstream, kernel=kernel, stride=stride)
        reference_kernels()
        old = run_op(pool, [x], upstream, kernel=kernel, stride=stride)
        for a, b in zip(new, old):
            assert_same_bytes(a, b)

    def test_max_pool_negative_zero_gradient_lands_as_positive_zero(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, kernel=2).backward(np.full((1, 1, 2, 2), -0.0))
        assert not np.signbit(x.grad).any()
