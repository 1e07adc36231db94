"""Convolution and pooling over NCHW tensors (batch, channels, height, width).

:func:`_im2col` copies the input's ``kernel x kernel`` windows, taken from a
strided view, into the columns of a C-contiguous matrix: rows ``(channel, ki,
kj)``, columns ``(out_row, out_col, sample)``.  :func:`_col2im` folds such a
matrix back with one slice-add per ``(ki, kj)``, so each pixel sums its
windows in ``(ki, kj)`` order from ``0.0``.  Gradients are bitwise stable
only while both orders are kept.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor


def _output_size(shape: Tuple[int, ...], kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Output height and width of a ``kernel`` window sliding over an NCHW ``shape``."""
    h, w = shape[2] + 2 * padding, shape[3] + 2 * padding
    if kernel < 1 or stride < 1 or padding < 0 or kernel > min(h, w):
        raise ValueError(
            f"kernel {kernel} with stride {stride} and padding {padding} does not "
            f"fit input of shape {tuple(shape)}"
        )
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    n, c = x.shape[:2]
    out_h, out_w = _output_size(x.shape, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    # (n, c, oh, ow, ki, kj) -> (c, ki, kj, oh, ow, n), copied: never aliases x.
    cols = windows.transpose(1, 4, 5, 2, 3, 0).copy()
    return cols.reshape(c * kernel * kernel, out_h * out_w * n), out_h, out_w


def _col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int, stride: int, padding: int
) -> np.ndarray:
    n, c, h, w = x_shape
    out_h, out_w = _output_size(x_shape, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    blocks = cols.reshape(c, kernel, kernel, out_h, out_w, n).transpose(5, 0, 1, 2, 3, 4)
    for ki in range(kernel):
        rows = slice(ki, ki + stride * out_h, stride)
        for kj in range(kernel):
            padded[:, :, rows, kj : kj + stride * out_w : stride] += blocks[:, :, ki, kj]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over NCHW input with square kernels.

    ``weight`` has shape (out_channels, in_channels, k, k) and ``bias`` has
    shape (out_channels,).
    """
    n, c, h, w = x.data.shape
    out_channels, in_channels, kernel, _ = weight.data.shape
    if in_channels != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {in_channels}")

    cols, out_h, out_w = _im2col(x.data, kernel, stride, padding)
    w_flat = weight.data.reshape(out_channels, -1)
    out = w_flat @ cols + bias.data.reshape(-1, 1)
    out = out.reshape(out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
        bias._accumulate(grad_flat.sum(axis=1))
        weight._accumulate((grad_flat @ cols.T).reshape(weight.data.shape))
        if x.requires_grad:
            dcols = w_flat.T @ grad_flat
            x._accumulate(_col2im(dcols, x.data.shape, kernel, stride, padding))

    return x._make_result(out, (x, weight, bias), backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input with square windows."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(reshaped, kernel, stride, 0)
    argmax = cols.argmax(axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.reshape(n * c, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        dcols = np.zeros_like(cols)
        dcols[argmax, np.arange(cols.shape[1])] = grad_flat
        dx = _col2im(dcols, reshaped.shape, kernel, stride, 0)
        x._accumulate(dx.reshape(x.data.shape))

    return x._make_result(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input with square windows."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(reshaped, kernel, stride, 0)
    out = cols.mean(axis=0)
    out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.reshape(n * c, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        dcols = np.broadcast_to(grad_flat / (kernel * kernel), cols.shape)
        dx = _col2im(dcols, reshaped.shape, kernel, stride, 0)
        x._accumulate(dx.reshape(x.data.shape))

    return x._make_result(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, returning an (N, C) tensor."""
    return x.mean(axis=(2, 3))
