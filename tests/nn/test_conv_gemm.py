"""The GEMM convolution against the contractions it replaced.

``Conv2d`` runs its forward pass and both backward contractions as
``np.matmul`` GEMMs.  They sum in BLAS order rather than ``np.einsum``'s, so
the results are a declared numeric change, not a bitwise one: these tests
bound it on the model zoo's convolution shapes.  ``im2col`` itself is pure
data movement and stays bit-identical to the ``np.pad``-based unfolding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import Conv1d, Conv2d
from repro.nn.layers.conv import col2im, im2col
from repro.utils.rng import new_rng

#: Declared bound on the GEMM-vs-einsum difference, relative to the largest
#: magnitude of the compared array.
RTOL = 1e-13


def np_pad_im2col(inputs, kernel, stride, padding):
    """Reference: the ``np.pad`` unfolding ``im2col`` replaced."""
    batch, channels, height, width = inputs.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    cols = np.empty((batch, channels, kh, kw, out_h, out_w), dtype=inputs.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
    return cols.reshape(batch, channels * kh * kw, out_h * out_w), (out_h, out_w)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                    st.integers(3, 9), st.integers(3, 9)),
    kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_im2col_is_bit_identical_to_np_pad_unfolding(shape, kernel, stride,
                                                     padding, dtype):
    x = new_rng(sum(shape)).normal(size=shape).astype(dtype)
    cols, out_size = im2col(x, kernel, stride, padding)
    expected, expected_size = np_pad_im2col(x, kernel, stride, padding)
    assert out_size == expected_size
    assert cols.dtype == expected.dtype
    assert np.array_equal(cols, expected)


def einsum_conv2d(layer, x, grad_output):
    """Reference: output, weight/bias/input gradients via ``np.einsum``."""
    cols, out_size = im2col(x, layer.kernel_size, layer.stride, layer.padding)
    out = np.einsum("of,bfl->bol", layer.weight.data, cols)
    out = out + layer.bias.data[None, :, None]
    grad = grad_output.reshape(x.shape[0], layer.out_channels, -1)
    weight_grad = np.einsum("bol,bfl->of", grad, cols)
    bias_grad = grad.sum(axis=(0, 2))
    grad_cols = np.einsum("of,bol->bfl", layer.weight.data, grad)
    grad_input = col2im(grad_cols, x.shape, layer.kernel_size, layer.stride,
                        layer.padding, out_size)
    return out.reshape(grad_output.shape), weight_grad, bias_grad, grad_input


def assert_close(actual, expected):
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= RTOL * scale


#: ``(in, out, spatial, batch)`` of AlexNet-S (width 0.5) on 32x32 inputs.
ALEXNET_S = [(3, 8, 32, 8), (8, 16, 16, 8), (16, 24, 8, 8), (24, 16, 8, 8),
             (16, 16, 8, 200)]


@pytest.mark.parametrize("cin,cout,size,batch", ALEXNET_S)
def test_conv2d_gemm_matches_einsum(cin, cout, size, batch):
    rng = new_rng(cin * cout + size)
    layer = Conv2d(cin, cout, kernel_size=3, padding=1, rng=rng)
    layer.bias.data[:] = rng.normal(size=cout)
    x = rng.normal(size=(batch, cin, size, size))
    grad_output = rng.normal(size=(batch, cout, size, size))

    out = layer.forward(x)
    grad_input = layer.backward(grad_output)

    expected = einsum_conv2d(layer, x, grad_output)
    assert_close(out, expected[0])
    assert_close(layer.weight.grad, expected[1])
    assert_close(layer.bias.grad, expected[2])
    assert_close(grad_input, expected[3])


#: ``(in, out, length)`` of CNN-H on 9-channel, 128-step HAR windows.
CNN_H = [(9, 16, 128), (16, 32, 64), (32, 32, 32)]


@pytest.mark.parametrize("cin,cout,length", CNN_H)
def test_conv1d_gemm_matches_einsum(cin, cout, length):
    rng = new_rng(cin + cout + length)
    layer = Conv1d(cin, cout, kernel_size=5, padding=2, rng=rng)
    x = rng.normal(size=(8, cin, length))
    grad_output = rng.normal(size=(8, cout, length))

    out = layer.forward(x)
    grad_input = layer.backward(grad_output)

    expected = einsum_conv2d(layer._conv, x[:, :, None, :],
                             grad_output[:, :, None, :])
    assert_close(out, expected[0][:, :, 0, :])
    assert_close(layer.weight.grad, expected[1])
    assert_close(grad_input, expected[3][:, :, 0, :])
