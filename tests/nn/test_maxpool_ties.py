"""Max-pool tie sharing: tied window maxima split the gradient evenly.

ReLU outputs are full of exact zeros, so after a ReLU whole pooling windows
tie at ``0.0`` (and mixed windows tie a positive maximum only by accident).
The forward pass computes only the window max; the backward pass rebuilds
the tie mask from the cached input.  These tests pin that lazy backward
bit for bit against the eager-mask arithmetic it replaced -- a float mask,
divided by the per-window tie count, times the output gradient -- for the
serial layers and their worker-stacked counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import MaxPool1d, MaxPool2d, ReLU
from repro.parallel.kernels import BATCHED_LAYER_TYPES
from repro.utils.rng import new_rng

WORKERS = 3


def eager_mask_backward(inputs, grad_output, kernel):
    """Reference: the max mask built in forward, as before lazy masks."""
    kh, kw = kernel
    *lead, height, width = inputs.shape
    out_h, out_w = height // kh, width // kw
    trimmed = inputs[..., : out_h * kh, : out_w * kw]
    windows = trimmed.reshape(*lead, out_h, kh, out_w, kw)
    out = windows.max(axis=(-3, -1))
    mask = (windows == out[..., :, None, :, None]).astype(np.float64)
    counts = mask.sum(axis=(-3, -1), keepdims=True)
    mask = mask / counts
    grad_windows = mask * grad_output[..., :, None, :, None]
    grad_input = np.zeros(inputs.shape, dtype=np.float64)
    grad_input[..., : out_h * kh, : out_w * kw] = grad_windows.reshape(
        *lead, out_h * kh, out_w * kw
    )
    return out, grad_input


def relu_features(shape, seed):
    """ReLU output with many all-zero windows and some exact positive ties."""
    rng = new_rng(seed)
    raw = rng.normal(size=shape)
    top, left = shape[-2] // 2, shape[-1] // 3
    raw[..., :top, :] = -np.abs(raw[..., :top, :])      # whole windows clamp to 0
    raw[..., :, :left] = -np.abs(raw[..., :, :left])
    raw[..., -1, left:] = 1.5                           # runs of equal positive maxima
    return ReLU().forward(raw)


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


POOLS_2D = [
    pytest.param((2, 2), (2, 3, 6, 8), id="2x2"),
    pytest.param((3, 3), (2, 2, 7, 10), id="3x3-truncated"),
    pytest.param((2, 3), (1, 4, 5, 9), id="2x3-truncated"),
]


@pytest.mark.parametrize("kernel,shape", POOLS_2D)
def test_maxpool2d_backward_matches_eager_mask(kernel, shape):
    inputs = relu_features(shape, seed=11)
    grad_out_shape = (*shape[:2], shape[2] // kernel[0], shape[3] // kernel[1])
    grad_output = new_rng(12).normal(size=grad_out_shape)
    layer = MaxPool2d(kernel)

    out = layer.forward(inputs)
    grad = layer.backward(grad_output)

    expected_out, expected_grad = eager_mask_backward(inputs, grad_output, kernel)
    assert_bit_identical(out, expected_out)
    assert_bit_identical(grad, expected_grad)


def test_all_zero_windows_split_the_gradient_evenly():
    """A 2x2 window of ReLU zeros hands each position a quarter; a 3x3 one
    hands each a ninth, computed as ``(1 / 9) * grad``."""
    inputs = ReLU().forward(-np.ones((1, 1, 6, 6)))
    for kernel, ties in (((2, 2), 4.0), ((3, 3), 9.0)):
        layer = MaxPool2d(kernel)
        out = layer.forward(inputs)
        assert np.array_equal(out, np.zeros_like(out))
        grad_output = np.full(out.shape, 0.7)
        grad = layer.backward(grad_output)
        assert np.array_equal(grad, np.full(inputs.shape, (1.0 / ties) * 0.7))
        assert grad.sum() == pytest.approx(grad_output.sum())


def test_maxpool1d_zero_runs_split_the_gradient_evenly():
    inputs = ReLU().forward(np.array([[[-1.0, -2.0, 3.0, 3.0, 0.5, -0.1, 2.0]]]))
    layer = MaxPool1d(2)
    out = layer.forward(inputs)
    assert np.array_equal(out, [[[0.0, 3.0, 0.5]]])
    grad = layer.backward(np.array([[[1.0, 2.0, 4.0]]]))
    # Ties share evenly; the truncated last element gets nothing.
    assert np.array_equal(grad, [[[0.5, 0.5, 1.0, 1.0, 4.0, 0.0, 0.0]]])


def test_maxpool1d_backward_matches_eager_mask():
    inputs = relu_features((3, 4, 1, 17), seed=13)[:, :, 0, :]
    grad_output = new_rng(14).normal(size=(3, 4, 8))
    layer = MaxPool1d(2)

    out = layer.forward(inputs)
    grad = layer.backward(grad_output)

    expected_out, expected_grad = eager_mask_backward(
        inputs[:, :, None, :], grad_output[:, :, None, :], (1, 2)
    )
    assert_bit_identical(out, expected_out[:, :, 0, :])
    assert_bit_identical(grad, expected_grad[:, :, 0, :])


@pytest.mark.parametrize(
    "layer,shape",
    [
        pytest.param(MaxPool2d(2), (2, 3, 6, 8), id="maxpool2d"),
        pytest.param(MaxPool2d((3, 3)), (2, 2, 7, 10), id="maxpool2d-3x3"),
        pytest.param(MaxPool2d((2, 3)), (2, 2, 5, 10), id="maxpool2d-2x3"),
        pytest.param(MaxPool1d(2), (2, 4, 17), id="maxpool1d"),
        pytest.param(MaxPool1d(3), (2, 4, 20), id="maxpool1d-3"),
    ],
)
def test_stacked_maxpool_ties_match_serial_and_eager_mask(layer, shape):
    """The stacked kernel on ReLU ties equals the serial layer per worker,
    and both equal the eager-mask arithmetic."""
    if len(shape) == 3:
        inputs = relu_features((WORKERS, shape[0], shape[1], 1, shape[2]), seed=15)
        inputs = inputs[..., 0, :]
        kernel = (1, layer.kernel_size)
    else:
        inputs = relu_features((WORKERS, *shape), seed=15)
        kernel = layer.kernel_size
    batched = BATCHED_LAYER_TYPES[type(layer)](layer, WORKERS)
    out = batched.forward(inputs)
    grad_output = new_rng(16).normal(size=out.shape)
    grad = batched.backward(grad_output)

    for w in range(WORKERS):
        serial = layer.clone()
        assert_bit_identical(out[w], serial.forward(inputs[w]))
        assert_bit_identical(grad[w], serial.backward(grad_output[w]))

    if len(shape) == 3:
        _, expected_grad = eager_mask_backward(
            inputs[..., None, :], grad_output[..., None, :], kernel
        )
        expected_grad = expected_grad[..., 0, :]
    else:
        _, expected_grad = eager_mask_backward(inputs, grad_output, kernel)
    assert_bit_identical(grad, expected_grad)


def test_evaluation_forward_builds_no_mask():
    """Forward caches only the input and the window max."""
    inputs = relu_features((4, 2, 8, 8), seed=17)
    layer = MaxPool2d(2)
    out = layer.forward(inputs)
    cached_input, cached_out = layer._cache
    assert cached_input is inputs
    assert cached_out is out
