"""Convolutional layers implemented with im2col/col2im.

The 2-D and 1-D convolutions are the workhorses of the paper's model zoo
(CNN-H, CNN-S, AlexNet, VGG16).  They are implemented with explicit column
matrices so the forward pass and both backward contractions are dense
GEMMs: ``np.matmul`` runs one BLAS GEMM per sample on a contiguous
``(features, positions)`` column slice, which keeps the CPU-only simulation
fast enough for the benchmark harness.  The stacked kernels in
:mod:`repro.parallel.kernels` run the same per-slice GEMMs, so serial and
worker-stacked convolutions agree bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import kaiming_uniform, zeros
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import new_rng


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


def im2col(
    inputs: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold image patches into columns.

    Args:
        inputs: Array of shape ``(batch, channels, height, width)``.
        kernel: ``(kh, kw)`` kernel size.
        stride: ``(sh, sw)`` stride.
        padding: ``(ph, pw)`` zero padding.

    Returns:
        Tuple of the column tensor with shape
        ``(batch, channels * kh * kw, out_h * out_w)`` and ``(out_h, out_w)``.
    """
    batch, channels, height, width = inputs.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"convolution output would be empty for input {inputs.shape} "
            f"kernel {kernel} stride {stride} padding {padding}"
        )
    if ph or pw:
        padded = np.zeros(
            (batch, channels, height + 2 * ph, width + 2 * pw), dtype=inputs.dtype
        )
        padded[:, :, ph:ph + height, pw:pw + width] = inputs
    else:
        padded = inputs
    cols = np.empty(
        (batch, channels, kh, kw, out_h, out_w), dtype=inputs.dtype
    )
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            cols[:, :, i, j, :, :] = padded[:, :, i:i_end:sh, j:j_end:sw]
    cols = cols.reshape(batch, channels * kh * kw, out_h * out_w)
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    output_size: tuple[int, int],
) -> np.ndarray:
    """Fold column gradients back into image-shaped gradients (adjoint of im2col)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = output_size
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype
    )
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph:ph + height, pw:pw + width]


class Conv2d(Module):
    """2-D convolution over ``(batch, channels, height, width)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = rng if rng is not None else new_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        fan_in = in_channels * self.kernel_size[0] * self.kernel_size[1]
        self.weight = Parameter(
            kaiming_uniform((out_channels, fan_in), fan_in, rng), name="weight"
        )
        self.bias = Parameter(zeros((out_channels,)), name="bias") if bias else None
        self._cache: tuple[np.ndarray, tuple[int, ...], tuple[int, int]] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects (batch, {self.in_channels}, H, W), got {inputs.shape}"
            )
        cols, out_size = im2col(inputs, self.kernel_size, self.stride, self.padding)
        self._cache = (cols, inputs.shape, out_size)
        out = np.matmul(self.weight.data, cols)
        if self.bias is not None:
            out += self.bias.data[:, None]
        batch = inputs.shape[0]
        return out.reshape(batch, self.out_channels, out_size[0], out_size[1])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape, out_size = self._cache
        batch = input_shape[0]
        grad = grad_output.reshape(batch, self.out_channels, -1)
        self.weight.grad += np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2))
        grad_cols = np.matmul(self.weight.data.T, grad)
        return col2im(
            grad_cols, input_shape, self.kernel_size, self.stride, self.padding, out_size
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class Conv1d(Module):
    """1-D convolution over ``(batch, channels, length)`` inputs.

    Implemented by delegating to the 2-D machinery with a height of one,
    which keeps a single, well-tested im2col implementation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self._conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size=(1, kernel_size),
            stride=(1, stride),
            padding=(0, padding),
            bias=bias,
            rng=rng,
        )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    @property
    def weight(self) -> Parameter:
        """Underlying weight parameter (shared with the 2-D implementation)."""
        return self._conv.weight

    @property
    def bias(self) -> Parameter | None:
        """Underlying bias parameter."""
        return self._conv.bias

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 3 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv1d expects (batch, {self.in_channels}, L), got {inputs.shape}"
            )
        out = self._conv.forward(inputs[:, :, None, :])
        return out[:, :, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self._conv.backward(grad_output[:, :, None, :])
        return grad[:, :, 0, :]

    def parameters(self) -> list[Parameter]:
        return self._conv.parameters()
