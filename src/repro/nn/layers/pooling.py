"""Pooling layers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.module import Module


def _pool_pair(kernel_size: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(kernel_size, tuple):
        return kernel_size
    return (kernel_size, kernel_size)


def _window_views(array: np.ndarray, kernel: tuple[int, int]) -> list[np.ndarray]:
    """One strided view per window offset: view ``(i, j)`` holds element
    ``(i, j)`` of every non-overlapping ``kernel`` window of the last two
    axes.  Trailing rows/columns that do not fill a window are left out."""
    kh, kw = kernel
    out_h, out_w = array.shape[-2] // kh, array.shape[-1] // kw
    return [
        array[..., i:out_h * kh:kh, j:out_w * kw:kw]
        for i in range(kh)
        for j in range(kw)
    ]


def window_max(inputs: np.ndarray, kernel: tuple[int, int]) -> np.ndarray:
    """Max over each non-overlapping ``kernel`` window of the last two axes.

    An elementwise ``np.maximum`` over the ``kh * kw`` window-offset views is
    exact and far cheaper than reducing a six-axis window view.
    """
    views = _window_views(inputs, kernel)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def window_max_backward(
    inputs: np.ndarray, out: np.ndarray, grad_output: np.ndarray,
    kernel: tuple[int, int],
) -> np.ndarray:
    """Route ``grad_output`` to the max positions of each window.

    The max mask is rebuilt here from the forward input and output, so a
    forward pass that is never differentiated (evaluation) builds none.
    Tied maxima share their window's gradient evenly: each max position
    receives ``(1 / ties) * grad``, computed as ``(hit / ties) * grad``.
    """
    hits = [view == out for view in _window_views(inputs, kernel)]
    ties = hits[0].astype(np.float64)
    for hit in hits[1:]:
        ties += hit
    grad_input = np.zeros(inputs.shape, dtype=np.float64)
    for hit, grad_view in zip(hits, _window_views(grad_input, kernel)):
        grad_view[...] = hit / ties * grad_output
    return grad_input


class MaxPool2d(Module):
    """Non-overlapping 2-D max pooling with ``stride == kernel_size``.

    ``kernel_size`` may be an int (square window) or an ``(kh, kw)`` tuple.
    Inputs whose spatial size is not divisible by the kernel are truncated
    on the right/bottom (the same convention PyTorch uses with default
    ceil_mode=False).
    """

    def __init__(self, kernel_size: int | tuple[int, int]) -> None:
        super().__init__()
        kh, kw = _pool_pair(kernel_size)
        if kh <= 0 or kw <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = (kh, kw)
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"MaxPool2d expects 4-D input, got {inputs.shape}")
        height, width = inputs.shape[2:]
        if height < self.kernel_size[0] or width < self.kernel_size[1]:
            raise ShapeError(
                f"input spatial size {height}x{width} smaller than kernel {self.kernel_size}"
            )
        out = window_max(inputs, self.kernel_size)
        self._cache = (inputs, out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        inputs, out = self._cache
        return window_max_backward(inputs, out, grad_output, self.kernel_size)


class MaxPool1d(Module):
    """Non-overlapping 1-D max pooling, delegating to :class:`MaxPool2d`."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self._pool = MaxPool2d((1, kernel_size))
        self.kernel_size = kernel_size

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 3:
            raise ShapeError(f"MaxPool1d expects 3-D input, got {inputs.shape}")
        out = self._pool.forward(inputs[:, :, None, :])
        return out[:, :, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self._pool.backward(grad_output[:, :, None, :])
        return grad[:, :, 0, :]


class AvgPool2d(Module):
    """Non-overlapping 2-D average pooling with ``stride == kernel_size``."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._cache: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"AvgPool2d expects 4-D input, got {inputs.shape}")
        k = self.kernel_size
        batch, channels, height, width = inputs.shape
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ShapeError(
                f"input spatial size {height}x{width} smaller than kernel {k}"
            )
        self._cache = inputs.shape
        trimmed = inputs[:, :, : out_h * k, : out_w * k]
        windows = trimmed.reshape(batch, channels, out_h, k, out_w, k)
        return windows.mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        batch, channels, height, width = self._cache
        out_h, out_w = height // k, width // k
        grad = np.repeat(np.repeat(grad_output, k, axis=2), k, axis=3) / (k * k)
        grad_input = np.zeros(self._cache, dtype=np.float64)
        grad_input[:, :, : out_h * k, : out_w * k] = grad
        return grad_input
