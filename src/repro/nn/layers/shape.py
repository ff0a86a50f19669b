"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._cache)
