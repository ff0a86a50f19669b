"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs > 0
        return inputs * self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._cache


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = np.tanh(inputs)
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._cache**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = 1.0 / (1.0 + np.exp(-inputs))
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._cache * (1.0 - self._cache)
