"""Vectorized (worker-stacked) counterparts of the ``nn/layers`` kernels.

The :class:`~repro.parallel.batched.BatchedExecutor` stacks the selected
workers' identically-shaped bottom models along a new leading *worker* axis
``w`` and runs a single numpy kernel per layer for all workers at once:
activations have shape ``(w, batch, ...)`` and parameters ``(w, ...)``.
Each batched layer mirrors its serial counterpart operation for operation
(the convolutions even reuse the serial ``im2col``/``col2im`` kernels on a
flattened ``(w * batch, ...)`` view), so the results are bit-identical to
running the serial layer once per worker -- the executor equivalence suite
asserts exactly that.

What stacking saves despite identical FLOPs: one ``np.matmul`` over the
stacked operands replaces ``w`` small kernel launches, so the Python layer
dispatch and numpy call overhead is paid once per layer instead of once
per worker per layer.  That overhead dominates for small models; once the
convolutions are BLAS-bound GEMMs, the stacked conv layers run about as
fast as the serial ones (their working set is ``w`` times larger).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers.conv import Conv1d, Conv2d, col2im, im2col
from repro.nn.layers.linear import Linear
from repro.nn.layers.pooling import (
    AvgPool2d,
    MaxPool1d,
    MaxPool2d,
    window_max,
    window_max_backward,
)
from repro.nn.layers.regularization import BatchNorm1d, BatchNorm2d, Dropout
from repro.nn.layers.shape import Flatten
from repro.nn.module import Sequential


class BatchedParameter:
    """A parameter replicated along the leading worker axis."""

    def __init__(self, data: np.ndarray, name: str) -> None:
        self.data = data
        self.grad = np.zeros_like(data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class BatchedLayer:
    """Base class: one layer vectorized over ``count`` workers."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.params: list[BatchedParameter] = []

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _stack(array: np.ndarray, count: int) -> np.ndarray:
    """Replicate an array ``count`` times along a new leading axis."""
    return np.repeat(array[None], count, axis=0)


class BatchedLinear(BatchedLayer):
    """``y = x W^T + b`` for a stack of per-worker weights.

    ``np.matmul`` over a stacked operand runs the same GEMM per 2-D slice
    as the serial ``inputs @ W.T``, so the results match bitwise.
    """

    def __init__(self, layer: Linear, count: int) -> None:
        super().__init__(count)
        self.weight = BatchedParameter(_stack(layer.weight.data, count), "weight")
        self.params = [self.weight]
        self.bias = None
        if layer.bias is not None:
            self.bias = BatchedParameter(_stack(layer.bias.data, count), "bias")
            self.params.append(self.bias)
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs
        out = np.matmul(inputs, self.weight.data.transpose(0, 2, 1))
        if self.bias is not None:
            out = out + self.bias.data[:, None, :]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs = self._cache
        self.weight.grad += np.matmul(grad_output.transpose(0, 2, 1), inputs)
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=1)
        return np.matmul(grad_output, self.weight.data)


class BatchedConv2d(BatchedLayer):
    """2-D convolution with per-worker weights, via the serial im2col kernels.

    The column matrices are computed by the *serial* ``im2col`` on a
    ``(w * batch, ...)`` view (pure slicing, so values are identical).  The
    three contractions are the serial layer's ``np.matmul`` calls with a
    leading ``w`` axis: every ``(worker, sample)`` slice runs the same BLAS
    GEMM on the same contiguous operand layout as the serial layer, and the
    weight gradient sums the per-sample products over the same axis in the
    same order, so the results match bitwise.
    """

    def __init__(self, layer: Conv2d, count: int) -> None:
        super().__init__(count)
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.out_channels = layer.out_channels
        self.weight = BatchedParameter(_stack(layer.weight.data, count), "weight")
        self.params = [self.weight]
        self.bias = None
        if layer.bias is not None:
            self.bias = BatchedParameter(_stack(layer.bias.data, count), "bias")
            self.params.append(self.bias)
        self._cache: tuple[np.ndarray, tuple[int, ...], tuple[int, int]] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        w, batch = inputs.shape[:2]
        flat = inputs.reshape(w * batch, *inputs.shape[2:])
        cols, out_size = im2col(flat, self.kernel_size, self.stride, self.padding)
        cols = cols.reshape(w, batch, *cols.shape[1:])
        self._cache = (cols, inputs.shape, out_size)
        out = np.matmul(self.weight.data[:, None], cols)
        if self.bias is not None:
            out += self.bias.data[:, None, :, None]
        return out.reshape(w, batch, self.out_channels, out_size[0], out_size[1])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cols, input_shape, out_size = self._cache
        w, batch = input_shape[:2]
        grad = grad_output.reshape(w, batch, self.out_channels, -1)
        self.weight.grad += np.matmul(grad, cols.transpose(0, 1, 3, 2)).sum(axis=1)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(1, 3))
        grad_cols = np.matmul(self.weight.data.transpose(0, 2, 1)[:, None], grad)
        grad_flat = col2im(
            grad_cols.reshape(w * batch, *grad_cols.shape[2:]),
            (w * batch, *input_shape[2:]),
            self.kernel_size,
            self.stride,
            self.padding,
            out_size,
        )
        return grad_flat.reshape(input_shape)


class BatchedConv1d(BatchedLayer):
    """1-D convolution, delegating to the 2-D kernels like the serial layer."""

    def __init__(self, layer: Conv1d, count: int) -> None:
        super().__init__(count)
        self._conv = BatchedConv2d(layer._conv, count)
        self.params = self._conv.params

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = self._conv.forward(inputs[:, :, :, None, :])
        return out[:, :, :, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self._conv.backward(grad_output[:, :, :, None, :])
        return grad[:, :, :, 0, :]


class BatchedReLU(BatchedLayer):
    def __init__(self, layer: ReLU, count: int) -> None:
        super().__init__(count)
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs > 0
        return inputs * self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._cache


class BatchedTanh(BatchedLayer):
    def __init__(self, layer: Tanh, count: int) -> None:
        super().__init__(count)
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = np.tanh(inputs)
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._cache**2)


class BatchedSigmoid(BatchedLayer):
    def __init__(self, layer: Sigmoid, count: int) -> None:
        super().__init__(count)
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = 1.0 / (1.0 + np.exp(-inputs))
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._cache * (1.0 - self._cache)


class BatchedFlatten(BatchedLayer):
    def __init__(self, layer: Flatten, count: int) -> None:
        super().__init__(count)
        self._cache: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs.reshape(inputs.shape[0], inputs.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._cache)


class BatchedMaxPool2d(BatchedLayer):
    """Stacked max pooling: the serial window kernels on the trailing axes."""

    def __init__(self, layer: MaxPool2d, count: int) -> None:
        super().__init__(count)
        self.kernel_size = layer.kernel_size
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = window_max(inputs, self.kernel_size)
        self._cache = (inputs, out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs, out = self._cache
        return window_max_backward(inputs, out, grad_output, self.kernel_size)


class BatchedMaxPool1d(BatchedLayer):
    def __init__(self, layer: MaxPool1d, count: int) -> None:
        super().__init__(count)
        self._pool = BatchedMaxPool2d(layer._pool, count)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = self._pool.forward(inputs[:, :, :, None, :])
        return out[:, :, :, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self._pool.backward(grad_output[:, :, :, None, :])
        return grad[:, :, :, 0, :]


class BatchedAvgPool2d(BatchedLayer):
    def __init__(self, layer: AvgPool2d, count: int) -> None:
        super().__init__(count)
        self.kernel_size = layer.kernel_size
        self._cache: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        w, batch, channels, height, width = inputs.shape
        out_h, out_w = height // k, width // k
        self._cache = inputs.shape
        trimmed = inputs[:, :, :, : out_h * k, : out_w * k]
        windows = trimmed.reshape(w, batch, channels, out_h, k, out_w, k)
        return windows.mean(axis=(4, 6))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        w, batch, channels, height, width = self._cache
        out_h, out_w = height // k, width // k
        grad = np.repeat(np.repeat(grad_output, k, axis=3), k, axis=4) / (k * k)
        grad_input = np.zeros(self._cache, dtype=np.float64)
        grad_input[:, :, :, : out_h * k, : out_w * k] = grad
        return grad_input


class _BatchedBatchNormBase(BatchedLayer):
    """Shared machinery for stacked 1-D and 2-D batch normalisation.

    Normalisation runs on a ``(w, samples, features)`` view; every
    reduction is over the middle (samples) axis, which numpy evaluates as
    the same sequential row accumulation the serial layer's ``axis=0``
    reductions use -- so batch statistics, outputs and gradients are
    bit-identical per worker slice.  Each worker carries its own running
    statistics, exactly like the per-worker clones of serial execution.
    """

    def __init__(self, layer, count: int) -> None:
        super().__init__(count)
        self.num_features = layer.num_features
        self.momentum = layer.momentum
        self.eps = layer.eps
        self.training = True
        self.gamma = BatchedParameter(_stack(layer.gamma.data, count), "gamma")
        self.beta = BatchedParameter(_stack(layer.beta.data, count), "beta")
        self.params = [self.gamma, self.beta]
        self.running_mean = _stack(layer.running_mean, count).copy()
        self.running_var = _stack(layer.running_var, count).copy()
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _normalize(self, flat: np.ndarray) -> np.ndarray:
        """Normalise a ``(w, samples, features)`` view, as the serial layer."""
        if self.training:
            mean = flat.mean(axis=1)
            var = flat.var(axis=1)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (flat - mean[:, None, :]) * inv_std[:, None, :]
        self._cache = (normalized, inv_std, flat - mean[:, None, :])
        return normalized * self.gamma.data[:, None, :] + self.beta.data[:, None, :]

    def _denormalize_grad(self, grad_flat: np.ndarray) -> np.ndarray:
        """Backward pass on the ``(w, samples, features)`` view."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, centered = self._cache
        samples = grad_flat.shape[1]
        self.gamma.grad += (grad_flat * normalized).sum(axis=1)
        self.beta.grad += grad_flat.sum(axis=1)
        if not self.training:
            return grad_flat * self.gamma.data[:, None, :] * inv_std[:, None, :]
        grad_norm = grad_flat * self.gamma.data[:, None, :]
        grad_var = (grad_norm * centered).sum(axis=1) * -0.5 * inv_std**3
        grad_mean = (-grad_norm * inv_std[:, None, :]).sum(axis=1) + grad_var * (
            -2.0 * centered.mean(axis=1)
        )
        return (
            grad_norm * inv_std[:, None, :]
            + grad_var[:, None, :] * 2.0 * centered / samples
            + grad_mean[:, None, :] / samples
        )


class BatchedBatchNorm1d(_BatchedBatchNormBase):
    """Stacked batch normalisation over ``(w, batch, features)`` inputs."""

    def __init__(self, layer: BatchNorm1d, count: int) -> None:
        super().__init__(layer, count)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self._normalize(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._denormalize_grad(grad_output)


class BatchedBatchNorm2d(_BatchedBatchNormBase):
    """Stacked batch normalisation over ``(w, batch, C, H, W)`` inputs.

    The channels-last flattening mirrors the serial layer's
    ``transpose(0, 2, 3, 1).reshape(-1, C)`` per worker slice, so the
    per-channel sample order inside every reduction is identical.
    """

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        w, batch, channels, height, width = inputs.shape
        flat = inputs.transpose(0, 1, 3, 4, 2).reshape(w, -1, self.num_features)
        out = self._normalize(flat)
        return out.reshape(w, batch, height, width, channels).transpose(0, 1, 4, 2, 3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        w, batch, channels, height, width = grad_output.shape
        grad_flat = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            w, -1, self.num_features
        )
        grad = self._denormalize_grad(grad_flat)
        return grad.reshape(w, batch, height, width, channels).transpose(0, 1, 4, 2, 3)


class BatchedDropout(BatchedLayer):
    """Inverted dropout with one RNG clone per worker.

    Serial execution clones the template layer once per worker, so every
    worker's mask stream starts from the template's current RNG state; the
    batched layer reproduces that by deep-copying the template generator
    ``count`` times and drawing each worker's mask from its own clone.
    """

    def __init__(self, layer: Dropout, count: int) -> None:
        super().__init__(count)
        self.p = layer.p
        self._rngs = [copy.deepcopy(layer._rng) for _ in range(count)]
        self._cache: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._cache = None
            return inputs
        keep = 1.0 - self.p
        self._cache = np.stack(
            [(rng.random(inputs.shape[1:]) < keep) / keep for rng in self._rngs]
        )
        return inputs * self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return grad_output
        return grad_output * self._cache


#: Serial layer type -> batched counterpart.  Layers outside this table
#: (third-party plugins) make the batched executor fall back to serial
#: execution for the whole model.
BATCHED_LAYER_TYPES: dict[type, type] = {
    Linear: BatchedLinear,
    Conv2d: BatchedConv2d,
    Conv1d: BatchedConv1d,
    ReLU: BatchedReLU,
    Tanh: BatchedTanh,
    Sigmoid: BatchedSigmoid,
    Flatten: BatchedFlatten,
    MaxPool2d: BatchedMaxPool2d,
    MaxPool1d: BatchedMaxPool1d,
    AvgPool2d: BatchedAvgPool2d,
    Dropout: BatchedDropout,
    BatchNorm1d: BatchedBatchNorm1d,
    BatchNorm2d: BatchedBatchNorm2d,
}


def unsupported_layers(model: Sequential) -> list[str]:
    """Names of layer types in ``model`` without a batched counterpart.

    The lookup is by exact type: a subclass may change ``forward`` in ways
    the batched kernel would not reproduce, so it falls back too.
    """
    return sorted(
        {
            type(layer).__name__
            for layer in model.layers
            if type(layer) not in BATCHED_LAYER_TYPES
        }
    )


class BatchedModel:
    """A Sequential vectorized over ``count`` identically-initialised workers.

    Parameters start as ``count`` copies of the template's current values;
    :meth:`state_dict_for` slices one worker's parameters back out under the
    same names ``Sequential.state_dict`` would use.
    """

    def __init__(self, template: Sequential, count: int) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        names = unsupported_layers(template)
        if names:
            raise ValueError(f"no batched kernels for layer types: {names}")
        self.count = count
        self.layers = [
            BATCHED_LAYER_TYPES[type(layer)](layer, count)
            for layer in template.layers
        ]
        self._param_names = [name for name, _ in template.named_parameters()]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[BatchedParameter]:
        params: list[BatchedParameter] = []
        for layer in self.layers:
            params.extend(layer.params)
        return params

    def state_dict_for(self, slot: int) -> dict[str, np.ndarray]:
        """State dict of worker ``slot``, named like the serial model's."""
        return {
            name: param.data[slot].copy()
            for name, param in zip(self._param_names, self.parameters())
        }


class BatchedSGD:
    """Per-worker SGD on stacked parameters, mirroring :class:`~repro.nn.optim.SGD`.

    Each worker has its own learning rate (batch-size-proportional scaling)
    and its own global-norm clip decision; all elementwise update arithmetic
    matches the serial optimizer operation for operation.
    """

    def __init__(
        self,
        parameters: list[BatchedParameter],
        learning_rates: np.ndarray,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
    ) -> None:
        if np.any(learning_rates <= 0):
            raise ValueError("learning rates must be positive")
        self.parameters = list(parameters)
        self.learning_rates = np.asarray(learning_rates, dtype=np.float64)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def _clip_scales(self) -> np.ndarray | None:
        """Per-worker gradient scale factors, or ``None`` when disabled."""
        if self.max_grad_norm is None:
            return None
        count = self.learning_rates.shape[0]
        total = np.zeros(count)
        for param in self.parameters:
            total += np.sum(param.grad.reshape(count, -1) ** 2, axis=1)
        norm = np.sqrt(total)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Multiplying unclipped workers by exactly 1.0 is a bitwise no-op,
            # matching the serial optimizer's conditional clip.
            return np.where(norm > self.max_grad_norm, self.max_grad_norm / norm, 1.0)

    def step(self) -> None:
        scales = self._clip_scales()
        for param, velocity in zip(self.parameters, self._velocity):
            tail = (1,) * (param.data.ndim - 1)
            if scales is not None:
                param.grad *= scales.reshape(-1, *tail)
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.learning_rates.reshape(-1, *tail) * update


def batched_cross_entropy_gradient(
    logits: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-worker gradient of the mean softmax cross-entropy.

    Matches ``CrossEntropyLoss.forward(...); CrossEntropyLoss.backward()``
    applied to each worker's ``(batch, classes)`` slice: the softmax shift,
    exponentiation and row normalisation are all per-row operations, so
    adding the leading worker axis leaves every element's arithmetic
    unchanged.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    workers, batch = labels.shape
    grad = probs.copy()
    grad[
        np.arange(workers)[:, None], np.arange(batch)[None, :], labels
    ] -= 1.0
    return grad / batch
