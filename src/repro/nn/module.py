"""Module and Sequential containers.

Every layer derives from :class:`Module` and implements ``forward`` and
``backward``.  ``backward`` receives the gradient of the loss with respect
to the layer output and must (a) accumulate gradients into its parameters
and (b) return the gradient with respect to its input.  This explicit
chain-rule style is all split federated learning needs: the split layer's
input gradient is exactly what the parameter server dispatches back to the
workers.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class for all neural-network layers and containers."""

    def __init__(self) -> None:
        self.training = True

    # -- computation ----------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output and cache whatever backward needs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient."""
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- parameters ------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Return the list of trainable parameters (possibly empty)."""
        return []

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """Return ``(name, parameter)`` pairs; names are stable across calls."""
        named = []
        for index, param in enumerate(self.parameters()):
            name = param.name or f"param{index}"
            full = f"{prefix}.{name}" if prefix else name
            named.append((full, param))
        return named

    def zero_grad(self) -> None:
        """Zero the gradient buffers of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval ----------------------------------------------------
    def train(self) -> "Module":
        """Put the module in training mode (affects Dropout/BatchNorm)."""
        self.training = True
        return self

    def eval(self) -> "Module":
        """Put the module in evaluation mode."""
        self.training = False
        return self

    # -- state -----------------------------------------------------------
    def extra_state(self) -> dict:
        """Non-parameter mutable state for bit-exact checkpointing.

        Layers that carry state outside their parameters -- RNG streams,
        running statistics -- override this (and :meth:`load_extra_state`)
        so checkpoint/resume reproduces their behaviour exactly.  The
        default is stateless.
        """
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Restore state captured by :meth:`extra_state`."""
        if state:
            raise ValueError(
                f"{type(self).__name__} does not accept extra state, "
                f"got keys {sorted(state)}"
            )

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a deep copy of all parameter arrays keyed by name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a state dict produced by ``state_dict``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data = value.copy()

    def __getstate__(self) -> dict:
        """Copy/pickle state without the forward cache.

        Every layer keeps what its ``backward`` needs in ``_cache``.  That
        cache belongs to one forward pass, so copies (:meth:`clone`,
        ``copy.deepcopy``, pickling) leave it out and carry only weights,
        buffers, RNG state and configuration.
        """
        state = self.__dict__
        if state.get("_cache") is None:
            return state
        state = dict(state)
        state["_cache"] = None
        return state

    def clone(self) -> "Module":
        """Return a structurally identical deep copy of this module.

        The copy has no forward cache: run ``forward`` on it before
        ``backward``.
        """
        return copy.deepcopy(self)

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(param.size for param in self.parameters())


class Sequential(Module):
    """An ordered container of modules applied one after another.

    Supports slicing (``model[:k]`` / ``model[k:]``), which is how split
    federated learning carves a full model into bottom and top submodels.
    Slicing shares the underlying layer objects; use :meth:`clone` for an
    independent copy.
    """

    def __init__(self, layers: list[Module] | None = None) -> None:
        super().__init__()
        self.layers: list[Module] = list(layers) if layers else []

    # -- container protocol ----------------------------------------------
    def append(self, layer: Module) -> "Sequential":
        """Append a layer and return self for chaining."""
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __getitem__(self, index: int | slice) -> "Module | Sequential":
        if isinstance(index, slice):
            return Sequential(self.layers[index])
        return self.layers[index]

    # -- computation ----------------------------------------------------
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

    # -- parameters ------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        named: list[tuple[str, Parameter]] = []
        for index, layer in enumerate(self.layers):
            layer_prefix = f"{prefix}.layer{index}" if prefix else f"layer{index}"
            named.extend(layer.named_parameters(layer_prefix))
        return named

    def train(self) -> "Sequential":
        super().train()
        for layer in self.layers:
            layer.train()
        return self

    def eval(self) -> "Sequential":
        super().eval()
        for layer in self.layers:
            layer.eval()
        return self
