"""Forward caches are transient: copies carry state, never activations.

Every layer keeps what its ``backward`` needs in one ``_cache`` attribute.
``Module.__getstate__`` leaves that cache out, so ``clone()``, deep copies
and pickles hold weights, buffers, RNG streams and configuration only --
a model that has just evaluated a large batch copies as cheaply as a fresh
one.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool1d,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.utils.rng import new_rng


def image_model(dropout: bool = False) -> Sequential:
    rng = new_rng(3)
    layers = [
        Conv2d(3, 4, kernel_size=3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        MaxPool2d(2),
        AvgPool2d(2),
        Flatten(),
        Linear(4 * 2 * 2, 6, rng=rng),
        Tanh(),
    ]
    if dropout:
        layers.append(Dropout(0.3, rng=new_rng(4)))
    layers += [Linear(6, 5, rng=rng), Sigmoid()]
    return Sequential(layers)


def sequence_model() -> Sequential:
    rng = new_rng(5)
    return Sequential([
        Conv1d(2, 3, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool1d(2),
        Flatten(),
        BatchNorm1d(3 * 4),
        Linear(3 * 4, 2, rng=rng),
    ])


MODELS = [
    pytest.param(image_model, (64, 3, 8, 8), id="image"),
    pytest.param(sequence_model, (64, 2, 8), id="sequence"),
]


def modules(module: Module):
    """``module`` and every module nested in it (including wrapped layers)."""
    yield module
    for value in vars(module).values():
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, Module):
                yield from modules(child)


def cached(module: Module) -> list[str]:
    return [
        type(m).__name__ for m in modules(module)
        if getattr(m, "_cache", None) is not None
    ]


@pytest.mark.parametrize("build,shape", MODELS)
def test_pickle_size_does_not_grow_with_a_forward(build, shape):
    fresh = len(pickle.dumps(build()))
    model = build()
    model.forward(new_rng(0).normal(size=shape))
    assert cached(model)
    assert len(pickle.dumps(model)) == fresh


def test_pickle_size_after_eval_forward_with_dropout():
    fresh = len(pickle.dumps(image_model(dropout=True).eval()))
    model = image_model(dropout=True).eval()
    model.forward(new_rng(0).normal(size=(200, 3, 8, 8)))
    assert len(pickle.dumps(model)) == fresh


@pytest.mark.parametrize("build,shape", MODELS)
def test_clone_and_deepcopy_carry_no_cache(build, shape):
    model = build()
    model.forward(new_rng(0).normal(size=shape))
    before = cached(model)
    for copied in (model.clone(), copy.deepcopy(model),
                   pickle.loads(pickle.dumps(model))):
        assert cached(copied) == []
    # Copying leaves the original's caches in place.
    assert cached(model) == before


@pytest.mark.parametrize("build,shape", MODELS)
def test_clone_needs_its_own_forward(build, shape):
    model = build()
    out = model.forward(new_rng(0).normal(size=shape))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        model.clone().backward(np.ones_like(out))


@pytest.mark.parametrize("build,shape", MODELS)
def test_clone_between_forward_and_backward_trains_identically(build, shape):
    """A clone taken mid-step trains, after its own forward, exactly like
    the original finishing its step."""
    rng = new_rng(1)
    x = rng.normal(size=shape)
    model = build()
    out = model.forward(x)
    grad_output = rng.normal(size=out.shape)
    clone = model.clone()

    model.zero_grad()
    model.backward(grad_output)
    clone.zero_grad()
    clone.forward(x)
    clone.backward(grad_output)

    for (name, param), (_, other) in zip(model.named_parameters(),
                                         clone.named_parameters()):
        assert np.array_equal(param.grad, other.grad), name
    for net in (model, clone):
        SGD(net.parameters(), lr=0.1).step()
    for key, value in model.state_dict().items():
        assert np.array_equal(value, clone.state_dict()[key]), key


def test_dropout_rng_and_batchnorm_statistics_survive_copies():
    model = image_model(dropout=True)
    model.forward(new_rng(2).normal(size=(32, 3, 8, 8)))
    batchnorm, dropout = model[1], model[8]
    assert not np.array_equal(batchnorm.running_mean, np.zeros(4))

    for copied in (model.clone(), pickle.loads(pickle.dumps(model))):
        assert np.array_equal(copied[1].running_mean, batchnorm.running_mean)
        assert np.array_equal(copied[1].running_var, batchnorm.running_var)
        assert (copied[8]._rng.bit_generator.state
                == dropout._rng.bit_generator.state)
        # The copied stream continues exactly where the original's does.
        x = np.ones((4, 6))
        assert np.array_equal(copied[8].forward(x), copy.deepcopy(dropout).forward(x))
