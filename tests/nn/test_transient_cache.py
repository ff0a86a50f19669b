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

from repro.api.registry import MODELS as MODEL_REGISTRY
from repro.config import KNOWN_MODELS
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
from repro.nn.parameter import Parameter
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


#: Small builds of every built-in model and the shape of one input batch.
REGISTRY_MODELS = {
    "mlp": (dict(input_dim=6, num_classes=3), (8, 6)),
    "cnn_h": (dict(width=0.25), (4, 9, 128)),
    "cnn_s": (dict(width=0.25, sequence_length=64), (4, 1, 64)),
    "alexnet_s": (dict(width=0.25), (4, 3, 32, 32)),
    "vgg_s": (dict(width=0.125), (2, 3, 32, 32)),
}


def test_every_builtin_model_is_covered():
    assert set(REGISTRY_MODELS) == set(KNOWN_MODELS)


def trained(name: str, training: bool) -> Module:
    """A registry model after one training step (gradients, RNG advanced)."""
    kwargs, shape = REGISTRY_MODELS[name]
    model = MODEL_REGISTRY.get(name)(seed=7, **kwargs)
    out = model.forward(new_rng(0).normal(size=shape))
    model.backward(new_rng(1).normal(size=out.shape))
    return model if training else model.eval()


def assert_same_model(copied: Module, model: Module) -> None:
    """Same parameters, gradients, extra state, flags and layer types."""
    for key, value in model.state_dict().items():
        assert np.array_equal(copied.state_dict()[key], value), key
    for param, other in zip(model.parameters(), copied.parameters()):
        assert np.array_equal(param.grad, other.grad), param.name
    pairs = list(zip(modules(model), modules(copied)))
    assert len(pairs) == len(list(modules(copied)))
    for original, twin in pairs:
        assert type(twin) is type(original)
        assert twin.training == original.training
        mine, theirs = original.extra_state(), twin.extra_state()
        assert mine.keys() == theirs.keys()
        for key in mine:
            if isinstance(mine[key], np.ndarray):
                assert np.array_equal(theirs[key], mine[key]), key
            else:
                assert theirs[key] == mine[key], key


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("name", sorted(REGISTRY_MODELS))
def test_clone_matches_a_pickle_round_trip(name, training):
    model = trained(name, training)
    clone = model.clone()
    pickled = pickle.loads(pickle.dumps(model))
    assert_same_model(clone, pickled)
    assert_same_model(clone, model)
    # Byte-identical pickles: no field, flag or sharing differs from the
    # original's (whose forward cache pickling leaves out).
    assert pickle.dumps(clone) == pickle.dumps(model)


def test_edits_to_a_clone_leave_the_original_untouched():
    model = image_model(dropout=True)
    out = model.forward(new_rng(2).normal(size=(16, 3, 8, 8)))
    model.backward(np.ones_like(out))
    snapshot = pickle.dumps(model)
    clone = model.clone()

    for param in clone.parameters():
        param.data += 1.0
        param.grad *= -3.0
    clone[1].running_mean += 1.0
    clone[1].running_var[:] = 7.0
    clone[8]._rng.random(10)
    clone.eval()

    assert pickle.dumps(model) == snapshot
    assert model.training and model[1].training
    for param, other in zip(model.parameters(), clone.parameters()):
        assert param is not other
        assert param.data is not other.data and param.grad is not other.grad


def test_a_shared_parameter_stays_shared():
    rng = new_rng(6)
    first, second = Linear(4, 4, rng=rng), Linear(4, 4, rng=rng)
    second.weight = first.weight
    model = Sequential([first, ReLU(), second])
    clone = model.clone()
    assert clone[0].weight is clone[2].weight
    assert clone[0].weight is not first.weight
    assert clone[0].bias is not clone[2].bias
    clone[0].weight.data[0, 0] = 99.0
    assert clone[2].weight.data[0, 0] == 99.0
    assert first.weight.data[0, 0] != 99.0


class Box:
    """A third-party value type with a mutable field."""

    def __init__(self, items):
        self.items = items


class TaggedParameter(Parameter):
    """A ``Parameter`` subclass carrying extra mutable state."""

    def __init__(self, data):
        super().__init__(data, name="tagged")
        self.tags = ["a"]


class PluginLayer(Module):
    """A third-party layer with fields the built-in layers never use."""

    def __init__(self):
        super().__init__()
        self.table = {"scale": np.ones(3), "names": ["x"]}
        self.seen = {1, 2}
        self.box = Box([1, 2])
        self.objects = np.array([[1], [2, 3]], dtype=object)
        self.fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        self.pair = (np.zeros(2), "label")
        self.shape = (2, (3, 4))
        self.tagged = TaggedParameter(np.arange(4.0))
        self.alias = self.table["scale"]

    def parameters(self):
        return [self.tagged]


def test_third_party_fields_are_deep_copied():
    layer = PluginLayer()
    clone = layer.clone()
    assert clone.table is not layer.table
    assert clone.table["scale"] is not layer.table["scale"]
    assert clone.alias is clone.table["scale"]
    assert clone.seen == layer.seen and clone.seen is not layer.seen
    assert clone.box is not layer.box and clone.box.items == [1, 2]
    assert clone.objects.dtype == object
    assert clone.objects[1] == [2, 3] and clone.objects[1] is not layer.objects[1]
    assert clone.fortran.flags.f_contiguous
    assert np.array_equal(clone.fortran, layer.fortran)
    assert clone.pair[0] is not layer.pair[0]
    assert clone.shape is layer.shape               # immutable: shared
    assert type(clone.tagged) is TaggedParameter
    assert clone.tagged.tags == ["a"] and clone.tagged.tags is not layer.tagged.tags
    assert clone.tagged.data is not layer.tagged.data

    clone.table["names"].append("y")
    clone.seen.add(3)
    clone.box.items.append(3)
    clone.objects[1].append(4)
    clone.fortran[0, 0] = -1.0
    clone.pair[0][0] = 5.0
    clone.tagged.data[0] = 5.0
    assert layer.table["names"] == ["x"]
    assert layer.seen == {1, 2}
    assert layer.box.items == [1, 2]
    assert layer.objects[1] == [2, 3]
    assert layer.fortran[0, 0] == 0.0
    assert layer.pair[0][0] == 0.0
    assert layer.tagged.data[0] == 0.0


class RestoringLayer(Module):
    """A layer that rebuilds derived state in ``__setstate__``."""

    def __init__(self):
        super().__init__()
        self.values = [1.0, 2.0]
        self.total = 3.0

    def __getstate__(self):
        state = dict(super().__getstate__())
        del state["total"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.total = sum(self.values)


def test_copies_honour_getstate_and_setstate():
    layer = RestoringLayer()
    layer.values.append(4.0)
    for copied in (layer.clone(), pickle.loads(pickle.dumps(layer))):
        assert copied.values == [1.0, 2.0, 4.0]
        assert copied.total == 7.0


class SnapshotLayer(Module):
    """A layer whose ``__getstate__`` builds a new array on every call."""

    def __init__(self, values):
        super().__init__()
        self.values = values

    def __getstate__(self):
        return {"training": self.training, "values": np.array(self.values)}


def test_state_built_by_getstate_is_not_confused_between_layers():
    """Each layer's built state dies once the layer is copied; a later
    layer's state must not be mistaken for it through a reused ``id``."""
    model = Sequential([SnapshotLayer([index] * 3) for index in range(6)])
    clone = model.clone()
    assert [layer.values.tolist() for layer in clone] == [
        [index] * 3 for index in range(6)
    ]
