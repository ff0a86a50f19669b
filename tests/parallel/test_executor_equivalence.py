"""Cross-executor equivalence: serial, batched and process runs are bit-exact.

The executors are pure execution backends -- for a fixed seed, every
algorithm must produce *bit-identical* history records and final weights no
matter which backend carried out the per-worker compute, which transport
moved the tensors, or which round pipeline scheduled the stages.  These
tests pin that contract for every engine code path:

* ``mergesfl`` -- feature merging + regulated (heterogeneous) batch sizes,
  which exercises the batched executor's shape grouping;
* ``splitfed`` -- aggregation after every local iteration (re-install path,
  where the pipelined scheduler must fall back);
* ``fedavg`` -- the FL engine's ``train_full`` path;
* a convolutional model -- the stacked im2col/GEMM kernels;
* a normalised model -- the stacked BatchNorm kernels;
* ``process`` x {``pipe``, ``shm``} x {``sync``, ``pipelined``} -- the
  transport framing and the double-buffered iteration overlap.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.metrics.history import WIRE_FIELDS

EXECUTORS = ("serial", "batched", "process")

#: (executor, transport, pipeline) variants that must match serial/sync.
#: The ``staleness`` rows run the bounded-staleness scheduler at its
#: default bound of 0, pinning that the dependency-tracked schedule is
#: bit-identical to the exact ones (the relaxed ``staleness>=1`` rows have
#: their own reference semantics in test_staleness.py).
VARIANTS = (
    ("batched", "pipe", "sync"),
    ("process", "pipe", "sync"),
    ("process", "shm", "sync"),
    ("process", "pipe", "pipelined"),
    ("process", "shm", "pipelined"),
    ("serial", "pipe", "staleness"),
    ("process", "shm", "staleness"),
)


def _run(config: ExperimentConfig):
    """Run a session to completion; return (history records, final weights)."""
    with Session.from_config(config) as session:
        history = session.run()
        return history.records, session.global_model().state_dict()


_REFERENCES: dict[str, tuple] = {}


def _serial_reference(algorithm: str):
    """The serial/sync run of an algorithm, computed once per test session."""
    if algorithm not in _REFERENCES:
        _REFERENCES[algorithm] = _run(_config("serial", algorithm))
    return _REFERENCES[algorithm]


def _assert_bit_equal(reference, candidate, label: str, ignore=()) -> None:
    # Wire-traffic fields measure the execution topology, not the training
    # trajectory, so cross-executor/transport comparisons strip them.
    ignore = tuple(ignore) + WIRE_FIELDS
    ref_records, ref_state = reference
    records, state = candidate
    assert len(records) == len(ref_records)
    for ref_record, record in zip(ref_records, records):
        ref_dict = {k: v for k, v in dataclasses.asdict(ref_record).items()
                    if k not in ignore}
        dict_ = {k: v for k, v in dataclasses.asdict(record).items()
                 if k not in ignore}
        assert dict_ == ref_dict, label
    assert set(state) == set(ref_state)
    for key in ref_state:
        assert np.array_equal(state[key], ref_state[key]), f"{label}: {key}"


def _config(executor: str, algorithm: str, **overrides) -> ExperimentConfig:
    params = dict(
        algorithm=algorithm,
        dataset="blobs",
        model="mlp",
        num_workers=5,
        num_rounds=3,
        local_iterations=3,
        non_iid_level=2.0,
        max_batch_size=16,
        base_batch_size=8,
        train_samples=300,
        test_samples=80,
        learning_rate=0.1,
        momentum=0.9,
        weight_decay=1e-4,
        seed=3,
        executor=executor,
        extras={"executor_processes": 2},
    )
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.mark.parametrize("executor,transport,pipeline", VARIANTS,
                         ids=["/".join(v) for v in VARIANTS])
@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_executors_bit_exact(algorithm, executor, transport, pipeline):
    reference = _serial_reference(algorithm)
    candidate = _run(
        _config(executor, algorithm, transport=transport, pipeline=pipeline)
    )
    _assert_bit_equal(
        reference, candidate, f"{algorithm}/{executor}/{transport}/{pipeline}"
    )


@pytest.mark.parametrize("executor,transport,pipeline", [
    ("serial", "pipe", "sync"),
    ("process", "shm", "pipelined"),
], ids=["serial/sync", "process/shm/pipelined"])
@pytest.mark.parametrize("algorithm", ["mergesfl", "splitfed", "fedavg"])
def test_neutral_elasticity_bit_exact(algorithm, executor, transport, pipeline):
    """``elastic=True`` with every knob at its default is still the exact
    protocol on every backend: zero dropout, no deadline, no over-selection.
    Only the ``completed_ids`` bookkeeping column distinguishes the records."""
    reference = _serial_reference(algorithm)
    candidate = _run(_config(
        executor, algorithm, transport=transport, pipeline=pipeline,
        elastic=True,
    ))
    _assert_bit_equal(
        reference, candidate,
        f"{algorithm}/{executor}/{pipeline}/neutral-elastic",
        ignore=("completed_ids",),
    )


def test_batched_matches_serial_on_conv_model():
    overrides = dict(
        dataset="har",
        model="cnn_h",
        model_width=0.3,
        num_workers=4,
        num_rounds=2,
        local_iterations=2,
        train_samples=160,
        test_samples=40,
    )
    reference = _run(_config("serial", "mergesfl", **overrides))
    candidate = _run(_config("batched", "mergesfl", **overrides))
    _assert_bit_equal(reference, candidate, "mergesfl/cnn_h/batched")


def test_batched_matches_serial_with_dropout_in_full_model():
    """FedAvg on AlexNet-S: the full model contains Dropout, whose per-worker
    RNG cloning the batched kernels must reproduce exactly."""
    overrides = dict(
        dataset="cifar10",
        model="alexnet_s",
        model_width=0.25,
        num_workers=3,
        num_rounds=2,
        local_iterations=2,
        max_batch_size=8,
        base_batch_size=4,
        train_samples=96,
        test_samples=32,
    )
    reference = _run(_config("serial", "fedavg", **overrides))
    candidate = _run(_config("batched", "fedavg", **overrides))
    _assert_bit_equal(reference, candidate, "fedavg/alexnet_s/batched")


def test_batched_matches_serial_on_normalised_model(norm_mlp_model):
    """A bottom/top with BatchNorm1d runs through the stacked BatchNorm
    kernels (no serial fallback) and still matches serial bit for bit."""
    overrides = dict(model=norm_mlp_model, num_rounds=2)
    reference = _run(_config("serial", "mergesfl", **overrides))
    candidate = _run(_config("batched", "mergesfl", **overrides))
    _assert_bit_equal(reference, candidate, "mergesfl/norm_mlp/batched")


@pytest.fixture
def norm_mlp_model():
    """A registered MLP with BatchNorm on both sides of the split."""
    import numpy as np_

    from repro.api.registry import MODELS, register_model
    from repro.nn.layers import BatchNorm1d, Linear, ReLU
    from repro.nn.module import Sequential
    from repro.utils.rng import spawn_rngs

    name = "mlp_bn_test"

    # BatchNorm's gamma/beta count as a weighted layer, so the cut after the
    # 2nd weighted layer lands past [Linear, BatchNorm1d, ReLU]: the bottom
    # trained on workers contains the normalisation.
    @register_model(name, input_kind="vector", split_after_weighted=2)
    def build(input_dim, num_classes, seed=None):
        rngs = spawn_rngs(seed if seed is not None else 0, 3)
        return Sequential([
            Linear(input_dim, 24, rng=rngs[0]),
            BatchNorm1d(24),
            ReLU(),
            Linear(24, 16, rng=rngs[1]),
            BatchNorm1d(16),
            ReLU(),
            Linear(16, num_classes, rng=rngs[2]),
        ])

    yield name
    MODELS.unregister(name)


def test_batched_checkpoint_resume_matches_serial(tmp_path):
    """Executor choice is checkpoint-safe: a batched run checkpointed after
    one round and resumed finishes bit-identically to a straight serial run."""
    path = tmp_path / "batched.ckpt.json"
    with Session.from_config(_config("batched", "mergesfl")) as session:
        session.run(1)
        session.save_checkpoint(path)
    with Session.load_checkpoint(path) as resumed:
        assert resumed.config.executor == "batched"
        resumed.run()
        candidate = (resumed.history.records, resumed.global_model().state_dict())
    reference = _run(_config("serial", "mergesfl"))
    _assert_bit_equal(reference, candidate, "checkpoint-resume/batched")


def test_executor_name_validated():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown executor"):
        _config("warp-drive", "mergesfl")


def test_executor_listed_in_registry():
    from repro.api.registry import EXECUTORS as registry

    assert {"serial", "batched", "process"} <= set(registry.names())
