"""The benchmark's workloads: one training session each, built from a seed.

Every workload is a closed loop over one :class:`repro.Session`: round
``r + 1`` starts when ``Session.step()`` for round ``r`` returns.  The
program receives only the :class:`repro.ExperimentConfig` built here.  Each
workload uses at most two child processes and one BLAS thread per process
(see ``run.py``), so it fits a 2-core host.

A benchmark seed maps onto the :data:`REFERENCE_SEEDS` config seeds that
have a committed reference trajectory (``seed % REFERENCE_SEEDS``), so the
program's outputs can be checked for every seed the benchmark is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Number of config seeds with a committed reference trajectory per workload.
REFERENCE_SEEDS = 16

#: Child processes of the process-executor workloads.
CHILD_PROCESSES = 2

#: Fewest rounds an untraced run measures, so ``round_s.tail`` has ten
#: rounds past its percentile.
MIN_ROUNDS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Why each workload exists, its dominant layer and the changes it must
    not respond to are stated in ``BENCHMARK.json``.

    Attributes:
        name: Workload name as given to ``--workload``.
        dominant_layer: The component expected to hold the most self time
            in a traced run (a span name, or ``a + b`` for the top pair).
        session_rounds: Rounds per training session; the test loss after
            the last one is ``final_test_loss``.
        settings: ``ExperimentConfig`` fields other than ``seed``.
        min_rounds: Fewest rounds an untraced run measures, on top of
            ``--seconds``.
    """

    name: str
    dominant_layer: str
    session_rounds: int
    settings: dict = field(default_factory=dict)
    min_rounds: int = MIN_ROUNDS

    def config(self, seed: int):
        """The experiment configuration for a seed, mapped onto the recorded ones."""
        from repro import ExperimentConfig

        return ExperimentConfig(
            num_rounds=self.session_rounds,
            seed=seed % REFERENCE_SEEDS,
            **self.settings,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="cnn-merge",
            dominant_layer="nn.Conv2d",
            session_rounds=10,
            settings=dict(
                algorithm="mergesfl", dataset="cifar10", model="alexnet_s",
                model_width=0.5, num_workers=16, non_iid_level=2.0,
                local_iterations=5, executor="serial", population="eager",
                pipeline="sync", max_batch_size=8, base_batch_size=4,
                train_samples=1600, test_samples=200,
            ),
        ),
        Workload(
            name="fleet-lazy",
            dominant_layer="selection.solve",
            session_rounds=20,
            settings=dict(
                algorithm="mergesfl", dataset="blobs", model="mlp",
                num_workers=1000, population="lazy", local_iterations=1,
                selector="ga", executor="serial", pipeline="sync",
            ),
            # Its rounds are short and mostly small numpy calls, whose
            # speed swings by up to 1.5x with the load of a shared host
            # over spells of seconds; more rounds average over more spells.
            min_rounds=100,
        ),
        Workload(
            name="proc-pipelined",
            dominant_layer="parallel.collect_forward",
            session_rounds=10,
            settings=dict(
                algorithm="mergesfl", dataset="har", model="cnn_h",
                model_width=0.25, num_workers=16, local_iterations=20,
                executor="process", transport="shm", pipeline="pipelined",
                max_batch_size=8, base_batch_size=4, test_samples=200,
                extras={"executor_processes": CHILD_PROCESSES},
            ),
        ),
        Workload(
            name="fedavg-proc",
            dominant_layer="parallel.train_full + nn.Conv2d",
            session_rounds=8,
            settings=dict(
                algorithm="fedavg", dataset="har", model="cnn_h",
                model_width=1.0, num_workers=16, local_iterations=5,
                executor="process", transport="pipe", pipeline="sync",
                max_batch_size=8, base_batch_size=4, test_samples=200,
                extras={"executor_processes": CHILD_PROCESSES},
            ),
        ),
    )
}
