"""Per-layer forward/backward wall-clock of the conv models, and model copies.

Times every layer of AlexNet-S (width 0.5, CIFAR-10 shapes) and CNN-H (HAR
shapes) on its own, at the training batch (8) and the evaluation batch
(200), both as the serial layer and as the worker-stacked kernel of the
batched executor.  It also times ``clone()`` of AlexNet-S and of the MLP
bottom model of a 1000-worker lazy fleet, which a MergeSFL round clones
once per selected worker, both fresh and right after a 200-sample forward
pass.

Each figure is the median over ``repeats`` runs (at least 3) of the mean
over a few timed iterations.  Run as a script to measure the source tree
on ``PYTHONPATH`` and merge the result into ``BENCH_layers.json`` under a
label, so one file can hold the measurements of two commits::

    PYTHONPATH=src python benchmarks/bench_layers.py --label after

With both a ``before`` and an ``after`` entry the file also carries their
per-model and per-copy speedups.  Under pytest (``BENCH_SMOKE=1`` in CI)
the same measurement runs at toy sizes and writes nothing.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread unless the caller chose otherwise, fixed before numpy
    # loads so layer timings do not depend on the host's core count.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.common import (  # noqa: E402
    host,
    run_once,
    smoke_mode,
    source_commit,
    write_labelled,
)
from repro.api.components import build_components  # noqa: E402
from repro.config import ExperimentConfig  # noqa: E402
from repro.experiments.reporting import format_table  # noqa: E402
from repro.nn.models import build_alexnet_s, build_cnn_h  # noqa: E402
from repro.parallel.kernels import BatchedModel  # noqa: E402

DEFAULT_OUTPUT = ROOT / "BENCH_layers.json"

#: Model name -> (builder, input shape of one sample).
MODELS = {
    "alexnet_s": (lambda: build_alexnet_s(width=0.5, seed=0), (3, 32, 32)),
    "cnn_h": (lambda: build_cnn_h(seed=0), (9, 128)),
}

#: Batch -> workers stacked by the batched executor's kernels.  Training
#: stacks a 16-worker cohort; evaluation-sized batches stack two workers,
#: which keeps the stacked column matrices to a few hundred MB.
STACKED_WORKERS = {8: 16, 200: 2}


def settings() -> dict:
    if smoke_mode():
        return {"batches": (2, 4), "stacked_workers": {2: 2, 4: 2},
                "repeats": 1, "iterations": 1, "clone_repeats": 1, "clones": 5}
    # A clone takes tens of microseconds, so a shared host's load swings
    # show up in it more than in the layer timings: take more runs.
    return {"batches": (8, 200), "stacked_workers": STACKED_WORKERS,
            "repeats": 5, "iterations": 3, "clone_repeats": 21, "clones": 300}


def _time_layers(layers, inputs, iterations):
    """Mean forward and backward seconds per layer over ``iterations``."""
    forward = np.zeros(len(layers))
    backward = np.zeros(len(layers))
    for _ in range(iterations):
        activations = inputs
        for index, layer in enumerate(layers):
            start = time.perf_counter()
            activations = layer.forward(activations)
            forward[index] += time.perf_counter() - start
        grad = np.full(activations.shape, 1e-3)
        for index in reversed(range(len(layers))):
            start = time.perf_counter()
            grad = layers[index].backward(grad)
            backward[index] += time.perf_counter() - start
    return forward / iterations, backward / iterations


def measure_model(name: str, batch: int, stacked: int, config: dict) -> list[dict]:
    """Per-layer median forward/backward microseconds of one model case."""
    build, sample_shape = MODELS[name]
    model = build()
    shape = (batch, *sample_shape) if not stacked else (stacked, batch, *sample_shape)
    inputs = np.random.default_rng(0).normal(size=shape)
    layers = BatchedModel(model, stacked).layers if stacked else model.layers
    runs = [
        _time_layers(layers, inputs, config["iterations"])
        for _ in range(config["repeats"])
    ]
    return [
        {
            "layer": f"{index}:{type(layer).__name__}",
            "forward_us": 1e6 * statistics.median(run[0][index] for run in runs),
            "backward_us": 1e6 * statistics.median(run[1][index] for run in runs),
        }
        for index, layer in enumerate(model.layers)
    ]


def fleet_bottom():
    """The MLP bottom model of the 1000-worker lazy MergeSFL fleet."""
    config = ExperimentConfig(
        algorithm="mergesfl", dataset="blobs", model="mlp", num_workers=1000,
        population="lazy", local_iterations=1, num_rounds=1,
    )
    components = build_components(config)
    return components.split.bottom, components.data.train.data


def measure_clones(config: dict) -> dict:
    """Median and fastest microseconds per ``clone()`` of the fleet's bottom
    (fresh and after a 200-sample forward) and of AlexNet-S (width 0.5)."""
    bottom, features = fleet_bottom()

    def per_clone(model) -> dict:
        runs = []
        for _ in range(config["clone_repeats"]):
            start = time.perf_counter()
            for _ in range(config["clones"]):
                model.clone()
            runs.append(1e6 * (time.perf_counter() - start) / config["clones"])
        return {"median": statistics.median(runs), "min": min(runs)}

    fresh = per_clone(bottom)
    bottom.forward(features[:200])
    return {"fresh": fresh, "after_forward_200": per_clone(bottom),
            "alexnet_s": per_clone(MODELS["alexnet_s"][0]())}


def measure() -> dict:
    config = settings()
    cases = {}
    for name in MODELS:
        for batch in config["batches"]:
            cases[f"{name}/serial/b{batch}"] = measure_model(name, batch, 0, config)
            workers = config["stacked_workers"][batch]
            cases[f"{name}/stacked{workers}/b{batch}"] = measure_model(
                name, batch, workers, config
            )
    totals = {
        case: {
            "forward_us": sum(row["forward_us"] for row in rows),
            "backward_us": sum(row["backward_us"] for row in rows),
        }
        for case, rows in cases.items()
    }
    return {
        "commit": source_commit(),
        "host": host(),
        "repeats": config["repeats"],
        "iterations_per_repeat": config["iterations"],
        "clone_repeats": config["clone_repeats"],
        "clones_per_repeat": config["clones"],
        "layers": cases,
        "totals": totals,
        "clone_us": measure_clones(config),
    }


def speedups(before: dict, after: dict) -> dict:
    """``before / after`` time ratios of every shared total and copy figure."""
    ratios = {}
    for case, total in after["totals"].items():
        if case in before["totals"]:
            old = before["totals"][case]
            ratios[case] = (old["forward_us"] + old["backward_us"]) / (
                total["forward_us"] + total["backward_us"]
            )
    for key, value in after["clone_us"].items():
        if key in before["clone_us"]:
            ratios[f"clone/{key}"] = before["clone_us"][key]["median"] / value["median"]
    return ratios


def report(result: dict) -> str:
    rows = [
        [case, f"{total['forward_us']:.0f}", f"{total['backward_us']:.0f}"]
        for case, total in result["totals"].items()
    ]
    rows += [[f"clone ({key}, median)", f"{value['median']:.1f}", ""]
             for key, value in result["clone_us"].items()]
    return format_table(["case", "forward_us", "backward_us"], rows,
                        title="Per-model layer time (median of runs)")


def test_layer_timings(benchmark):
    result = run_once(benchmark, measure)
    print()
    print(report(result))
    for total in result["totals"].values():
        assert total["forward_us"] > 0 and total["backward_us"] > 0
    assert all(value["min"] > 0 for value in result["clone_us"].values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="after",
                        help="entry name in the JSON file (e.g. before/after)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    result = measure()
    print(report(result))
    document = write_labelled(args.output, args.label, result,
                              __doc__.split("\n\n")[0], speedups)
    for key, ratio in document.get("speedup_before_over_after", {}).items():
        print(f"  {key:32s} {ratio:6.2f}x")


if __name__ == "__main__":
    main()
