"""Selection-solver quality vs wall-clock at fleet-scale candidate pools.

A multi-round selection sequence (drifting batch sizes, Eq. 13 priorities
fed back from each solver's own selections) is replayed at 100-, 400- and
1000-worker candidate pools for every production solver in
:data:`repro.api.registry.SELECTION_SOLVERS`.  Reported per (scale, solver):
mean KL of the selected mixtures, total solve wall-clock and feasibility.

Two properties are asserted, not just reported:

* at the 400-worker scale, ``ga-warm`` and ``local-search`` each reach a
  mean KL <= the cold GA's in materially less solve time -- the point of
  warm starts and the incremental fitness;
* on tiny instances (N <= 12) every solver's penalised fitness is bounded
  below by the ``exact`` brute-force oracle, and at least one heuristic
  finds the optimum.

``BENCH_SMOKE`` shrinks the scales and rounds and drops the timing/quality
assertions (meaningless at toy sizes); the oracle bound always holds.

Run as a script to measure the source tree on ``PYTHONPATH`` and merge the
result into ``BENCH_selection.json`` under a label::

    PYTHONPATH=src python benchmarks/bench_selection.py --label after

The entry holds the median (and fastest) of ``REPEATS`` sweeps of each
(scale, solver) solve time, and the sweep's mean KL and feasible fraction,
which are deterministic for the seed.  With a ``before`` and an ``after``
entry the file also carries their speedups.  Under pytest nothing is
written.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread unless the caller chose otherwise, fixed before numpy
    # loads, as in bench_layers.py.
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
from repro.core.divergence import iid_distribution  # noqa: E402
from repro.core.selection import selection_priorities  # noqa: E402
from repro.experiments.reporting import format_table  # noqa: E402
from repro.selection.solvers import SELECTION_SOLVERS, SelectionProblem  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402

DEFAULT_OUTPUT = ROOT / "BENCH_selection.json"
#: Sweeps per script run; each (scale, solver) time is their median.
REPEATS = 5

#: Production solvers under comparison ("exact" appears only as the oracle).
SOLVERS = ("ga", "ga-warm", "local-search", "greedy")

SEED = 11
#: The scale the timing and quality assertions run at.
ASSERT_SCALE = 400


def _scales() -> tuple[int, ...]:
    return (24, 48) if smoke_mode() else (100, 400, 1000)


def _rounds() -> int:
    return 2 if smoke_mode() else 4


def _problem(dists: np.ndarray, base: np.ndarray, counts: np.ndarray,
             round_index: int) -> SelectionProblem:
    """One round's instance: batch sizes drift, priorities follow Eq. 13."""
    num_workers = base.shape[0]
    round_rng = new_rng(SEED + 100 + round_index)
    batch = np.clip(
        base + round_rng.integers(-2, 3, size=num_workers), 1, None
    )
    return SelectionProblem(
        batch_sizes=batch,
        label_distributions=dists,
        target_distribution=iid_distribution(dists),
        bandwidth_per_sample=1.0,
        bandwidth_budget=0.4 * float(batch.sum()),
        priorities=selection_priorities(counts),
        rng=new_rng(SEED + 200 + round_index),
    )


def _run_solver(name: str, num_workers: int) -> tuple[float, float, float]:
    """(mean KL, total solve seconds, feasible fraction) over the sequence.

    Each solver replays the same drifting population; priorities evolve
    from its *own* selections, as they would in a live run, so stateful
    warm starts see realistic round-to-round overlap.  Feasibility is
    reported, not asserted: the GA's bandwidth constraint is a penalty
    (Eq. 10 relaxed), so a cold GA can legitimately land slightly over
    budget on a hard instance.
    """
    rng = new_rng(SEED)
    dists = rng.dirichlet([0.2] * 10, size=num_workers)
    base = rng.integers(4, 17, size=num_workers)
    counts = np.zeros(num_workers)
    solver = SELECTION_SOLVERS.get(name)()
    total_kl, elapsed, feasible = 0.0, 0.0, 0
    rounds = _rounds()
    for round_index in range(rounds):
        problem = _problem(dists, base, counts, round_index)
        start = time.perf_counter()
        result = solver.solve(problem)
        elapsed += time.perf_counter() - start
        total_kl += result.kl
        feasible += int(result.feasible)
        counts[result.selected] += 1
    return total_kl / rounds, elapsed, feasible / rounds


def _sweep() -> dict[int, dict[str, tuple[float, float, bool]]]:
    return {
        scale: {name: _run_solver(name, scale) for name in SOLVERS}
        for scale in _scales()
    }


def test_selection_quality_vs_time(benchmark):
    results = run_once(benchmark, _sweep)
    rows = [
        [scale, name, kl, elapsed * 1e3, feasible]
        for scale, by_solver in results.items()
        for name, (kl, elapsed, feasible) in by_solver.items()
    ]
    print()
    print(format_table(
        ["workers", "solver", "mean_kl", "solve_ms", "feasible_frac"], rows,
        title="Selection solvers: quality vs wall-clock",
    ))
    for scale, by_solver in results.items():
        for name, (kl, __, feasible) in by_solver.items():
            assert np.isfinite(kl), f"{name}@{scale}"
            # The GA treats the budget as a penalty, so a cold GA may land
            # over budget on large pools (visible in the table -- part of
            # the story this bench tells).  The constructive solvers build
            # within budget and must stay feasible.
            if name in ("greedy", "local-search"):
                assert feasible == 1.0, f"{name}@{scale} went over budget"
    if smoke_mode():
        return
    cold_kl, cold_time, __ = results[ASSERT_SCALE]["ga"]
    for challenger in ("ga-warm", "local-search"):
        kl, elapsed, __ = results[ASSERT_SCALE][challenger]
        assert kl <= cold_kl, (
            f"{challenger} mean KL {kl:.6f} exceeds cold GA's {cold_kl:.6f} "
            f"at {ASSERT_SCALE} workers"
        )
        assert elapsed < 0.9 * cold_time, (
            f"{challenger} took {elapsed:.3f}s vs cold GA's {cold_time:.3f}s "
            f"at {ASSERT_SCALE} workers -- not materially faster"
        )


def _tiny_problem(seed: int) -> SelectionProblem:
    rng = new_rng(seed)
    dists = rng.dirichlet([0.3] * 4, size=10)
    batch_sizes = rng.integers(2, 17, size=10)
    return SelectionProblem(
        batch_sizes=batch_sizes,
        label_distributions=dists,
        target_distribution=iid_distribution(dists),
        bandwidth_per_sample=1.0,
        bandwidth_budget=0.5 * float(batch_sizes.sum()),
        rng=new_rng(seed),
    )


def _penalised(problem: SelectionProblem, result) -> float:
    mask = np.zeros(problem.num_workers, dtype=bool)
    mask[np.asarray(result.selected, dtype=np.int64)] = True
    return float(problem.fitness().evaluate(mask[None, :])[0])


def test_solvers_agree_with_exact_oracle(benchmark):
    """At N <= 12 the brute-force optimum bounds every solver's fitness."""

    def _compare():
        scores = []
        for seed in range(3):
            oracle = _penalised(
                _tiny_problem(seed),
                SELECTION_SOLVERS.get("exact")().solve(_tiny_problem(seed)),
            )
            row = {"seed": seed, "exact": oracle}
            for name in SOLVERS:
                problem = _tiny_problem(seed)
                row[name] = _penalised(
                    problem, SELECTION_SOLVERS.get(name)().solve(problem)
                )
            scores.append(row)
        return scores

    scores = run_once(benchmark, _compare)
    print()
    print(format_table(
        ["seed", "exact", *SOLVERS],
        [[row["seed"], row["exact"], *(row[name] for name in SOLVERS)]
         for row in scores],
        title="Penalised fitness vs the exact oracle (N = 10)",
    ))
    hits = 0
    for row in scores:
        for name in SOLVERS:
            assert row[name] >= row["exact"] - 1e-12, (
                f"{name} beat the exhaustive optimum on seed {row['seed']}"
            )
            hits += int(row[name] <= row["exact"] + 1e-12)
    assert hits >= 1, "no heuristic ever found the exhaustive optimum"


def measure(repeats: int = REPEATS) -> dict:
    """Solve milliseconds of ``repeats`` sweeps, with the sweep's quality."""
    sweeps = [_sweep() for _ in range(repeats)]
    solve_ms, mean_kl, feasible = {}, {}, {}
    for scale, by_solver in sweeps[0].items():
        for name in by_solver:
            key = f"{scale}/{name}"
            outcomes = [sweep[scale][name] for sweep in sweeps]
            # Only the wall-clock may vary between sweeps.
            assert len({(kl, frac) for kl, __, frac in outcomes}) == 1, key
            times = [1e3 * elapsed for __, elapsed, __ in outcomes]
            solve_ms[key] = {"median": statistics.median(times), "min": min(times)}
            mean_kl[key], __, feasible[key] = outcomes[0]
    return {
        "commit": source_commit(),
        "host": host(),
        "repeats": repeats,
        "rounds_per_solve_ms": _rounds(),
        "solve_ms": solve_ms,
        "mean_kl": mean_kl,
        "feasible_frac": feasible,
    }


def speedups(before: dict, after: dict) -> dict:
    """``before / after`` median solve-time ratio of every shared case."""
    return {
        key: before["solve_ms"][key]["median"] / value["median"]
        for key, value in after["solve_ms"].items() if key in before["solve_ms"]
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="after",
                        help="entry name in the JSON file (e.g. before/after)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    result = measure()
    print(format_table(
        ["case", "solve_ms", "mean_kl", "feasible_frac"],
        [[key, f"{value['median']:.1f}", result["mean_kl"][key],
          result["feasible_frac"][key]] for key, value in result["solve_ms"].items()],
        title=f"Selection solvers (median of {result['repeats']} sweeps)",
    ))
    document = write_labelled(args.output, args.label, result,
                              __doc__.split("\n\n")[0], speedups)
    runs = document["runs"]
    if "before" in runs and "after" in runs:
        same = all(runs["before"][field] == runs["after"][field]
                   for field in ("mean_kl", "feasible_frac"))
        print(f"  mean KL and feasibility identical to 'before': {same}")
    for key, ratio in document.get("speedup_before_over_after", {}).items():
        print(f"  {key:24s} {ratio:6.2f}x")


if __name__ == "__main__":
    main()
