"""Reference trajectories: the recorded outputs every benchmark run must match.

``reference/<workload>.json`` holds, for each config seed of
:data:`workloads.REFERENCE_SEEDS`, one entry per round of a session: a
digest of ``selected_ids`` plus ``total_batch``, ``test_loss``,
``test_accuracy`` and the simulated clock and traffic.  A run fails its
output check when a round's cohort or merged batch differs at all, or a
measured value differs by more than :data:`TOLERANCE`.

Each seed's entry also fixes the time-to-target goal: ``target_loss`` lies
halfway between the reference loss of ``target_round`` and the lowest loss
before it, so the first round at or under the goal is ``target_round`` --
one round near mid-session, the same for every seed (:func:`set_targets`).

Recording is a deliberate act, not part of a run::

    python3 perfbench/reference.py --workload cnn-merge
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Declared output tolerances.  Test loss, simulated time and traffic are
#: compared relatively; accuracy may differ by at most this many test
#: samples' worth of predictions.
TOLERANCE = {"rtol": 1e-6, "test_accuracy_samples": 1}

#: Round values compared with the relative tolerance.
RELATIVE = ("test_loss", "sim_time", "traffic_mb")


def ids_digest(ids) -> str:
    """A short exact fingerprint of a round's selected worker ids."""
    text = ",".join(str(int(worker)) for worker in ids)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def round_entry(record) -> dict:
    return {
        "ids": ids_digest(record.selected_ids),
        "num_selected": len(record.selected_ids),
        "total_batch": int(record.total_batch),
        "test_loss": float(record.test_loss),
        "test_accuracy": float(record.test_accuracy),
        "sim_time": float(record.sim_time),
        "traffic_mb": float(record.traffic_mb),
    }


def mismatches(expected: dict, record, test_samples: int) -> list[str]:
    """How one measured round differs from its reference entry."""
    actual = round_entry(record)
    problems = [
        f"{key} {actual[key]!r} != reference {expected[key]!r}"
        for key in ("ids", "num_selected", "total_batch")
        if actual[key] != expected[key]
    ]
    problems.extend(
        f"{key} {actual[key]!r} != reference {expected[key]!r}"
        for key in RELATIVE
        if not math.isclose(actual[key], expected[key], rel_tol=TOLERANCE["rtol"])
    )
    accuracy_tol = TOLERANCE["test_accuracy_samples"] / test_samples + 1e-12
    if abs(actual["test_accuracy"] - expected["test_accuracy"]) > accuracy_tol:
        problems.append(
            f"test_accuracy {actual['test_accuracy']!r} != reference "
            f"{expected['test_accuracy']!r}"
        )
    return problems


def set_targets(seeds: dict[str, dict], mid: int) -> None:
    """Fix every seed's ``target_round`` and ``target_loss``.

    The target round is the one nearest ``mid`` (the later on a tie) at
    which every seed's reference loss sets a new minimum, so the goal is
    reached after the same number of rounds on every seed.
    """
    curves = [[entry["test_loss"] for entry in seed["rounds"]] for seed in seeds.values()]
    rounds = [
        index for index in range(1, len(curves[0]))
        if all(curve[index] < min(curve[:index]) for curve in curves)
    ]
    if not rounds:
        raise ValueError("no round sets a new loss minimum on every seed")
    target_round = min(rounds, key=lambda index: (abs(index - mid), -index))
    for seed, curve in zip(seeds.values(), curves):
        seed["target_round"] = target_round
        seed["target_loss"] = (curve[target_round] + min(curve[:target_round])) / 2.0


def load(workload) -> dict:
    """The reference file of a workload, checked against its definition."""
    path = REFERENCE_DIR / f"{workload.name}.json"
    payload = json.loads(path.read_text())
    recorded = payload["config"]
    current = workload.config(0).to_dict()
    if recorded != current:
        changed = sorted(key for key in current if recorded.get(key) != current[key])
        raise ValueError(
            f"{path.name} was recorded for another configuration "
            f"(fields {changed}); re-record it"
        )
    return payload


def record(workload) -> dict:
    """Run one session per reference seed and return the reference payload."""
    from repro import Session
    from workloads import REFERENCE_SEEDS

    seeds = {}
    for seed in range(REFERENCE_SEEDS):
        with Session(workload.config(seed)) as session:
            seeds[str(seed)] = {"rounds": [round_entry(session.step())
                                           for _ in range(workload.session_rounds)]}
        print(f"{workload.name} seed {seed} recorded", flush=True)
    set_targets(seeds, workload.session_rounds // 2)
    return {
        "workload": workload.name,
        "config": workload.config(0).to_dict(),
        "seeds": seeds,
    }


def main(argv=None) -> int:
    import run  # pins BLAS threads and puts the program on sys.path
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)
    run.require_program()
    payload = record(WORKLOADS[args.workload])
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
