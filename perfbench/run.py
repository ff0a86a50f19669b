"""Run one benchmark workload for a seed, check its outputs, print its metrics.

    python3 perfbench/run.py --workload cnn-merge --seed 0 --seconds 20 --trace 0

The program under test is the ``repro`` package in ``src/`` of the same
checkout, imported from source.  A run:

1. builds the workload's ``Session`` several times, in bursts before and
   after each training session, and reports the median construction time as
   ``setup_s`` (untraced runs only);
2. trains whole sessions of the workload, one round after another --
   session ``k`` with config seed ``seed + k`` -- until it has measured at
   least ``--seconds`` of rounds and the workload's ``min_rounds`` rounds;
3. checks every round against the recorded reference trajectory of its
   config seed (``reference.py``) -- a mismatch fails the run;
4. prints a human-readable report, then as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}`` holding the
   ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
   ``per_layer`` metrics (``--trace 1``), and writes the full result to
   ``perfbench/results/``.

A traced run first measures half of ``--seconds`` untraced, then half with
the tracer of ``tracer.py`` installed, so it can report the tracing overhead;
it also writes the spans as Chrome trace-event JSON and a table of self time
per layer.  Exit status is 0 when every output check passed, 1 when one
failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads; the process
# executor's children inherit it when they fork.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from tracer import NN_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: ``setup_s`` is the median of timed ``Session`` constructions taken in
#: bursts spread over the run, so that it samples the same mix of fast and
#: slow spells of a shared host as the rounds do.  A burst is at least this
#: many constructions ...
SETUP_BURST_MIN_REPEATS = 4
#: ... and as many more as fit in this many seconds, up to the cap.
SETUP_BURST_SECONDS = 0.2
SETUP_BURST_MAX_REPEATS = 20
#: Training wall-clock after which a run stops even below ``min_rounds``.
HARD_CAP_S = 120.0


def require_program() -> None:
    """Exit with status 2 unless the program's source can be imported."""
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        raise SystemExit(2) from error


@dataclass
class Round:
    session: int
    index: int
    seconds: float
    samples: int
    record: object
    sync_points: int


@dataclass
class Training:
    """Everything one measured stretch of training produced."""

    #: Rounds of each session, in order; only the last may be cut short
    #: (by a round that raised).
    sessions: list[list[Round]] = field(default_factory=list)
    session_seeds: list[int] = field(default_factory=list)
    #: ``(where, what)`` of every failed output check or raised round.
    failures: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    children_peak_mb: float = 0.0
    engine: str = ""

    @property
    def rounds(self) -> list[Round]:
        return [item for rounds in self.sessions for item in rounds]

    @property
    def seconds(self) -> float:
        return sum(item.seconds for item in self.rounds)

    @property
    def failed_rounds(self) -> int:
        return len({where for where, _ in self.failures})


def _peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory (VmHWM) of a process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    if pid == "self":
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return 0.0


def _engine_span(session) -> str:
    """Root span name of a round: the engine module that runs it."""
    from repro.baselines.fl_engine import FLTrainingEngine

    if isinstance(session.algorithm.engine, FLTrainingEngine):
        return "baselines.fl_engine"
    return "core.engine"


def measure_setup(workload, seed: int, warm_up: bool = False) -> list[float]:
    """One burst of timed ``Session`` constructions (each closed again).

    With ``warm_up`` the first construction, which pays one-time import
    and cache costs, is made but not timed.
    """
    from repro import Session

    config = workload.config(seed)
    times: list[float] = []
    while len(times) < SETUP_BURST_MAX_REPEATS and (
        len(times) < SETUP_BURST_MIN_REPEATS or sum(times) < SETUP_BURST_SECONDS
    ):
        start = time.perf_counter()
        session = Session(config)
        elapsed = time.perf_counter() - start
        session.close()
        if not warm_up:
            times.append(elapsed)
        warm_up = False
    return times


def train(workload, seed: int, seconds: float, recorded: dict,
          tracer=None, min_rounds: int | None = None,
          after_session=None) -> Training:
    """Train whole sessions until the measuring budget is met.

    Session ``k`` of a run uses config seed ``seed + k`` (modulo the
    recorded seeds), so a run's medians pool several seeds.  Every round
    is checked against the reference for its session's seed.
    ``after_session``, if given, is called after each session is closed.
    """
    from repro import Session

    if min_rounds is None:
        min_rounds = workload.min_rounds
    run = Training()
    while True:
        config = workload.config(seed + len(run.sessions))
        expected = recorded["seeds"][str(config.seed)]["rounds"]
        session = Session(config)
        run.engine = _engine_span(session)
        rounds: list[Round] = []
        try:
            for index in range(workload.session_rounds):
                label = f"session {len(run.sessions)} round {index}"
                span = None
                if tracer is not None:
                    tracer.round_id = len(run.rounds) + len(rounds)
                    span = tracer.open(run.engine)
                start = time.perf_counter()
                try:
                    record = session.step()
                except Exception as error:  # a raising round fails the run
                    run.failures.append((label, f"{type(error).__name__}: {error}"))
                    break
                finally:
                    elapsed = time.perf_counter() - start
                    if tracer is not None:
                        tracer.close(span)
                        tracer.round_id = None
                rounds.append(Round(
                    len(run.sessions), index, elapsed,
                    record.total_batch * config.local_iterations, record,
                    session.algorithm.engine.pipeline.last_report.sync_points,
                ))
                run.failures.extend(
                    (label, problem) for problem in reference.mismatches(
                        expected[index], record, config.test_samples)
                )
            run.children_peak_mb = max(
                run.children_peak_mb,
                sum(_peak_rss_mb(child.pid) for child in multiprocessing.active_children()),
            )
        finally:
            session.close()
        if after_session is not None:
            after_session()
        run.sessions.append(rounds)
        run.session_seeds.append(config.seed)
        run.attempted += len(rounds) + (len(rounds) < workload.session_rounds)
        if len(rounds) < workload.session_rounds or run.seconds >= HARD_CAP_S or (
            run.seconds >= seconds and len(run.rounds) >= min_rounds
        ):
            return run


def percentile(times: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in percent) of round times."""
    ordered = sorted(times)
    return ordered[max(1, math.ceil(share / 100 * len(ordered))) - 1]


def tail_share(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` rounds beyond it."""
    return math.floor(100 - 1000 / count) if count >= 20 else 50


def end_to_end(run: Training, setup_times: list[float], recorded: dict,
               workload) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, plus their details."""
    times = [item.seconds for item in run.rounds]
    share = tail_share(len(times))
    to_target, sim_to_target, finals = [], [], []
    for rounds, config_seed in zip(run.sessions, run.session_seeds):
        if len(rounds) < workload.session_rounds:
            continue
        goal = recorded["seeds"][str(config_seed)]["target_loss"]
        reached = next((item for item in rounds if item.record.test_loss <= goal), None)
        if reached is None:
            run.failures.append((f"session {rounds[0].session}",
                                 f"test loss never reached {goal!r}"))
            continue
        to_target.append(sum(item.seconds for item in rounds[:reached.index + 1]))
        sim_to_target.append(reached.record.sim_time)
        finals.append(rounds[-1].record)

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else math.nan

    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_samples_per_s": sum(item.samples for item in run.rounds) / run.seconds,
        "round_s.p50": percentile(times, 50),
        "round_s.tail": percentile(times, share),
        "time_to_target_s": median(to_target),
        "sim_time_to_target_s": median(sim_to_target),
        "traffic_mb": median([record.traffic_mb for record in finals]),
        "final_test_loss": median([record.test_loss for record in finals]),
        "final_test_accuracy": median([record.test_accuracy for record in finals]),
        "peak_rss_mb": _peak_rss_mb() + run.children_peak_mb,
        "round_success_ratio": 1.0 - run.failed_rounds / run.attempted,
    }
    details = {
        "rounds": len(times),
        "session_seeds": run.session_seeds,
        "round_s.tail_percentile": share,
        "setup_samples": len(setup_times),
    }
    return metrics, details


def per_layer(tracer, traced: Training, plain: Training, workload) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run (per traced round), plus details."""
    count = len(traced.rounds)
    totals = tracer.totals()

    def entry(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / count

    metrics: dict[str, float] = {}
    for layer in NN_LAYERS:
        for direction in ("forward", "backward"):
            name = f"nn.{layer}.{direction}"
            metrics[f"{name}.calls"] = entry(name, "calls")
            metrics[f"{name}.self_s"] = entry(name, "self_s")
    metrics["nn.Conv2d.gflop"] = tracer.counters.get("nn.Conv2d.flop", 0.0) / 1e9 / count
    metrics["core.controller.plan_round.calls"] = entry("core.controller.plan_round", "calls")
    for name in ("core.controller.plan_round", "selection.solve",
                 "core.regulation.finetune", "population.checkout",
                 "population.release", "parallel.install", "parallel.forward",
                 "parallel.backward_step", "parallel.bottom_states",
                 "parallel.stage_forward", "parallel.fused_backward_forward",
                 "core.server.update_top_merged", "core.server.aggregate_bottoms",
                 "core.server.evaluate"):
        metrics[f"{name}.busy_s"] = entry(name, "busy_s")
    for name in ("parallel.collect_forward", "parallel.train_full"):
        metrics[f"{name}.wait_s"] = entry(name, "busy_s")
    hits = sum(item.record.cache_hits for item in traced.rounds)
    misses = sum(item.record.cache_misses for item in traced.rounds)
    metrics["population.cache_hits"] = hits / count
    metrics["population.cache_misses"] = misses / count
    metrics["population.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["parallel.pipeline.sync_points"] = sum(item.sync_points for item in traced.rounds) / count
    metrics["parallel.transport.bytes_on_wire"] = sum(
        item.record.bytes_on_wire for item in traced.rounds) / count
    metrics["parallel.transport.logical_bytes"] = sum(
        item.record.logical_bytes for item in traced.rounds) / count
    for name in ("core.engine", "baselines.fl_engine"):
        metrics[f"{name}.self_s"] = entry(name, "self_s")
    setup = tracer.totals(only_rounds=False).get("api.build_components", {})
    metrics["api.build_components.busy_s"] = setup.get("busy_s", 0.0) / len(traced.sessions)
    traced_p50 = statistics.median(item.seconds for item in traced.rounds)
    plain_p50 = statistics.median(item.seconds for item in plain.rounds)
    metrics["tracing.overhead"] = traced_p50 / plain_p50 - 1.0
    table = tracer.self_time_table()
    ranked = tracer.ranked_components()
    expected = workload.dominant_layer.split(" + ")
    top = [name for name, _ in ranked[:len(expected)]]
    details = {
        "traced_rounds": count,
        "untraced_rounds": len(plain.rounds),
        "round_s.p50_traced": traced_p50,
        "round_s.p50_untraced": plain_p50,
        "training_s": traced.seconds,
        "self_time_sum_s": sum(table.values()),
        "self_time_by_layer_s": table,
        "top_components_s": dict(ranked[:8]),
        "spans": len(tracer.spans),
        "dominant_layer": " + ".join(top),
        "dominant_layer_expected": workload.dominant_layer,
        "dominant_layer_matches": sorted(top) == sorted(expected),
    }
    return metrics, details


def write_layer_table(path: Path, workload, details: dict) -> None:
    """Self time per layer of the traced rounds, as a plain-text table."""
    total = details["training_s"]
    lines = [f"{workload.name}: self time per layer over "
             f"{details['traced_rounds']} traced rounds",
             f"{'layer':<24}{'self_s':>10}{'share':>9}"]
    for layer, seconds in details["self_time_by_layer_s"].items():
        lines.append(f"{layer:<24}{seconds:>10.3f}{seconds / total:>9.1%}")
    lines.append(f"{'sum':<24}{details['self_time_sum_s']:>10.3f}")
    lines.append(f"{'training wall-clock':<24}{total:>10.3f}")
    lines.append(f"dominant: {details['dominant_layer']} "
                 f"(expected {details['dominant_layer_expected']})")
    path.write_text("\n".join(lines) + "\n")


def fingerprint() -> dict:
    """The host and library versions a result was measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without the dict mode
        blas_info = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_info,
        "blas_threads_per_process": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def metric_specs(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def stop_helper_processes() -> None:
    """Stop and wait for every process this run started, on any way out.

    The process executor joins its children when a session closes; this
    reaps any that are left, and stops the ``multiprocessing`` resource
    tracker that shared-memory transports start, which would otherwise
    outlive the run until it notices the parent is gone.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    require_program()
    workload = WORKLOADS[args.workload]
    specs = metric_specs(bool(args.trace))
    recorded = reference.load(workload)
    host = fingerprint()
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        plain = train(workload, args.seed, args.seconds / 2, recorded, min_rounds=1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = train(workload, args.seed, args.seconds / 2, recorded,
                           tracer=tracer, min_rounds=1)
        finally:
            tracer.uninstall()
        runs = (plain, traced)
        metrics, details = {}, {}
        if plain.rounds and traced.rounds:
            metrics, details = per_layer(tracer, traced, plain, workload)
            tracer.write_chrome_trace(RESULTS_DIR / f"{stem}.trace.json")
            write_layer_table(RESULTS_DIR / f"{stem}.layers.txt", workload, details)
    else:
        setup_times = measure_setup(workload, args.seed, warm_up=True)
        run = train(workload, args.seed, args.seconds, recorded,
                    after_session=lambda: setup_times.extend(
                        measure_setup(workload, args.seed)))
        runs = (run,)
        metrics, details = {}, {}
        if run.rounds:
            metrics, details = end_to_end(run, setup_times, recorded, workload)

    failures = [f"{where}: {what}" for item in runs for where, what in item.failures]
    attempted = sum(item.attempted for item in runs)
    failed = sum(item.failed_rounds for item in runs)
    units = {spec["name"]: spec["unit"] for spec in specs}
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
        "details": details,
        "failures": failures,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"host {json.dumps(host)}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g}  {units.get(name, '(report only)')}")
    print(f"details {json.dumps(details)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    values = {spec["name"]: metrics.get(spec["name"], math.nan) for spec in specs}
    correct = not failures and all(math.isfinite(value) for value in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {
            "value": values[spec["name"]] if math.isfinite(values[spec["name"]]) else None,
            "unit": spec["unit"],
        } for spec in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
