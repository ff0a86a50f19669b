"""Span tracing from outside the program, for the benchmark's traced runs.

:meth:`Tracer.install` wraps the public functions at each layer boundary of
``repro`` (see :data:`LAYER_CALLS`) so that every call records a span: its
name, start, end, parent span and round id.  Spans stay in memory until the
run ends.  :meth:`Tracer.uninstall` restores the original functions, so an
untraced run executes none of this code.

Only calls made in the tracing process are recorded.  Child processes of
the process executor inherit the wrappers when they fork, but the wrappers
call straight through there: their compute shows up in the parent as the
time it waits for them.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: nn layer classes whose ``forward``/``backward`` are traced.
NN_LAYERS = ("Conv2d", "Conv1d", "Linear", "MaxPool2d", "MaxPool1d", "ReLU")

#: ``(module, owner, methods, span prefix)`` for every traced layer call.
#: ``owner`` is a class in ``module``, or ``None`` for module functions.  A
#: method is wrapped on each listed class that defines it itself, so an
#: inherited method is never wrapped twice.
LAYER_CALLS = (
    ("repro.api.session", None, ("build_components", "build_algorithm"), "api"),
    ("repro.core.controller", "ControlModule", ("plan_round",), "core.controller"),
    # The controller calls fine-tuning through its own module's name.
    ("repro.core.controller", None, ("finetune_batch_sizes",), "core.regulation"),
    ("repro.selection.solvers", "*SelectionSolver", ("solve",), "selection"),
    ("repro.population.pool", "*WorkerPool", ("checkout", "release"), "population"),
    ("repro.parallel.base", "*Executor", (
        "install", "forward", "backward_step", "bottom_states", "train_full",
        "stage_forward", "launch_forward", "collect_forward",
        "fused_backward_forward", "backward_step_nowait",
    ), "parallel"),
    ("repro.core.server", "SplitServer",
     ("update_top_merged", "aggregate_bottoms", "evaluate"), "core.server"),
)

#: Span names whose prefix is not their layer's name.
RENAMED = {"core.regulation.finetune_batch_sizes": "core.regulation.finetune"}


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _owners(module, owner: str | None) -> list:
    """The objects whose attributes get wrapped for one LAYER_CALLS row.

    ``"*Base"`` means the class ``Base`` and every loaded subclass of it.
    """
    if owner is None:
        return [module]
    if owner.startswith("*"):
        # Subclasses are registered by importing their modules.
        import repro.parallel  # noqa: F401  (registers every executor)

        return _subclasses(getattr(module, owner[1:]))
    return [getattr(module, owner)]


def layer_of(name: str) -> str:
    """The layer (``repro`` module path) a span name belongs to."""
    if name.startswith("nn."):
        return "nn"
    if name in ("core.engine", "baselines.fl_engine"):
        return name
    return name.rsplit(".", 1)[0]


def component_of(name: str) -> str:
    """A span name without its ``forward``/``backward`` direction."""
    if name.startswith("nn."):
        return name.rsplit(".", 1)[0]
    return name


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``[name, start, end, parent index or -1, round id or None]``.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.round_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span as a child of the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, amount: float) -> None:
        """Add to a counter; only work inside a round counts."""
        if self.round_id is not None:
            self.counters[name] += amount

    # -- instrumentation -----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``after(args, result)`` runs after a successful traced call and may
        update counters.
        """
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__qualname__ = getattr(original, "__qualname__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer call of :data:`LAYER_CALLS` and the nn layers."""
        import importlib

        from repro.nn import layers

        for module_name, owner_name, methods, prefix in LAYER_CALLS:
            module = importlib.import_module(module_name)
            for owner in _owners(module, owner_name):
                for method in methods:
                    if method in vars(owner):
                        name = f"{prefix}.{method}"
                        self.wrap(owner, method, RENAMED.get(name, name))
        for layer in NN_LAYERS:
            cls = getattr(layers, layer)
            after_forward = after_backward = None
            if layer == "Conv2d":
                after_forward, after_backward = self._conv2d_flops()
            self.wrap(cls, "forward", f"nn.{layer}.forward", after_forward)
            self.wrap(cls, "backward", f"nn.{layer}.backward", after_backward)

    def _conv2d_flops(self):
        """Counters of Conv2d floating-point operations, from shapes."""

        def macs_per_output(conv) -> int:
            kernel_h, kernel_w = conv.kernel_size
            return conv.in_channels * kernel_h * kernel_w

        def after_forward(args, output) -> None:
            # One multiply-add per kernel tap per output element.
            self.count("nn.Conv2d.flop", 2.0 * output.size * macs_per_output(args[0]))

        def after_backward(args, _grad_input) -> None:
            # The input gradient and the weight gradient each cost a forward.
            grad_output = args[1]
            self.count("nn.Conv2d.flop", 4.0 * grad_output.size * macs_per_output(args[0]))

        return after_forward, after_backward

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def _durations(self) -> list[float]:
        return [span[2] - span[1] for span in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread and nest, so the children of a span are
        disjoint and their durations simply add up.
        """
        durations = self._durations()
        own = list(durations)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= durations[index]
        return own

    def totals(self, only_rounds: bool = True) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``busy_s``.

        ``busy_s`` is the wall-clock inside the name's outermost spans, so a
        call nested in a call of the same name is not counted twice.
        """
        durations = self._durations()
        own = self.self_times()
        result: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "busy_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            if only_rounds and span[4] is None:
                continue
            entry = result[span[0]]
            entry["calls"] += 1
            entry["self_s"] += own[index]
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != span[0]:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["busy_s"] += durations[index]
        return dict(result)

    def self_time_table(self) -> dict[str, float]:
        """Round-span self time per layer; sums to the rounds' wall-clock."""
        table: dict[str, float] = defaultdict(float)
        for name, entry in self.totals().items():
            table[layer_of(name)] += entry["self_s"]
        return dict(sorted(table.items(), key=lambda item: -item[1]))

    def ranked_components(self) -> list[tuple[str, float]]:
        """Round-span self time per component, largest first."""
        ranked: dict[str, float] = defaultdict(float)
        for name, entry in self.totals().items():
            ranked[component_of(name)] += entry["self_s"]
        return sorted(ranked.items(), key=lambda item: -item[1])

    def write_chrome_trace(self, path: Path) -> None:
        """Export the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": self.pid,
                "tid": 1,
                "args": {"span": index, "parent": parent, "round": round_id},
            }
            for index, (name, start, end, parent, round_id) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
