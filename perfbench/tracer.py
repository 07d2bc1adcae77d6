"""Outside-in tracing of the qlocker layers.

A :class:`Tracer` wraps the public functions of each layer module, every
copy of those names that other ``qlocker`` modules imported (for example
``qlocker.locker.apply_gate`` or ``qlocker.cli.run_verification``), and a
few class members (``RandomStream`` draws and sub-streams, ``GateOp`` and
``StateVector`` construction, ``GateOp.base_matrix``).  Nothing in the
package is edited: :meth:`Tracer.installed` puts every binding back when it
exits, also on error.

Every wrapped call is aggregated in memory as ``[calls, busy_s, self_s]``,
where ``self_s`` is ``busy_s`` minus the time spent in wrapped child calls.
Reports, and calls into a layer made directly from a report or from the
``cli`` layer, are also kept as spans (name, start, end, parent span,
report id), except the leaf calls in :data:`LEAVES`, which are only
aggregated because there are millions of them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("rng", "gates", "statevector", "verification", "teleport",
          "locker", "tomography", "cli")

# (layer, class, attribute, key) of the class members that are wrapped
CLASS_MEMBERS = (
    ("rng", "RandomStream", "substream", "rng.substream"),
    ("rng", "RandomStream", "random", "rng.random"),
    ("rng", "RandomStream", "randoms", "rng.randoms"),
    ("rng", "RandomStream", "uniform", "rng.uniform"),
    ("gates", "GateOp", "__init__", "gates.GateOp"),
    ("gates", "GateOp", "base_matrix", "gates.base_matrix"),
    ("statevector", "StateVector", "__init__", "statevector.StateVector"),
)

LEAVES = frozenset({
    "statevector.apply_gate", "statevector.measure_qubit",
    "statevector.combine", "statevector.new_state", "statevector.StateVector",
    "rng.substream", "rng.random", "rng.randoms", "rng.uniform",
    "gates.GateOp", "gates.base_matrix",
})

# widths the workloads use today; any other width is counted in calls_w_other
WIDTHS = (1, 2, 3, 8, 18)

TOMOGRAPHY_FUNCTIONS = ("stokes_from_counts", "reconstruct_density",
                        "theoretical_ancilla_density", "fidelity")
CLI_COMMANDS = ("cmd_verify_demo", "cmd_converge", "cmd_locker_demo",
                "cmd_sweep")

# counters that must repeat exactly across runs of the same seed
DETERMINISTIC_COUNTERS = ("rng.draws", "verification.steps",
                          "verification.clicks", "statevector.apply_gate.amps")


def _count_draws(tracer, args, kwargs, result):
    size = getattr(result, "size", 1)
    tracer.counts["rng.draws"] += int(size)


def _count_gate(tracer, args, kwargs, result):
    n = result.n_qubits
    tracer.counts["statevector.apply_gate.amps"] += 1 << n
    tracer.widths[n] += 1


def _count_register(tracer, args, kwargs, result):
    tracer.peak_qubits = max(tracer.peak_qubits, args[0].n_qubits)


def _count_trajectories(tracer, trajectories):
    for traj in trajectories:
        tracer.counts["verification.runs"] += 1
        tracer.counts["verification.accepted"] += bool(traj.accepted)
        tracer.counts["verification.steps"] += len(traj.ancilla_outcomes)
        tracer.counts["verification.clicks"] += sum(traj.ancilla_outcomes)


def _count_run(tracer, args, kwargs, result):
    _count_trajectories(tracer, (result,))


def _count_sampled_runs(tracer, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    tracer.counts["verification.runs"] += int(result.size)
    tracer.counts["verification.accepted"] += int(result.sum())
    tracer.counts["verification.steps"] += int(result.size) * params.iterations


def _count_unlock(tracer, args, kwargs, result):
    _count_trajectories(tracer, result.trajectories)
    # cmd_locker_demo presents the correct password first in each report;
    # every later attempt in the same report is a wrong password
    if tracer.report in tracer.unlocked_reports:
        tracer.counts["locker.wrong_attempts"] += 1
        tracer.counts["locker.wrong_accepts"] += bool(result.accepted)
    tracer.unlocked_reports.add(tracer.report)


OBSERVERS = {
    "rng.random": _count_draws,
    "rng.randoms": _count_draws,
    "rng.uniform": _count_draws,
    "statevector.apply_gate": _count_gate,
    "statevector.StateVector": _count_register,
    "verification.run_verification": _count_run,
    "verification.sample_acceptance_runs": _count_sampled_runs,
    "locker.attempt_unlock": _count_unlock,
}


def layer_modules() -> dict:
    """``{layer: module}`` for the eight qlocker layer modules."""
    import importlib
    return {layer: importlib.import_module(f"qlocker.{layer}")
            for layer in LAYERS}


def _holders() -> list:
    """Every loaded qlocker module, the package namespace included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "qlocker" or name.startswith("qlocker.")]


def public_functions(module) -> dict:
    """Module-level public functions defined in ``module`` itself."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Call counts, inclusive and self time, spans and counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.widths: Counter = Counter()
        self.peak_qubits = 0
        self.spans: list[list] = []
        self.report = None
        self.unlocked_reports: set = set()
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, key: str, fn, observe=None):
        """A wrapper of ``fn`` that records its calls under ``key``.

        The wrapper returns exactly what ``fn`` returns and raises what it
        raises; ``observe(tracer, args, kwargs, result)`` runs after a call
        that returned.
        """
        layer = key.split(".", 1)[0]
        spanned = key not in LEAVES
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent else None
            span = None
            if spanned and (parent is None or parent[1] in ("cli", "report")):
                span = [key, 0.0, 0.0, span_id, self.report]
                span_id = len(spans)
                spans.append(span)
            frame = [0.0, layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span is not None:
                    span[1], span[2] = start, end
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap every layer function, its imported copies and CLASS_MEMBERS."""
        holders = _holders()
        for layer, module in modules.items():
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                wrapper = self.wrap(key, fn, OBSERVERS.get(key))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        for layer, cls_name, attr, key in CLASS_MEMBERS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr,
                        self.wrap(key, vars(cls)[attr], OBSERVERS.get(key)))

    def uninstall(self) -> None:
        """Put back every binding :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, modules: dict):
        try:
            self.install(modules)
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def report_span(self, report_id: str):
        """Span of one whole report; calls inside carry ``report_id``."""
        span = ["report", 0.0, 0.0, None, report_id]
        self.spans.append(span)
        self.report = report_id
        self._stack.append([0.0, "report", len(self.spans) - 1])
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.report = None

    # -- results ------------------------------------------------------------

    def stat(self, key: str) -> tuple[int, float, float]:
        calls, busy, self_s = self.stats.get(key, (0, 0.0, 0.0))
        return calls, busy, self_s

    def deterministic_counts(self) -> dict:
        """Counters that depend only on the inputs, never on timing."""
        out = {f"{key}.calls": calls for key, (calls, _, _) in self.stats.items()}
        out.update({name: self.counts[name] for name in DETERMINISTIC_COUNTERS})
        out.update({f"statevector.apply_gate.width{n}": c
                    for n, c in self.widths.items()})
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json: ``{name: (value, unit)}``."""
        m: dict[str, tuple] = {}

        def timed(key, *fields):
            calls, busy, self_s = self.stat(key)
            values = {"calls": (calls, "count"), "busy_s": (busy, "s"),
                      "self_s": (self_s, "s")}
            for f in fields:
                m[f"{key}.{f}"] = values[f]

        def ratio(part, base):
            return (part / base if base else 0.0), "ratio"

        timed("rng.substream", "calls", "busy_s")
        m["rng.draws"] = (self.counts["rng.draws"], "count")

        timed("gates.GateOp", "calls", "busy_s")
        timed("gates.base_matrix", "calls", "busy_s")

        timed("statevector.apply_gate", "calls", "busy_s", "self_s")
        m["statevector.apply_gate.amps"] = (
            self.counts["statevector.apply_gate.amps"], "amps_computed")
        for n in WIDTHS:
            m[f"statevector.apply_gate.calls_w{n}"] = (self.widths[n], "count")
        other = sum(c for n, c in self.widths.items() if n not in WIDTHS)
        m["statevector.apply_gate.calls_w_other"] = (other, "count")
        timed("statevector.measure_qubit", "calls", "busy_s", "self_s")
        timed("statevector.combine", "calls", "busy_s")
        timed("statevector.new_state", "calls")
        timed("statevector.StateVector", "calls")
        timed("statevector.sample_shots", "self_s")
        m["statevector.peak_qubits"] = (self.peak_qubits, "qubits")

        timed("verification.run_verification", "calls", "busy_s", "self_s")
        m["verification.steps"] = (self.counts["verification.steps"], "count")
        m["verification.clicks"] = (self.counts["verification.clicks"], "count")
        timed("verification.sample_acceptance_runs", "calls", "busy_s")
        runs = self.counts["verification.runs"]
        m["verification.runs"] = (runs, "count")
        m["verification.accept_ratio"] = ratio(
            self.counts["verification.accepted"], runs)

        timed("teleport.teleport", "calls", "busy_s")
        timed("teleport.open_channel", "calls", "busy_s")

        timed("locker.attempt_unlock", "calls", "busy_s", "self_s")
        timed("locker.generate_otp", "busy_s")
        timed("locker.apply_inverse_rotation", "busy_s")
        wrong = self.counts["locker.wrong_attempts"]
        m["locker.wrong_attempts"] = (wrong, "count")
        m["locker.accept_ratio"] = ratio(self.counts["locker.wrong_accepts"],
                                         wrong)

        m["tomography.busy_s"] = (
            sum(self.stat(f"tomography.{f}")[1] for f in TOMOGRAPHY_FUNCTIONS),
            "s")

        m["cli.cmd.self_s"] = (
            sum(self.stat(f"cli.{c}")[2] for c in CLI_COMMANDS), "s")
        timed("cli.emit", "busy_s")
        return m

    def span_records(self) -> list[dict]:
        """Spans as dicts, times in seconds from the first span's start."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        return [{"id": i, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "report": report}
                for i, (name, start, end, parent, report)
                in enumerate(self.spans)]
