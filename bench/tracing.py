"""In-memory spans and call counters for the traced benchmark run.

Everything is measured from outside the library. Spans wrap the public
calls the benchmark makes; counters wrap the callables and objects the
benchmark passes in (the spec's vector field, guard and reset, the Poincare
section, the cyclic inertia). Nothing in `src/` is patched.

A span is one record with name, start, end, parent and op id. Calls into a
wrapped callable are not recorded one by one (a stability op makes ~48k
vector-field calls): each span keeps, per callable, the number of calls made
directly under it and the seconds they took. A layer's self time is its span
minus its child spans minus the `models.*` calls made under it.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import defaultdict

import routhsim as rs

_NULL = contextlib.nullcontext()

# Per-layer metrics, per op, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("models.rhs_calls", "count"),
    ("models.rhs_s", "s"),
    ("models.guard_calls", "count"),
    ("models.reset_calls", "count"),
    ("hybrid.run_hybrid_s", "s"),
    ("hybrid.self_s", "s"),
    ("hybrid.impacts", "count"),
    ("symmetry.orbit_s", "s"),
    ("symmetry.self_s", "s"),
    ("control.orbit_on_manifold_s", "s"),
    ("control.invariance_check_s", "s"),
    ("poincare.jacobian_s", "s"),
    ("poincare.self_s", "s"),
    ("poincare.section_offset_calls", "count"),
    ("poincare.spectrum_s", "s"),
    ("routh.reconstruct_s", "s"),
    ("routh.inertia_calls", "count"),
    ("scenario.parse_s", "s"),
    ("scenario.task_s", "s"),
    ("scenario.write_s", "s"),
    ("scenario.report_bytes", "B"),
    ("cli.main_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class NullTracer:
    """Untraced runs: no spans, and inputs pass through unwrapped."""

    def span(self, name):
        return _NULL

    def spec(self, spec):
        return spec

    def counted(self, name, fn):
        return fn

    def section(self, section):
        return section

    def mechanical(self, system):
        return system

    def note(self, name, value):
        pass


@dataclasses.dataclass(frozen=True)
class CountingSection(rs.PoincareSection):
    """A Poincare section that counts its offset evaluations."""

    tracer: object = None

    def offset(self, state) -> float:
        t0 = time.perf_counter()
        try:
            return super().offset(state)
        finally:
            self.tracer._record("poincare.section_offset", time.perf_counter() - t0)


class Tracer(NullTracer):
    def __init__(self):
        self.spans = []
        self.notes = defaultdict(float)
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "op": self.op, "calls": {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _record(self, name, seconds):
        # Calls outside every span come from the benchmark's own checks.
        if self._open:
            calls = self.spans[self._open[-1]]["calls"]
            entry = calls.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def counted(self, name, fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self._record(name, time.perf_counter() - t0)
        return wrapper

    def spec(self, spec):
        return dataclasses.replace(
            spec,
            vector_field=self.counted("models.rhs", spec.vector_field),
            guard=self.counted("models.guard", spec.guard),
            reset=self.counted("models.reset", spec.reset))

    def section(self, section):
        fields = {f.name: getattr(section, f.name)
                  for f in dataclasses.fields(rs.PoincareSection)}
        return CountingSection(**fields, tracer=self)

    def mechanical(self, system):
        return dataclasses.replace(
            system,
            inertia_cyclic=self.counted("routh.inertia", system.inertia_cyclic))

    def note(self, name, value):
        """An outcome the benchmark reads off a result (impacts, bytes)."""
        self.notes[name] += value

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "notes": dict(self.notes)}, fh)

    def layer_totals(self):
        """Summed durations, self times and call counts over all spans."""
        child_s = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        span_s = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        call_s = defaultdict(float)
        for i, rec in enumerate(self.spans):
            dur = rec["end"] - rec["start"]
            models_s = sum(s for name, (_, s) in rec["calls"].items()
                           if name.startswith("models."))
            span_s[rec["name"]] += dur
            self_s[rec["name"]] += dur - child_s[i] - models_s
            for name, (n, s) in rec["calls"].items():
                calls[name] += n
                call_s[name] += s
        return span_s, self_s, calls, call_s

    def per_layer(self, n_ops, untraced_s):
        """Per-op per-layer metrics; `untraced_s` times the same ops untraced."""
        span_s, self_s, calls, call_s = self.layer_totals()
        notes = self.notes
        total = {
            "models.rhs_calls": calls["models.rhs"],
            "models.rhs_s": call_s["models.rhs"],
            "models.guard_calls": calls["models.guard"],
            "models.reset_calls": calls["models.reset"],
            "hybrid.run_hybrid_s": span_s["hybrid.run_hybrid"],
            "hybrid.self_s": self_s["hybrid.run_hybrid"],
            "hybrid.impacts": notes["hybrid.impacts"],
            "symmetry.orbit_s": span_s["symmetry.orbit"],
            "symmetry.self_s": self_s["symmetry.orbit"],
            "control.orbit_on_manifold_s": span_s["control.orbit_on_manifold"],
            "control.invariance_check_s": span_s["control.invariance_check"],
            "poincare.jacobian_s": span_s["poincare.jacobian"],
            "poincare.self_s": (self_s["poincare.jacobian"]
                                + self_s["poincare.spectrum"]),
            "poincare.section_offset_calls": calls["poincare.section_offset"],
            "poincare.spectrum_s": span_s["poincare.spectrum"],
            "routh.reconstruct_s": span_s["routh.reconstruct"],
            "routh.inertia_calls": calls["routh.inertia"],
            "scenario.parse_s": span_s["scenario.parse"],
            "scenario.task_s": notes["scenario.task_s"],
            "scenario.write_s": span_s["scenario.run"] - notes["scenario.task_s"],
            "scenario.report_bytes": notes["scenario.report_bytes"],
            "cli.main_s": span_s["cli.main"],
        }
        out = {name: value / n_ops for name, value in total.items()}
        # Zero when every untraced op failed; the run then fails anyway.
        out["trace.overhead_ratio"] = span_s["op"] / untraced_s if untraced_s else 0.0
        return out
