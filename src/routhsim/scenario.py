"""Scenario documents: strict parsing, task execution, and report emission.

A scenario is a small YAML document naming a bundled model, a task, and
numeric settings. Parsing is strict: unknown keys anywhere are rejected so a
typo cannot silently fall back to a default. `run` executes the task and
writes a trajectory CSV plus a YAML report that echoes the fully defaulted
scenario (re-running the echo reproduces the run).
"""
from __future__ import annotations

import dataclasses
import io
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import certified, control, models, poincare, symmetry
from .hybrid import DEFAULT_TOL, EVENT_TOL, HybridSystemSpec, run_hybrid
from .routh import routh_vector_field, routhian_eval

_PARAM_KEYS = {
    "pendulum": ("m", "k", "mu"),
    "slip": ("m", "inertia", "g", "l0", "kappa", "mu", "phi0"),
    "controlled_slip": ("m", "inertia", "g", "l0", "kappa", "mu", "c0", "c2"),
}
_STATE_NAMES = {
    "pendulum": ("r", "rdot"),
    "slip": ("xi", "phi", "xidot", "phidot"),
    "controlled_slip": ("xi", "phi", "xidot", "phidot"),
}
MODELS = tuple(_PARAM_KEYS)

FLOAT_FMT = "%.17g"

# libyaml's reader and writer where PyYAML was built with it, its pure-Python
# ones otherwise; the resolvers, constructors and representers are PyYAML's
# Python code either way, so both read and write the same documents.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ScenarioError(ValueError):
    """Invalid scenario document: unknown key, bad type, or bad value."""


@dataclass(frozen=True)
class Numerics:
    tol: float = DEFAULT_TOL
    event_tol: float = EVENT_TOL
    t_max: float = 10.0
    max_impacts: int = 10_000

    def __post_init__(self):
        for name in ("tol", "event_tol", "t_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ScenarioError(f"numerics.{name} must be positive and finite")
        if self.max_impacts < 1:
            raise ScenarioError("numerics.max_impacts must be >= 1")


@dataclass(frozen=True)
class Outputs:
    trajectory: str = "trajectory.csv"
    report: str = "report.yaml"
    stride: int = 1

    def __post_init__(self):
        # A plain file name, so that every output lands inside --out.
        for name in ("trajectory", "report"):
            value = getattr(self, name)
            if (not value or value in (".", "..") or os.path.isabs(value)
                    or any(c and c in value for c in ("\0", "/", os.sep, os.altsep))):
                raise ScenarioError(f"outputs.{name} must be a plain file name, "
                                    f"got {value!r}")
        if self.stride < 1:
            raise ScenarioError("outputs.stride must be >= 1")


@dataclass(frozen=True)
class Scenario:
    model: str
    task: str
    params: dict = field(default_factory=dict)
    seed: Optional[tuple] = None
    numerics: Numerics = Numerics()
    outputs: Outputs = Outputs()
    # The model's parameter dataclasses, built from params: PendulumParams,
    # SlipParams, or (SlipParams, ConstraintCoefficients) for controlled_slip.
    model_params: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The one validation site of parsing, direct construction and
        # --seed-override; params and seed are stored cast to floats, and
        # a parameter out of its model's range is a ScenarioError.
        if self.model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.task not in TASKS:
            raise ScenarioError(f"task must be one of {TASKS}, got {self.task!r}")
        context = f"params ({self.model})"
        if not isinstance(self.params, dict):
            raise ScenarioError(f"{context} must be a mapping")
        _check_mapping(self.params, _PARAM_KEYS[self.model], context)
        params = {key: _number(float, value, f"params.{key}")
                  for key, value in self.params.items()}
        for key, value in params.items():
            if not math.isfinite(value):
                raise ScenarioError(f"params.{key} must be finite")
        object.__setattr__(self, "params", params)
        try:
            object.__setattr__(self, "model_params",
                               _model_params(self.model, params))
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
        if self.seed is not None:
            if not isinstance(self.seed, (list, tuple)):
                raise ScenarioError("seed must be a list of numbers")
            seed = tuple(_number(float, v, f"seed[{i}]")
                         for i, v in enumerate(self.seed))
            names = _STATE_NAMES[self.model]
            if len(seed) != len(names):
                raise ScenarioError(
                    f"seed must have {len(names)} entries ({', '.join(names)}) "
                    f"for the {self.model} model, got {len(seed)}")
            if not all(map(math.isfinite, seed)):
                raise ScenarioError("seed must be finite")
            object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class RunReport:
    scenario: dict
    task: str
    results: dict
    checks: list          # dicts: name, passed, residual, tolerance
    impact_times: list
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def as_dict(self) -> dict:
        """The payload of report.yaml and of the CLI's --json output."""
        return {"scenario": self.scenario, "task": self.task,
                "results": self.results, "checks": self.checks,
                "impact_times": self.impact_times,
                "wall_seconds": self.wall_seconds,
                "passed": self.passed}


def _check_mapping(node, allowed, context) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioError(f"{context} must be a mapping")
    for key in node:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{key}' in {context}")
    return node


def _number(kind, value, name):
    """`value` as a `kind` (float or int), cast only from a number: a bool or
    a string is rejected, and an int takes only an integral value."""
    if isinstance(value, (bool, str)) or not isinstance(value, numbers.Real):
        hint = ""
        if isinstance(value, str):
            # YAML 1.1 reads an exponent without a dot, such as 1e-10, as text.
            hint = " (write numbers unquoted, with a dot before any exponent: 1.0e-10)"
        raise ScenarioError(f"{name} must be a number, got {value!r}{hint}")
    if kind is int and not float(value).is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def _settings(cls, node, context):
    """`cls` built from a scenario mapping: its fields give the allowed keys,
    the casts and the defaults; an absent or null key keeps the default."""
    fields = dataclasses.fields(cls)
    node = _check_mapping(node, [f.name for f in fields], context)
    values = {}
    for f in fields:
        value, kind = node.get(f.name), type(f.default)
        if value is not None:
            values[f.name] = (str(value) if kind is str
                              else _number(kind, value, f"{context}.{f.name}"))
    return cls(**values)


def parse_scenario(text) -> Scenario:
    """Parse a YAML scenario document (or an already-loaded mapping)."""
    doc = text
    if isinstance(text, (str, bytes, io.IOBase)):
        try:
            doc = yaml.load(text, Loader=_LOADER)
        except (ValueError, IndexError) as exc:
            # A value its explicit tag cannot take: `!!int x`, a bare `!!float`.
            raise ScenarioError(f"scenario value cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a mapping")
    _check_mapping(doc, ("model", "task", "params", "seed", "numerics", "outputs"),
                   "scenario")

    # An absent or null parameter keeps its default; Scenario checks the rest.
    params = doc.get("params")
    if params is None:
        params = {}
    elif isinstance(params, dict):
        params = {key: value for key, value in params.items() if value is not None}

    return Scenario(model=doc.get("model"), task=doc.get("task"),
                    params=params, seed=doc.get("seed"),
                    numerics=_settings(Numerics, doc.get("numerics"), "numerics"),
                    outputs=_settings(Outputs, doc.get("outputs"), "outputs"))


def scenario_to_dict(sc: Scenario) -> dict:
    """Round-trippable echo with all defaults made explicit."""
    return {
        "model": sc.model,
        "task": sc.task,
        "params": {k: float(v) for k, v in sorted(sc.params.items())},
        "seed": None if sc.seed is None else [float(v) for v in sc.seed],
        "numerics": dataclasses.asdict(sc.numerics),
        "outputs": dataclasses.asdict(sc.outputs),
    }


def _model_params(model: str, params: dict):
    """The model's parameter dataclasses, the given parameters laid over the
    certified tuples; each dataclass raises ValueError on a value out of
    range, as does the controlled model on a mass other than 1."""
    if model == "pendulum":
        return models.PendulumParams(**params)
    if model == "slip":
        return dataclasses.replace(certified.CERTIFIED_SLIP.params, **params)
    cert = certified.CERTIFIED_CONTROLLED
    coeffs = models.ConstraintCoefficients(params.get("c0", cert.c0),
                                           params.get("c2", cert.c2))
    slip = dataclasses.replace(cert.params, **{
        k: v for k, v in params.items() if k not in ("c0", "c2")})
    models.controlled_slip_system(slip, coeffs)
    return slip, coeffs


def _default_seed(sc: Scenario) -> np.ndarray:
    if sc.seed is not None:
        return np.asarray(sc.seed, dtype=float)
    if sc.model == "pendulum":
        return np.array([1.2, 0.0])
    if sc.model == "slip":
        return certified.CERTIFIED_SLIP.seed
    return certified.CERTIFIED_CONTROLLED.seed


def _spec(sc: Scenario) -> HybridSystemSpec:
    """The model's hybrid system with the scenario's event settings.

    The pendulum has no impacts: its guard is the constant -1, declared
    affine with a zero gradient so that the flow calls it once, and its
    reset is the identity.
    """
    if sc.model == "pendulum":
        sys = models.pendulum_routhian(sc.model_params)
        spec = HybridSystemSpec(vector_field=routh_vector_field(sys),
                                guard=lambda s: -1.0, reset=lambda s: s,
                                guard_gradient=np.zeros(2))
    elif sc.model == "slip":
        spec = models.slip_hybrid_spec(sc.model_params)
    else:
        spec = models.closed_loop_slip_spec(*sc.model_params)
    return dataclasses.replace(spec, max_impacts=sc.numerics.max_impacts,
                               event_tol=sc.numerics.event_tol)


def _orbit(sc: Scenario):
    """The symmetric periodic orbit from the scenario's seed."""
    num, sym, seed = sc.numerics, models.slip_symmetry(), _default_seed(sc)
    if sc.model == "slip":
        return symmetry.construct_periodic_orbit(_spec(sc), sym, seed,
                                                 num.t_max, tol=num.tol)
    if sc.model == "controlled_slip":
        manifold = models.quadratic_constraint(sc.model_params[1])
        return control.periodic_orbit_on_manifold(_spec(sc), sym, manifold,
                                                  seed, num.t_max, tol=num.tol)
    raise ScenarioError(f"{sc.task} requires the slip or controlled_slip model")


def write_trajectory_csv(path, names, segments, stride: int = 1):
    """One row per retained sample; segment index marks the smooth arc.

    Each row is one `%` of a format built once per file, on Python floats:
    FLOAT_FMT gives a float64 and its float the same text.
    """
    row = ",".join([FLOAT_FMT] * (len(names) + 1)) + ",%d\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(names) + ",segment\n")
        for idx, seg in enumerate(segments):
            keep = list(range(0, len(seg.t), stride))
            if keep[-1] != len(seg.t) - 1:
                keep.append(len(seg.t) - 1)
            fh.writelines(row % (t, *y, idx) for t, y in
                          zip(seg.t[keep].tolist(), seg.y[keep].tolist()))


def _plain(value):
    """Recursively convert numpy scalars/arrays for YAML emission."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    return value


def _check(name, residual, tolerance) -> dict:
    return {"name": name, "passed": bool(residual <= tolerance),
            "residual": float(residual), "tolerance": float(tolerance)}


# Each task returns (results, checks, trajectory or None); `run` builds the
# report's impact times and the trajectory CSV from that trajectory.

def _task_simulate(sc: Scenario):
    traj = run_hybrid(_spec(sc), _default_seed(sc), 0.0, sc.numerics.t_max,
                      tol=sc.numerics.tol)
    return ({"impact_count": len(traj.impacts),
             "final_state": traj.segments[-1].y[-1]}, [], traj)


def _task_periodic_orbit(sc: Scenario):
    orbit = _orbit(sc)
    results = {"seed": orbit.seed, "half_period": orbit.half_period,
               "closure_residual": orbit.closure_residual,
               "time_symmetry_residual": orbit.time_symmetry_residual}
    checks = [_check("closure", orbit.closure_residual, symmetry.CLOSURE_TOL),
              _check("time_symmetry", orbit.time_symmetry_residual,
                     symmetry.CLOSURE_TOL)]
    return results, checks, orbit.trajectory


def _task_poincare(sc: Scenario):
    if sc.model != "slip":
        raise ScenarioError("poincare requires the slip model")
    orbit = _orbit(sc)
    impact = orbit.trajectory.impacts[0].pre_state

    # Stability model: touchdown angle pinned at the certified impact angle,
    # which is the convention in which the reset loses rank.
    pinned_spec = _spec(dataclasses.replace(
        sc, params={**sc.params, "phi0": abs(float(impact[1]))}))
    section = models.slip_section(_default_seed(sc))
    jac = poincare.jacobian(pinned_spec, section, t_max=sc.numerics.t_max,
                            tol=sc.numerics.tol)
    beta = poincare.numerical_rank(poincare.reset_jacobian(pinned_spec, impact))
    report = poincare.stability_report(jac, r=2, beta=beta, n_minus_1=3)
    eigs = [{"re": v.real, "im": v.imag, "modulus": abs(v)}
            for v in report.eigenvalues]
    results = {"half_period": orbit.half_period,
               "jacobian": report.jacobian,
               "eigenvalues": eigs,
               "lambda0_count": report.lambda0_count,
               "lambda1_count": report.lambda1_count,
               "lambda0_bound_ok": report.lambda0_bound_ok,
               "lambda1_bound_ok": report.lambda1_bound_ok,
               "reset_rank": beta,
               "classification": report.classification}
    return results, [], orbit.trajectory


def _task_zero_dynamics(sc: Scenario):
    if sc.model != "controlled_slip":
        raise ScenarioError("zero_dynamics requires the controlled_slip model")
    params, coeffs = sc.model_params
    manifold = models.quadratic_constraint(coeffs)
    orbit = _orbit(sc)

    rng = np.random.default_rng(0)
    evenness = max(abs(models.feedback_u_star(manifold, params, phi, pd)
                       - models.feedback_u_star(manifold, params, -phi, pd))
                   for phi, pd in rng.uniform([-1.2, -3.0], [1.2, 3.0],
                                              size=(100, 2)))
    invariant, witness = control.hybrid_invariance_check(
        manifold, models.slip_guard(params), models.slip_reset(params))
    on_manifold = max(abs(manifold.residuals(y)[0])
                      for seg in orbit.trajectory.segments for y in seg.y)
    results = {"half_period": orbit.half_period,
               "closure_residual": orbit.closure_residual,
               "u_star_evenness_residual": evenness,
               "on_manifold_residual": on_manifold,
               "hybrid_invariant": bool(invariant),
               "invariance_witness": witness}
    checks = [_check("u_star_evenness", evenness, control.U_STAR_EVENNESS_TOL),
              _check("on_manifold", on_manifold, control.ON_MANIFOLD_TOL),
              _check("closure", orbit.closure_residual, symmetry.CLOSURE_TOL),
              {"name": "hybrid_invariance", "passed": bool(invariant),
               "residual": 0.0 if invariant else float("nan"),
               "tolerance": control.INVARIANCE_TOL}]
    return results, checks, orbit.trajectory


def _task_check_suite(sc: Scenario):
    if sc.model not in ("slip", "pendulum"):
        raise ScenarioError("check_suite requires the slip or pendulum model")
    if sc.model == "slip":
        sys = models.slip_routhian(sc.model_params)
        sym = models.slip_symmetry()
        lo, hi = [0.5, -1.3, -2.0, -3.0], [1.5, 1.3, 2.0, 3.0]
    else:
        sys = models.pendulum_routhian(sc.model_params)
        sym = models.pendulum_symmetry()
        lo, hi = [0.5, -2.0], [2.0, 2.0]
    f = routh_vector_field(sys)
    d = sys.base.shape_dim
    # The residuals of symmetry.involution_residual and reversibility_residual
    # and the Routhian's, on the stack of draws and its stack of images; the
    # field is called once per state.
    s = np.random.default_rng(0).uniform(lo, hi, size=(1000, 2 * d))
    img = sym.phi(s)
    inv = float(np.max(np.abs(sym.phi(img) - s)))
    field_s = np.array([f(row) for row in s])
    field_img = np.array([f(row) for row in img])
    defect = field_img + (sym.dphi(s) @ field_s[:, :, None])[:, :, 0]
    rev = float(np.max(np.abs(defect)))
    routh = float(np.max(np.abs(routhian_eval(sys, img[:, :d], img[:, d:])
                                - routhian_eval(sys, s[:, :d], s[:, d:]))))
    checks = [_check("involution", inv, symmetry.INVOLUTION_TOL),
              _check("reversibility", rev, symmetry.REVERSIBILITY_TOL),
              _check("routhian_invariance", routh,
                     symmetry.ROUTHIAN_INVARIANCE_TOL)]
    results = {"samples": len(s), "involution_residual": inv,
               "reversibility_residual": rev,
               "routhian_invariance_residual": routh}
    return results, checks, None


_TASKS = {
    "simulate": _task_simulate,
    "periodic_orbit": _task_periodic_orbit,
    "poincare": _task_poincare,
    "zero_dynamics": _task_zero_dynamics,
    "check_suite": _task_check_suite,
}
TASKS = tuple(_TASKS)


def run(sc: Scenario, out_dir=".") -> RunReport:
    """Execute the scenario's task and write the trajectory and report files."""
    import os

    started = time.perf_counter()
    results, checks, traj = _TASKS[sc.task](sc)
    wall = time.perf_counter() - started

    os.makedirs(out_dir, exist_ok=True)
    if traj is not None:
        write_trajectory_csv(os.path.join(out_dir, sc.outputs.trajectory),
                             _STATE_NAMES[sc.model], traj.segments,
                             stride=sc.outputs.stride)
    report = RunReport(scenario=scenario_to_dict(sc), task=sc.task,
                       results=_plain(results), checks=_plain(checks),
                       impact_times=[] if traj is None else
                       [float(ev.time) for ev in traj.impacts],
                       wall_seconds=float(wall))
    with open(os.path.join(out_dir, sc.outputs.report), "w", newline="\n") as fh:
        yaml.dump(report.as_dict(), fh, Dumper=_DUMPER, sort_keys=False)
    return report
