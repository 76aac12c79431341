"""The library runs without importing scipy, and imports nothing it does not use."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs the CLI on the poincare scenario (flow, section watch, Brent
# refinement, linearization) and on the zero-dynamics scenario (the
# invariance check's Brent), then reconstructs the attitude of a SLIP run,
# and prints every scipy module loaded by then, lazily or not.
SCRIPT = """
import json, sys, tempfile
import routhsim as rs
from routhsim import cli

for task, name in (("poincare", "slip_poincare"),
                   ("zero_dynamics", "controlled_zero_dynamics")):
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([task, "--scenario", f"scenarios/{name}.yaml",
                         "--out", out, "--quiet"])
    assert code == 0, (name, code)
params = rs.SlipParams(kappa=50.0, l0=1.0, mu=0.5)
traj = rs.run_hybrid(rs.slip_hybrid_spec(params), [0.8, 0.0, 0.0, 0.5], 0.0, 2.5)
assert traj.impacts
mus = rs.momentum_sequence(params.mu, traj.impacts, rs.slip_momentum_transition)
rs.reconstruct_cyclic(rs.slip_routhian(params), traj, 0.0, mus=mus)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_scipy_module_is_loaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_import_loads_no_numpy_polynomial():
    # The crossing scan's matrices are built at import from math.comb and
    # numpy.linalg; numpy.polynomial is loaded only when a fit is rooted.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    script = ("import json, sys, routhsim; print(json.dumps(sorted(m for m in "
              "sys.modules if m.startswith('numpy.polynomial'))))")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_import_adds_only_its_own_modules():
    # `import routhsim` after its dependencies: everything it loads beyond
    # them is timed as the benchmark's set-up, so no import-time module
    # comes in unnoticed.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    script = ("import json, sys, numpy, yaml; before = set(sys.modules); "
              "import routhsim; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    package = ("_dop853", "_fd", "certified", "control", "hybrid", "models",
               "poincare", "routh", "scenario", "symmetry")
    assert json.loads(result.stdout.splitlines()[-1]) == sorted(
        ["__future__", "copy", "dataclasses", "routhsim",
         *(f"routhsim.{name}" for name in package)])


def _unused_imports(path):
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports_in_src():
    modules = sorted(p for p in (ROOT / "src" / "routhsim").glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
