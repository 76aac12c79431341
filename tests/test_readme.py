"""The README's "Tolerances" table lists every threshold constant, and each
name it lists exists."""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUFFIXES = ("_TOL", "_RTOL", "_MARGIN", "_FLOOR")


def _table_names():
    """The `module.NAME` entries of the first column of the Tolerances table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows
    return {name for row in rows
            for name in re.findall(r"`(\w+\.\w+)`", row.split("|")[1])}


def _threshold_constants():
    """Public module-level names of src/routhsim ending in a threshold suffix."""
    found = set()
    for path in sorted((ROOT / "src" / "routhsim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if (isinstance(target, ast.Name) and target.id.endswith(SUFFIXES)
                        and not target.id.startswith("_")):
                    found.add(f"{path.stem}.{target.id}")
    return found


def test_every_listed_constant_exists():
    missing = []
    for name in sorted(_table_names()):
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"routhsim.{module}"), attr):
            missing.append(name)
    assert missing == []


def test_every_threshold_constant_is_listed():
    assert sorted(_threshold_constants() - _table_names()) == []
