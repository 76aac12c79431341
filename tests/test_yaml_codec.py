"""The scenario reader and report writer: libyaml's codec, where PyYAML has
it, reads and writes what PyYAML's pure-Python codec does."""
import io
from pathlib import Path

import pytest
import yaml

from routhsim import scenario
from routhsim.scenario import parse_scenario, run

pytestmark = pytest.mark.skipif(
    not yaml.__with_libyaml__,
    reason="PyYAML is built without libyaml: the pure-Python codec is the only one")

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                   .glob("*.yaml"))

# Output names that need quoting and escaping, one long enough to be
# folded, a long plain string, a multi-line string and the non-finite floats.
EDGE = {
    "names": ["traéj中.csv", "rép ort: #1.yaml", "report: #2 " + "word " * 30 + ".yaml",
              "x" * 200],
    "text": "line one\nline two\n",
    "floats": [float("nan"), float("inf"), -float("inf"), 1e-10, -0.0, 5e-324],
}


def pure_python_dump(doc):
    fh = io.StringIO()
    yaml.dump(doc, fh, Dumper=yaml.SafeDumper, sort_keys=False)
    return fh.getvalue()


def libyaml_dump(doc):
    fh = io.StringIO()
    yaml.dump(doc, fh, Dumper=yaml.CSafeDumper, sort_keys=False)
    return fh.getvalue()


def test_libyaml_is_used():
    assert scenario._LOADER is yaml.CSafeLoader
    assert scenario._DUMPER is yaml.CSafeDumper


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_committed_scenarios(path, tmp_path):
    data = path.read_bytes()
    assert (yaml.load(data, Loader=yaml.CSafeLoader)
            == yaml.load(data, Loader=yaml.SafeLoader)
            == yaml.load(data.decode(), Loader=yaml.CSafeLoader))
    report = run(parse_scenario(data), out_dir=tmp_path)
    written = (tmp_path / "report.yaml").read_text()
    assert written == pure_python_dump(report.as_dict())


def test_edge_document():
    text = pure_python_dump(EDGE)
    assert libyaml_dump(EDGE) == text
    a = yaml.load(text, Loader=yaml.SafeLoader)
    b = yaml.load(text, Loader=yaml.CSafeLoader)
    assert repr(a) == repr(b)   # repr: nan != nan
    assert a["names"] == EDGE["names"] and a["text"] == EDGE["text"]


def test_edge_output_names_in_report(tmp_path):
    doc = {"model": "pendulum", "task": "simulate", "numerics": {"t_max": 1.0},
           "outputs": {"trajectory": EDGE["names"][0], "report": EDGE["names"][2]}}
    report = run(parse_scenario(yaml.safe_dump(doc)), out_dir=tmp_path)
    assert (tmp_path / EDGE["names"][0]).exists()
    written = (tmp_path / EDGE["names"][2]).read_text()
    # The long name is folded over lines.
    assert max(map(len, written.splitlines())) < len(EDGE["names"][2])
    assert written == pure_python_dump(report.as_dict())


def test_long_escaped_string_reads_back_the_same():
    # The one known difference: a double-quoted string wider than the line
    # (here 30 escaped non-ASCII letters) is folded by the pure-Python writer
    # and kept on one line by libyaml. Both read back to the same string.
    doc = {"outputs": {"trajectory": "é" * 30 + ".csv"}}
    for text in (pure_python_dump(doc), libyaml_dump(doc)):
        assert yaml.load(text, Loader=yaml.SafeLoader) == doc
        assert yaml.load(text, Loader=yaml.CSafeLoader) == doc
