import json
import re
import shutil
import subprocess
import sys

from perfbench import spec
from perfbench.workloads import WORKLOADS

from .conftest import ROOT

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_spec_and_workloads():
    doc = _benchmark()
    e2e, layers = spec.benchmark_entries()
    assert doc["end_to_end"] == e2e
    assert doc["per_layer"] == layers
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS]
    assert doc["command"] == ["python3", "perfbench/run.py"]


def test_names_units_and_bounds_follow_the_format():
    doc = _benchmark()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for w in doc["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_every_per_layer_metric_names_what_it_should_move():
    e2e = {n for (n, *_) in spec.END_TO_END}
    for name, (moves, on) in spec.MOVES.items():
        assert on, name
        assert (moves.split()[0] in e2e or moves in spec.MOVES
                or moves.startswith(("none", "bounds"))), name


def test_run_prints_the_result_as_its_last_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bp1-sweep",
         "--seed", "4", "--seconds", "0", "--trace", "0",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert {n: m["unit"] for n, m in res["metrics"].items()} == \
        spec.units(False)
    assert (tmp_path / "bp1-sweep.trace0.json").exists()


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bp3-p7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
