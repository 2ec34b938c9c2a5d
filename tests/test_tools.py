"""Smoke tests of the measuring scripts under tools/."""

import os
import subprocess
import sys
from pathlib import Path

from sembench import bakeoff

ROOT = Path(__file__).resolve().parents[1]


def run_tool(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(bakeoff.__file__).parents[1]))
    return subprocess.run([sys.executable, str(ROOT / "tools" / name),
                           *args], env=env, capture_output=True, text=True)


class TestSetupParts:
    def test_prints_every_part_with_ms_and_faults(self):
        proc = run_tool("setup_parts.py", "--bp", "3", "--p", "2", "--k",
                        "3", "--ranks", "2", "--builds", "4")
        assert proc.returncode == 0, proc.stderr
        head, columns, *rows = proc.stdout.strip().splitlines()
        assert head.startswith("bp3 p=2 k=3 ranks=2 mode=bp")
        assert "builds 3-4" in head
        assert columns.split() == ["part", "ms", "faults"]
        parts = {}
        for row in rows:
            name, ms, faults = row.split()
            parts[name] = (float(ms), float(faults))
        assert list(parts) == ["mesh", "geometry", "plan", "operator",
                               "rhs", "preconditioner", "total"]
        assert all(ms >= 0.0 and faults >= 0.0
                   for ms, faults in parts.values())
        assert parts["total"][0] >= max(ms for ms, _ in parts.values())

    def test_bk_mode_has_no_preconditioner(self):
        proc = run_tool("setup_parts.py", "--bp", "1", "--p", "1", "--k",
                        "1", "--mode", "bk", "--builds", "3")
        assert proc.returncode == 0, proc.stderr
        names = [row.split()[0] for row in proc.stdout.splitlines()[2:]]
        assert "preconditioner" not in names and names[-1] == "total"

    def test_too_few_builds_is_an_error(self):
        proc = run_tool("setup_parts.py", "--bp", "1", "--p", "1", "--k",
                        "1", "--builds", "2")
        assert proc.returncode == 2 and "--builds" in proc.stderr
