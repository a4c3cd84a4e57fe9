import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_merging_modes_demo_agrees():
    out = run_demo("03_merging_modes.py")
    worst = re.search(r"worst disagreement on a random hidden state: (\S+)", out)
    assert worst is not None and float(worst.group(1)) <= 1e-12
    tokens = dict(re.findall(r"^\s+(engine|reference)\s*: (\[.*\])$", out, re.MULTILINE))
    assert set(tokens) == {"engine", "reference"}
    assert tokens["engine"] == tokens["reference"]


@pytest.mark.parametrize("name", ["01_routing_basics.py", "04_amortization.py"])
def test_demo_runs(name):
    run_demo(name)
