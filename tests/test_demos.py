import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_merging_modes_demo_agrees():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "03_merging_modes.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    worst = re.search(r"worst disagreement on a random hidden state: (\S+)", run.stdout)
    assert worst is not None and float(worst.group(1)) <= 1e-12
    tokens = dict(re.findall(r"^\s+(mixture|fusion)\s*: (\[.*\])$", run.stdout, re.MULTILINE))
    assert set(tokens) == {"mixture", "fusion"}
    assert tokens["mixture"] == tokens["fusion"]
