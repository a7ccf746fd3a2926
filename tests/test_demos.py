"""The scripts in demos/ run to completion and say what their docstrings say."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == ["coset_unions.py", "dense_subset.py",
                                       "sparse_endgame.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly_and_certifies_its_cover(path):
    out = run_demo(path)
    for line in out.splitlines():
        if line.startswith("cover") or "certified:" in line:
            assert line.rstrip().endswith("certified: True"), line
    if path.name == "sparse_endgame.py":
        marked = [ln.split()[0] for ln in out.splitlines()
                  if ln.rstrip().endswith("<- accepted")]
        assert marked == ["endgame"]
