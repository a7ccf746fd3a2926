"""Smoke test of the benchmark: the smallest size of every workload, untraced
and traced, prints a result line with the metrics BENCHMARK.json lists.
No timing is checked."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run(HERE / "run.py", "--workload", workload, "--seed", "1",
                   "--seconds", "0", "--trace", trace, "--smoke")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] is True, out.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path / HERE.name / "run.py", "--workload", "checks",
               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
