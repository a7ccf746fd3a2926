"""The three workloads: what one operation is, and how its result is checked.

`wide-unions` and `sparse-unions` solve coset-union sets with
`pfr_pipeline`; `checks` runs the inequality suites and the fibring
identity through `cli.main`. A pass is one operation per shape or command,
in a fixed order; the timed loop only ever stops between passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from corpus import Instance, Shape, corpus, echelon, reduce

C_EXPONENT = 12.0      # pfr_pipeline's default exponent in 2 K^c
TAU_TOL = 1e-12        # reference tolerance for every real number


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= TAU_TOL
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def reference_mismatches(expected: Dict[str, object],
                         got: Dict[str, object]) -> List[str]:
    return [f"{key}: reference {expected.get(key)!r}, got {got.get(key)!r}"
            for key in sorted(set(expected) | set(got))
            if not _close(expected.get(key), got.get(key))]


# -- cover workloads -----------------------------------------------------------

def cover_problems(points: Sequence[int], rows: Sequence[int],
                   translates: Sequence[int]) -> List[str]:
    """Independent check of a cover: membership, |H| <= |A|, translate bound."""
    basis = echelon(rows)
    if len(basis) != len(rows):
        return ["subgroup rows are dependent"]
    out = []
    reps = {reduce(t, basis) for t in translates}
    if any(reduce(p, basis) not in reps for p in points):
        out.append("a point of A lies in no translate")
    if 1 << len(basis) > len(points):
        out.append("subgroup larger than A")
    a = np.asarray(points, dtype=np.int64)
    K = len(np.unique(a[:, None] ^ a[None, :])) / len(a)
    if len(translates) > 2.0 * K ** C_EXPONENT + 1e-9:
        out.append("more translates than 2 K^c")
    return out


@dataclass(frozen=True)
class CoverWorkload:
    name: str
    shapes: Tuple[Shape, ...]

    def corpus(self, seed: int, passes: int) -> List[List[Instance]]:
        return corpus(seed, self.shapes, passes)

    def label(self, inst: Instance) -> str:
        s = inst.shape
        return f"n{s.n}-rank{s.rank}-cosets{s.cosets}-keep{s.keep:g}"

    def run(self, pkg, inst: Instance) -> dict:
        t0 = perf_counter()
        cover, report = pkg.cover.pfr_pipeline(
            pkg.cover.SetInput(inst.shape.n, inst.points))
        dt = perf_counter() - t0
        trace = report["descent"].trace
        return {
            "time": dt, "ops": 1,
            "certified": bool(cover.certified),
            "bound_check": bool(report["certificate"].bound_check),
            "rows": [int(r) for r in cover.Hp.rows],
            "translates": [int(t) for t in cover.translates],
            "taus": [t for rec in trace for t in (rec["tau_before"], rec["tau_after"])]
                    + [float(report["descent"].tau)],
        }

    def problems(self, inst: Instance, rec: dict) -> List[str]:
        out = []
        if not rec["certified"]:
            out.append("cover not certified")
        if not rec["bound_check"]:
            out.append("subgroup certificate fails its bound")
        return out + cover_problems(inst.points, rec["rows"], rec["translates"])

    def reference_value(self, rec: dict) -> Dict[str, object]:
        return {"taus": rec["taus"], "rank": len(rec["rows"]),
                "translates": len(rec["translates"])}

    def traced(self, inst: Instance, rec: dict, tracer) -> None:
        tracer.add("descent.iterations", (len(rec["taus"]) - 1) / 2)
        tracer.add("cover.translates", len(rec["translates"]))

    def describe(self, inst: Instance) -> dict:
        return inst.describe()


# -- checks workload -----------------------------------------------------------

CHECK_DIM = 6
FIBRING_DIM = 8


@dataclass(frozen=True)
class Command:
    label: str
    trials: int

    def argv(self, seed: int) -> List[str]:
        if self.label == "verify-fibring":
            return ["verify-fibring", "--trials", str(self.trials), "--dim",
                    str(FIBRING_DIM), "--out-dim", "4", "--seed", str(seed)]
        return ["check", "--suite", self.label, "--trials", str(self.trials),
                "--dim", str(CHECK_DIM), "--seed", str(seed)]


@dataclass(frozen=True)
class ChecksWorkload:
    name: str
    commands: Tuple[Command, ...]

    def corpus(self, seed: int, passes: int) -> List[List[Tuple[Command, List[str]]]]:
        # trials of one command use seeds base .. base + trials - 1
        return [[(c, c.argv((seed * 1000 + p) * 1000)) for c in self.commands]
                for p in range(passes)]

    def label(self, item) -> str:
        return item[0].label

    def run(self, pkg, item) -> dict:
        cmd, argv = item
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = pkg.cli.main(argv)
        dt = perf_counter() - t0
        lines = [json.loads(line) for line in buf.getvalue().splitlines()
                 if line.strip()]
        return {"time": dt, "ops": cmd.trials, "rc": rc, "lines": lines}

    def problems(self, item, rec: dict) -> List[str]:
        cmd = item[0]
        out = []
        if rec["rc"] != 0:
            out.append(f"exit status {rec['rc']}")
        if not rec["lines"] or rec["lines"][0].get("trials") != cmd.trials:
            out.append("missing summary line")
        for line in rec["lines"]:
            if "counterexample" in line or line.get("violations", 0) \
                    or line.get("holds") is False:
                out.append(f"violation: {line}")
        return out

    def reference_value(self, rec: dict) -> Dict[str, object]:
        return {"rc": rec["rc"], "lines": rec["lines"]}

    def traced(self, item, rec: dict, tracer) -> None:
        tracer.add("cli.suite_s." + item[0].label, rec["time"])

    def describe(self, item) -> dict:
        cmd = item[0]
        dim = FIBRING_DIM if cmd.label == "verify-fibring" else CHECK_DIM
        return {"command": cmd.label, "trials": cmd.trials, "dim": dim}


# Shapes are (n, subgroup rank, cosets, keep fraction). The slowest group of
# similar shapes fills at least 3/7 of a pass, so the 90th percentile and
# the median each fall inside a group rather than on the edge between two
# groups of very different cost.
WORKLOADS = {
    "wide-unions": CoverWorkload("wide-unions", (
        Shape(12, 5, 4), Shape(12, 7, 3),
        Shape(13, 6, 3), Shape(13, 6, 4), Shape(13, 7, 4))),
    "sparse-unions": CoverWorkload("sparse-unions", (
        Shape(6, 3, 3, 0.5), Shape(7, 3, 3, 0.5), Shape(8, 3, 3),
        Shape(9, 3, 3, 0.5), Shape(10, 2, 3, 0.5), Shape(10, 3, 2, 0.5),
        Shape(10, 2, 3))),
    # trial counts give every command a similar wall time
    "checks": ChecksWorkload("checks", (
        Command("triangle", 320), Command("madiman", 480),
        Command("cond-distance", 16), Command("sum-shift", 480),
        Command("sum-shift-cond", 80), Command("double-shift", 32),
        Command("ruzsa-diff", 640), Command("submodularity", 480),
        Command("bsg", 24), Command("verify-fibring", 40))),
}


def per_label_median(workload, done) -> Dict[str, float]:
    times: Dict[str, List[float]] = {}
    for item, rec in done:
        times.setdefault(workload.label(item), []).append(rec["time"])
    return {k: round(statistics.median(v), 6) for k, v in times.items()}
