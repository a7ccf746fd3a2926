"""The timed loop, the traced passes, the checks and the result line.

Imported by run.py after it has pinned the thread settings and put the
package source on sys.path.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

import calibrate
import entropic_pfr as pkg
import entropic_pfr.cli  # not imported by the package itself
from tracing import Tracer, patched
from workloads import WORKLOADS, per_label_median, reference_mismatches

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
KERNEL_WINDOW = 9      # reference kernel runs whose median scales one time
CORPUS_PASSES = 32     # passes generated up front; the loop cycles through them

END_TO_END = {
    "ops_per_s": "1/s",
    "call_s.p50": "s",
    "call_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MOVE_KINDS = [k.value for k in pkg.descent.MoveKind]
SUITE_LABELS = [c.label for c in WORKLOADS["checks"].commands]
PER_LAYER: Dict[str, str] = {
    "dists.fwht.calls": "count", "dists.fwht.self_s": "s",
    "dists.fwht.elems": "count", "dists.fwht.flops_computed": "flop",
    "dists.xor_convolve.calls": "count", "dists.xor_convolve.self_s": "s",
    "dists.joint.calls": "count", "dists.joint.self_s": "s",
    "dists.wht_clamp_warnings": "count",
    "ruzsa.rdist.calls": "count", "ruzsa.rdist.self_s": "s",
    "ruzsa.rdist_paired.pairs": "count", "ruzsa.rdist_paired.self_s": "s",
    "ruzsa.rdist_one_many.pairs": "count", "ruzsa.rdist_one_many.self_s": "s",
    "ruzsa.rdist_matrix.pairs": "count", "ruzsa.rdist_matrix.self_s": "s",
    "ruzsa.cond_rdist.calls": "count", "ruzsa.cond_rdist.self_s": "s",
    "fibring.fibring_decompose.calls": "count",
    "fibring.fibring_decompose.self_s": "s",
    "bsg.endgame_tables.calls": "count", "bsg.endgame_tables.self_s": "s",
    "bsg.endgame_tables.entries": "count",
    "bsg.endgame_tables.guard_trips": "count",
    "bsg.endgame_tables.errors": "count",
    "bsg.abstract_endgame.calls": "count", "bsg.abstract_endgame.self_s": "s",
    "bsg.bsg_check.calls": "count", "bsg.bsg_check.self_s": "s",
    "descent.iterations": "count",
    **{f"descent.candidates.{k}": "count" for k in MOVE_KINDS},
    "descent.accept_ratio": "ratio",
    "descent.endgame_skips": "count",
    "descent.generate_candidates.self_s": "s",
    "descent.diagnostics.s": "s",
    "cover.pfr_pipeline.self_s": "s",
    "cover.ruzsa_cover.calls": "count",
    "cover.best_shift.s": "s",
    "cover.doubling_constant.s": "s",
    "cover.translates": "count",
    "groups.span.calls": "count", "groups.span.s": "s",
    "cli.main.self_s": "s",
    "cli.threads": "count",
    **{f"cli.suite_s.{s}": "s" for s in SUITE_LABELS},
    "trace.overhead_s": "s",
}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    src = str(Path(pkg.__file__).resolve().parent.parent)
    code = ("import time; t = time.perf_counter(); import entropic_pfr; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """A wall time measured while the reference kernel took kernel_s,
    scaled to the speed at which it takes calibrate.REFERENCE_S."""
    return seconds * calibrate.REFERENCE_S / kernel_s


def scaled_times(recs: List[dict]) -> List[float]:
    """Each record's wall time at the reference speed, measured by the
    median kernel time of the KERNEL_WINDOW records around it."""
    kernel = [r["kernel_s"] for r in recs]
    h = KERNEL_WINDOW // 2
    return [at_reference_speed(r["time"],
                               statistics.median(kernel[max(0, i - h):i + h + 1]))
            for i, r in enumerate(recs)]


def run_pass(workload, items, tracer: Tracer, timed: bool,
             calibrated: bool = False) -> Tuple[List[dict], float]:
    """Run items back to back; returns one record per item and the wall time.

    Untimed passes wrap only the endgame tables, to count guard trips and
    errors; timed passes wrap every traced function. A calibrated pass runs
    the reference kernel after every item and keeps its time in the record
    as "kernel_s"; the wall time leaves the kernel out.
    """
    records = []
    kernel_s = 0.0
    with warnings.catch_warnings(record=True) as caught, \
            patched(pkg, tracer, timed):
        warnings.simplefilter("always")
        t0 = perf_counter()
        for item in items:
            errors = tracer.totals["bsg.endgame_tables.errors"]
            t_item = perf_counter()
            try:
                rec = workload.run(pkg, item)
            except Exception as exc:     # counted as a failed operation
                rec = {"time": perf_counter() - t_item, "ops": 0,
                       "exception": repr(exc)}
            rec["endgame_errors"] = tracer.totals["bsg.endgame_tables.errors"] - errors
            if timed and "exception" not in rec:
                workload.traced(item, rec, tracer)
            if calibrated:
                rec["kernel_s"] = calibrate.kernel()
                kernel_s += rec["kernel_s"]
            records.append(rec)
        wall = perf_counter() - t0 - kernel_s
    if timed:
        tracer.add("dists.wht_clamp_warnings",
                   sum("pre-clamp deviation" in str(w.message) for w in caught))
    return records, wall


def problems(workload, item, rec: dict) -> List[str]:
    if "exception" in rec:
        return [rec["exception"]]
    out = workload.problems(item, rec)
    if rec["endgame_errors"]:
        out.append("endgame tables raised an error other than the cost guard")
    return out


def p90(times: List[float]) -> float:
    """The 90th percentile, interpolated between order statistics.

    A fixed percentile: the number of passes a run completes depends on
    the machine's speed, and an order statistic a fixed count from the top
    would move between groups of shapes with it.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def summary(times: List[float], ops: int, setups: List[float]) -> Dict[str, float]:
    return {"ops_per_s": ops / sum(times),
            "call_s.p50": statistics.median(times),
            "call_s.p90": p90(times),
            "setup_s": statistics.median(setups)}


def reference_problems(workload, expected: dict, item, rec: dict) -> List[str]:
    label = workload.label(item)
    if label not in expected:
        return ["no reference recorded"]
    return [f"reference {m}" for m in reference_mismatches(
        expected[label], workload.reference_value(rec))]


def record_reference() -> None:
    out = {}
    for name, workload in WORKLOADS.items():
        items = workload.corpus(DEFAULT_SEED, 1)[0]
        records, _ = run_pass(workload, items, Tracer(), timed=False)
        bad = [b for item, rec in zip(items, records)
               for b in problems(workload, item, rec)]
        if bad:
            raise SystemExit(f"{name}: refusing to record failing results: {bad}")
        out[name] = {workload.label(item): workload.reference_value(rec)
                     for item, rec in zip(items, records)}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def run(args, env: Dict[str, object]) -> dict:
    """One benchmark run; prints the info line and returns the result."""
    workload = WORKLOADS[args.workload]
    guard = Tracer()
    setups = []
    for _ in range(1 if args.smoke or args.trace else SETUP_REPEATS):
        kernel_s = statistics.median(calibrate.kernel() for _ in range(KERNEL_WINDOW))
        t_import = import_seconds()
        t0 = perf_counter()
        # pass 0 is the default-seed pass that reference.json records
        passes = workload.corpus(DEFAULT_SEED, 1)
        if args.smoke:
            passes = [passes[0][:1]]
        else:
            passes += workload.corpus(args.seed, CORPUS_PASSES - 1)
        t_corpus = perf_counter() - t0
        warm, _ = run_pass(workload, passes[0][:1], guard, timed=False)
        wall = t_import + t_corpus + warm[0]["time"]
        setups.append((wall, kernel_s))

    done: List[Tuple[object, dict]] = []
    untraced: List[Tuple[object, dict]] = []
    overheads = []
    tracer = Tracer()
    start = perf_counter()
    count = 0
    while count == 0 or perf_counter() - start < args.seconds:
        batch = passes[count % len(passes)]
        recs, wall = run_pass(workload, batch, guard, timed=False,
                              calibrated=True)
        done += zip(batch, recs)
        untraced += zip(batch, recs)
        if args.trace:
            recs, traced_wall = run_pass(workload, batch, tracer, timed=True)
            done += zip(batch, recs)
            overheads.append(traced_wall - wall)
        count += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = json.loads(REFERENCE.read_text())[workload.name]
    bad = []
    for i, (item, rec) in enumerate(done):
        found = problems(workload, item, rec)
        if not found and i < len(passes[0]):
            found = reference_problems(workload, expected, item, rec)
        bad.append([f"{workload.label(item)}: {b}" for b in found])
    failed = sum(1 for b in bad if b)
    recs = [rec for _, rec in untraced]
    ops = sum(r["ops"] for r in recs)
    wall = summary([r["time"] for r in recs], ops, [w for w, _ in setups])
    # the same, with every wall time scaled to the reference speed
    times = scaled_times(recs)
    scaled = summary(times, ops, [at_reference_speed(w, k) for w, k in setups])
    kernel_s = statistics.median(r["kernel_s"] for r in recs)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": count, "samples": len(times),
        "samples_above_p90": sum(t > scaled["call_s.p90"] for t in times),
        "fail_frac": failed / len(bad),
        "failures": [f for b in bad for f in b][:20],
        "median_s_by_label": per_label_median(workload, untraced),
        "wall": wall, "kernel_s": kernel_s,
        "speed": calibrate.REFERENCE_S / kernel_s,
        "corpus": [workload.describe(item) for item in passes[0]],
        "env": {**env, "python": platform.python_version(),
                "numpy": np.__version__},
    }, sort_keys=True))

    if args.trace:
        tot = tracer.totals
        values = {k: tot.get(k, 0.0) / count for k in PER_LAYER}
        scored = sum(tot.get(f"descent.candidates.{k}", 0.0) for k in MOVE_KINDS)
        values["descent.accept_ratio"] = (
            tot.get("descent.iterations", 0.0) / scored if scored else 0.0)
        values["cli.threads"] = float(env["ENTROPIC_PFR_THREADS"])
        values["trace.overhead_s"] = statistics.mean(overheads)
        units = PER_LAYER
    else:
        values = {**scaled, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    return {"correct": failed == 0, "attempted": len(bad), "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
