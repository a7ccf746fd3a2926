#!/usr/bin/env python3
"""Closed-loop benchmark of the entropic-pfr engine.

    python3 perfbench/run.py --workload wide-unions --seed 3 --seconds 30 --trace 0

One caller runs operations back to back, in this one process, for at least
--seconds seconds, and stops only between passes of the corpus. The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) alternates an untraced and a traced pass of the same inputs and
reports per-layer counts and self times per traced pass. The first pass
of every run is drawn from the default seed 1; the others from --seed.
Every result is checked after the timed region, and the first pass must
also reproduce perfbench/reference.json. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

--record-reference rewrites perfbench/reference.json from the code as it
stands; --smoke runs only the first shape or command of the first pass.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> dict:
    """One command-line pool thread and one BLAS/OpenMP thread, set before
    numpy is imported: all of the work runs on one CPU, the one whose speed
    the reference kernel measures."""
    nproc = len(os.sched_getaffinity(0))
    pins = {"ENTROPIC_PFR_THREADS": "1"}
    pins.update({var: "1" for var in BLAS_VARS})
    os.environ.update(pins)
    return {"nproc": nproc, **pins}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["wide-unions", "sparse-unions", "checks"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")
    if not (SRC / "entropic_pfr" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 2

    env = pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    if Path(harness.pkg.__file__).resolve().parent != SRC / "entropic_pfr":
        print(f"benchmark: imported {harness.pkg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        harness.record_reference()
        return 0
    print(json.dumps(harness.run(args, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
