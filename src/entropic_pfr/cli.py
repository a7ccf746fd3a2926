"""Command line front end.

One JSON object per output line, deterministic for a fixed seed (no
timestamps, sorted keys). Exit status 0 means every requested check held,
converged or certified; 1 means at least one did not, or that a cost guard
refused the work, reported as one {"error", "guard", "size"} line.

Trials run in one thread, in seed order; run several processes with
different --seed values for parallelism.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import fixtures
from .bsg import bsg_check, endgame_tables
from .cover import load_set, pfr_pipeline
from .descent import BUDGET, EPS_D, MAX_ITER, diagnostics, entropic_pfr
from .dists import CostGuardExceeded, Dist, load_dist, xor_convolve
from .fibring import fibring_decompose
from .groups import format_elem
from .randgen import make_rng, random_dist, random_joint, random_linear_map
from .ruzsa import (ETA_DEFAULT, ETA_MAX, check_cond_distance, check_double_shift,
                    check_madiman, check_ruzsa_diff, check_submodularity,
                    check_sum_shift, check_sum_shift_cond, check_triangle,
                    _rdist_of)

# suite -> (its check's name, looked up on each trial so that a replaced module
# function is the check run; its draws in order, None for a Dist and labels
# for a joint; the --dim range it can draw, every key it packs in 62 bits)
_SUITES = {
    "triangle": ("check_triangle", [None] * 3, (0, 62)),
    "madiman": ("check_madiman", [None] * 3, (0, 62)),
    "cond-distance": ("check_cond_distance", [["X", "Z"], ["Y", "W"]], (1, 31)),
    "sum-shift": ("check_sum_shift", [None] * 3, (0, 62)),
    "sum-shift-cond": ("check_sum_shift_cond", [None] * 3, (0, 62)),
    "double-shift": ("check_double_shift", [None] * 4, (0, 62)),
    "ruzsa-diff": ("check_ruzsa_diff", [None] * 2, (0, 62)),
    "submodularity": ("check_submodularity", [["A", "B", "C"]], (1, 20)),
    "bsg": ("bsg_check", [["A", "B"]], (1, 20)),   # keys of (A, B, A ^ B)
}
SUITES = list(_SUITES)


def _emit(obj: dict, quiet: bool = False, essential: bool = True) -> None:
    if quiet and not essential:
        return
    print(json.dumps(obj, sort_keys=True, default=float))


def _suite_trial(suite: str, seed: int, n: int):
    check, draws, _ = _SUITES[suite]
    rng = make_rng(seed)
    return globals()[check](*[random_dist(rng, n) if labels is None
                              else random_joint(rng, n, len(labels), labels)
                              for labels in draws])


def cmd_check(args) -> int:
    failures = 0
    for suite in [s for s in SUITES if args.suite in ("all", s)]:
        seeds = range(args.seed, args.seed + args.trials)
        reports = [_suite_trial(suite, seed, args.dim) for seed in seeds]
        worst = min(r.slack for r in reports)
        bad = sum(not r.holds for r in reports)
        failures += bad
        _emit({"suite": suite, "trials": args.trials, "violations": bad,
               "worst_slack": worst}, args.quiet)
        for seed, r in zip(seeds, reports):
            if not r.holds:   # the seed pins the violating inputs exactly
                _emit({"suite": suite, "counterexample": {
                    "seed": seed, "dim": args.dim, "lhs": r.lhs, "rhs": r.rhs,
                    "slack": r.slack}})
                break
    return 0 if failures == 0 else 1


def cmd_verify_fibring(args) -> int:
    residuals = []
    for seed in range(args.seed, args.seed + args.trials):
        rng = make_rng(seed)
        Z1 = random_dist(rng, args.dim)
        Z2 = random_dist(rng, args.dim)
        pi = random_linear_map(rng, args.dim, args.out_dim)
        residuals.append(abs(fibring_decompose(Z1, Z2, pi).residual))
    worst = max(residuals)
    ok = worst <= 1e-9
    _emit({"trials": args.trials, "worst_residual": worst, "holds": ok},
          args.quiet)
    return 0 if ok else 1


def cmd_rdist(args) -> int:
    X = load_dist(args.x)
    Y = load_dist(args.y)
    XY = xor_convolve(X, Y)   # one sum, read by d as rdist reads it
    _emit({"d": _rdist_of(XY, X, Y), "H_x": X.entropy(), "H_y": Y.entropy(),
           "H_sum": XY.entropy()})
    return 0


def cmd_entropy(args) -> int:
    for path in args.files:
        X = load_dist(path)
        _emit({"file": path, "dim": X.n, "support": X.support_size(),
               "H": X.entropy()})
    return 0


def cmd_endgame(args) -> int:
    X1 = load_dist(args.x1)
    X2 = load_dist(args.x2)
    t = endgame_tables(X1, X2)
    _emit({"k": t.k, "I1": t.I1, "I2": t.I2, "I3": t.I3, "H_S": t.H_S})
    return 0


def _cert_obj(cert) -> dict:
    return {"subgroup_rows": [int(r) for r in cert.H.rows],
            "subgroup_rank": cert.H.rank,
            "d1": cert.d1, "d2": cert.d2, "k0": cert.k0,
            "bound_check": cert.bound_check}


def _run_descent(X01: Dist, X02: Dist, args, quiet: bool) -> int:
    state, cert = entropic_pfr(X01, X02, eta=args.eta, eps_d=args.eps_d,
                               budget=args.budget, max_iter=args.max_iter)
    for rec in state.trace:
        _emit({"iter": rec["iter"], "kind": rec["kind"],
               "tau": rec["tau_after"], "k": rec["k_after"],
               "params": rec["params"]}, quiet, essential=False)
    _emit({"converged": state.converged, "stop": state.stop_reason,
           "iterations": len(state.trace), "k": state.k, "tau": state.tau,
           "intrinsic_dim": state.intrinsic_dim,
           **_cert_obj(cert)})
    if not state.converged:
        diag = diagnostics(state.ref, state.X1, state.X2)
        _emit({"diagnostics": {k: v for k, v in diag.items() if k != "bounds"},
               "bounds": diag["bounds"]})
    return 0 if state.converged and cert.bound_check else 1


def cmd_descend(args) -> int:
    return _run_descent(load_dist(args.x1), load_dist(args.x2), args,
                        args.quiet)


def cmd_demo(args) -> int:
    X01, X02 = fixtures.demo_pair(args.index, seed=args.seed
                                  if args.seed != 0 else None)
    return _run_descent(X01, X02, args, args.quiet)


def cmd_cover(args) -> int:
    A = load_set(args.set)
    cover, report = pfr_pipeline(A, c_exponent=args.c_exponent, eta=args.eta,
                                 eps_d=args.eps_d, budget=args.budget,
                                 max_iter=args.max_iter)
    _emit({"n": A.n, "size": len(A), "K": cover.K,
           "subgroup_rank": cover.Hp.rank,
           "translates": len(cover.translates),
           "bound": cover.size_bound(), "certified": cover.certified},
          args.quiet)
    if not args.quiet:
        for t in cover.translates:
            _emit({"translate": format_elem(t, A.n, "hex")}, essential=False)
    return 0 if cover.certified else 1


def _at_least(least: int, what: str):
    """An argparse type: an int of at least `least`, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"need at least {least} {what}, got {value}")
        return value
    return integer


def _add_descent_flags(p: argparse.ArgumentParser) -> None:
    def eta(text: str) -> float:   # the range RefPair accepts
        value = float(text)
        if not 0.0 < value < ETA_MAX:
            raise argparse.ArgumentTypeError(f"need 0 < eta < {ETA_MAX:.6f}, got {text}")
        return value
    def eps_d(text: str) -> float:   # a distance: none is at most a negative or NaN eps_d
        value = float(text)
        if not value >= 0.0:
            raise argparse.ArgumentTypeError(f"need eps_d >= 0, got {text}")
        return value
    p.add_argument("--eta", type=eta, default=ETA_DEFAULT)
    p.add_argument("--eps-d", type=eps_d, default=EPS_D)
    p.add_argument("--budget", type=_at_least(0, "conditioning values"), default=BUDGET)
    p.add_argument("--max-iter", type=_at_least(0, "iterations"), default=MAX_ITER)


def build_parser() -> argparse.ArgumentParser:
    def c_exponent(text: str) -> float:   # the bound 2 K^c must be a finite number
        value = float(text)
        if not 0.0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"need a finite c >= 0, got {text}")
        return value
    ap = argparse.ArgumentParser(prog="entropic-pfr",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--quiet", action="store_true",
                    help="print only the essential summary lines")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run an inequality suite on random inputs")
    p.add_argument("--suite", default="all", choices=["all"] + SUITES)
    p.add_argument("--trials", type=_at_least(1, "trial"), default=100)
    p.add_argument("--seed", type=_at_least(0, "as a seed"), default=1)
    p.add_argument("--dim", type=int, default=4)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify-fibring", help="check the exact fibring identity")
    p.add_argument("--trials", type=_at_least(1, "trial"), default=100)
    p.add_argument("--seed", type=_at_least(0, "as a seed"), default=1)
    p.add_argument("--dim", type=_at_least(0, "dimensions"), default=8)
    p.add_argument("--out-dim", type=_at_least(0, "dimensions"), default=4)
    p.set_defaults(fn=cmd_verify_fibring)

    p = sub.add_parser("rdist", help="distance between two distribution files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=cmd_rdist)

    p = sub.add_parser("entropy", help="entropies of distribution files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("endgame", help="endgame informations of a pair")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.set_defaults(fn=cmd_endgame)

    p = sub.add_parser("descend", help="tau descent from two distribution files")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    _add_descent_flags(p)
    p.set_defaults(fn=cmd_descend)

    p = sub.add_parser("demo", help="run a built-in descent scenario")
    p.add_argument("index", type=int, choices=[1, 2, 3])
    p.add_argument("--seed", type=_at_least(0, "as a seed"), default=0,
                   help="override the frozen fixture seed (0 keeps it)")
    _add_descent_flags(p)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("cover", help="coset cover for a set file")
    p.add_argument("--set", required=True)
    p.add_argument("--c-exponent", type=c_exponent, default=12.0)
    _add_descent_flags(p)
    p.set_defaults(fn=cmd_cover)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.fn is cmd_check:
        lows, tops = zip(*(_SUITES[s][2] for s in SUITES if args.suite in ("all", s)))
        if not max(lows) <= args.dim <= min(tops):
            ap.error(f"check --suite {args.suite} needs --dim from {max(lows)} to "
                     f"{min(tops)}, got {args.dim}")
    try:
        return args.fn(args)
    except CostGuardExceeded as exc:
        _emit({"error": str(exc), "guard": exc.guard, "size": exc.size})
        return 1


if __name__ == "__main__":
    sys.exit(main())
