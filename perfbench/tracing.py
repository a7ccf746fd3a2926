"""Spans and counters around the public functions of each module.

The benchmark wraps functions from outside the package: every name a
module of the package binds to the wrapped function is rebound to the
wrapper for the duration of a pass, then restored. Self time is a span's
duration minus the time its wrapped children cover. Spans opened in the
command-line worker threads have no parent in their own thread; their
intervals are subtracted from the enclosing main-thread root (the merged
union, so two threads busy at once count once), and their own self times
add up across threads.
"""
from __future__ import annotations

import math
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

# ValueError text of the endgame table cost guard (bsg._uvs_sparse).
GUARD_MESSAGE = "endgame support enumeration too large"

Extra = Callable[[tuple, object, Optional[BaseException]],
                 Iterable[Tuple[str, float]]]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Totals per metric name; timing is off for guard-only wrappers."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._orphans: List[Tuple[float, float]] = []

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.totals[name] += value

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn: Callable, timed: bool,
             extra: Optional[Extra] = None) -> Callable:
        def counted(args, result, exc) -> None:
            if extra is not None:
                for metric, value in extra(args, result, exc):
                    self.add(metric, value)

        if not timed:
            def guard_only(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    counted(args, None, exc)
                    raise
                counted(args, result, None)
                return result
            return guard_only

        main = threading.main_thread()

        def spanned(*args, **kwargs):
            stack = self._stack()
            is_root = not stack and threading.current_thread() is main
            if is_root:
                with self._lock:
                    self._orphans.clear()
            frame = [0.0, []]          # child time, child intervals (roots)
            stack.append(frame)
            result, error = None, None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                    if len(stack) == 1:
                        stack[0][1].append((t0, t1))
                    own = dur - frame[0]
                elif is_root:
                    with self._lock:
                        spans = frame[1] + self._orphans
                    own = dur - _covered(spans, t0, t1)
                else:
                    with self._lock:
                        self._orphans.append((t0, t1))
                    own = dur - frame[0]
                self.add(name + ".calls")
                self.add(name + ".self_s", own)
                self.add(name + ".s", dur)
                counted(args, result, error)
        return spanned


# -- what to wrap --------------------------------------------------------------

def _fwht_work(args, result, exc):
    a = args[0]
    size = getattr(a, "size", 0)
    length = a.shape[-1] if getattr(a, "ndim", 0) else 1
    return [("dists.fwht.elems", size),
            ("dists.fwht.flops_computed", size * math.log2(max(length, 1)))]


def _pairs(name: str, count: Callable[[tuple], int]) -> Extra:
    return lambda args, result, exc: [(name + ".pairs", count(args))]


def _endgame_outcome(args, result, exc):
    if exc is None:
        J = result.joint_UVS
        entries = 1 << (J.n * J.arity) if J.is_dense else len(J.items()[0])
        return [("bsg.endgame_tables.entries", entries)]
    if isinstance(exc, ValueError) and str(exc) == GUARD_MESSAGE:
        return [("bsg.endgame_tables.guard_trips", 1)]
    return [("bsg.endgame_tables.errors", 1)]


def _candidates(args, result, exc):
    if exc is not None:
        return [("descent.endgame_skips", 1)] if isinstance(exc, ValueError) else []
    return [("descent.candidates." + mv.kind.value, 1) for mv in result]


def targets(pkg) -> List[Tuple[object, str, str, Optional[Extra]]]:
    """(owner, attribute, span name, extra counters) for every span."""
    d, r = pkg.dists, pkg.ruzsa
    out: List[Tuple[object, str, str, Optional[Extra]]] = [
        (d, "fwht", "dists.fwht", _fwht_work),
        (d, "xor_convolve", "dists.xor_convolve", None),
        (r, "rdist", "ruzsa.rdist", None),
        (r, "rdist_paired", "ruzsa.rdist_paired",
         _pairs("ruzsa.rdist_paired", lambda a: len(a[0]))),
        (r, "rdist_one_many", "ruzsa.rdist_one_many",
         _pairs("ruzsa.rdist_one_many", lambda a: len(a[1]))),
        (r, "rdist_matrix", "ruzsa.rdist_matrix",
         _pairs("ruzsa.rdist_matrix", lambda a: len(a[0]) * len(a[1]))),
        (r, "cond_rdist", "ruzsa.cond_rdist", None),
        (pkg.fibring, "fibring_decompose", "fibring.fibring_decompose", None),
        (pkg.bsg, "endgame_tables", "bsg.endgame_tables", _endgame_outcome),
        (pkg.bsg, "abstract_endgame", "bsg.abstract_endgame", None),
        (pkg.bsg, "bsg_check", "bsg.bsg_check", None),
        (pkg.descent, "generate_candidates", "descent.generate_candidates",
         _candidates),
        (pkg.descent, "diagnostics", "descent.diagnostics", None),
        (pkg.cover, "pfr_pipeline", "cover.pfr_pipeline", None),
        (pkg.cover, "ruzsa_cover", "cover.ruzsa_cover", None),
        (pkg.cover, "best_shift", "cover.best_shift", None),
        (pkg.cover, "doubling_constant", "cover.doubling_constant", None),
        (pkg.groups, "span", "groups.span", None),
        (pkg.cli, "main", "cli.main", None),
    ]
    for method in ("marginal", "condition", "pushforward", "slices"):
        out.append((d.JointDist, method, "dists.joint", None))
    return out


def _package_modules(pkg) -> List[object]:
    prefix = pkg.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or name.startswith(prefix))]


@contextmanager
def patched(pkg, tracer: Tracer, timed: bool) -> Iterator[None]:
    """Wrap every target (timed) or only the endgame guard (untimed).

    A module-level function is rebound in every package module that binds
    it, which is where its callers look it up; a method is rebound on its
    class.
    """
    chosen = [t for t in targets(pkg)
              if timed or t[2] == "bsg.endgame_tables"]
    modules = _package_modules(pkg)
    undo: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name, extra in chosen:
            fn = owner.__dict__[attr]
            wrapper = tracer.wrap(name, fn, timed, extra)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(holder.__dict__.items()):
                    if value is fn:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)
