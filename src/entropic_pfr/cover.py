"""From a finite set with small doubling to an explicit coset cover.

pfr_pipeline runs the whole chain on a concrete subset A of F_2^n: measure
the doubling constant K exactly, by one transform pair in the span of A,
locate an approximating subgroup H through tau descent on the pair
(U_A, U_A), align H with A by the best shift, cover A greedily with
translates, by vector rejection, and shrink H if it overshoots |A|. The
final cover is certified by exhaustive membership and by counting
translates against 2 K^c with the requested exponent c (default 12).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .descent import BUDGET, EPS_D, MAX_ITER, _heavy_span, diagnostics, entropic_pfr
from .dists import DENSE_BITS, CostGuardExceeded, Dist, fwht, uniform_on
from .groups import SubgroupBasis, format_elem, parse_elem, span
from .ruzsa import ETA_DEFAULT

__all__ = [
    "SetInput",
    "CosetCover",
    "doubling_constant",
    "best_shift",
    "ruzsa_cover",
    "pfr_pipeline",
    "load_set",
    "save_set",
]


@dataclass(frozen=True)
class SetInput:
    """A nonempty subset of F_2^n, points sorted and deduplicated."""
    n: int
    points: Tuple[int, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty set")
        pts = tuple(sorted(set(self.points)))
        if pts[0] < 0 or pts[-1] >= (1 << self.n):
            raise ValueError("point outside the ambient group")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def uniform(self) -> Dist:
        return uniform_on(self.points, self.n)


@dataclass(frozen=True)
class CosetCover:
    """Translates of a subgroup covering the input set."""
    Hp: SubgroupBasis
    translates: Tuple[int, ...]
    K: float
    C_used: float
    certified: bool

    def size_bound(self) -> float:
        return 2.0 * self.K ** self.C_used

    def covers(self, pts: Sequence[int]) -> bool:
        """Every point lies in some translate: its coset of Hp is one of theirs."""
        reps = self.Hp.reduce(np.asarray(self.translates, dtype=np.int64))
        return bool(np.isin(self.Hp.reduce(np.asarray(pts, dtype=np.int64)),
                            reps).all())


def _sumset(pts: np.ndarray, W: SubgroupBasis) -> np.ndarray:
    """The distinct sums a ^ b, ascending; W is the span of pts ^ pts[0].

    When W's table is smaller than the pair array, they are the support of
    1_P * 1_P on W's coordinates, by one transform pair: its entries are
    2^w times integer counts, exact while 2^w |pts|^2 < 2^53.
    """
    m, w = len(pts), W.rank
    if (1 << w) < m * m and w <= DENSE_BITS and (m * m) << w < 1 << 53:
        f = np.zeros(1 << w)
        f[W.coords(pts ^ pts[0])] = 1.0
        F = fwht(f)
        return W.from_coords(np.flatnonzero(fwht(F * F) > (1 << w) / 2))
    return np.unique((pts[:, None] ^ pts[None, :]).ravel())


def doubling_constant(A: SetInput) -> float:
    """|A + A| / |A|, exactly."""
    pts = np.asarray(A.points, dtype=np.int64)
    return len(_sumset(pts, span(pts ^ pts[0], A.n))) / len(A)


def best_shift(A: SetInput, H: SubgroupBasis) -> Tuple[int, int]:
    """Translate x0 maximizing |A intersect (x0 + H)|, with that overlap.

    Equivalently the mode of U_A ^ U_H; the smallest representative wins
    ties, which is the coset's canonical reduction.
    """
    reps, counts = np.unique(H.reduce(np.asarray(A.points, dtype=np.int64)),
                             return_counts=True)
    best = int(np.argmax(counts))   # the first maximum: reps ascend
    return int(reps[best]), int(counts[best])


def ruzsa_cover(A: SetInput, core: Sequence[int]) -> List[int]:
    """Greedy translates T of A with A contained in T + core + core.

    T holds, ascending, the points of A whose core-translates are pairwise
    disjoint, so |T| <= |A + core| / |core|, and maximality covers the rest.
    a + core meets t + core iff a ^ t is in D = core + core, inside
    W = span(core ^ core[0]). So each round takes the smallest remaining
    point of every coset of W and drops, by one search in D, those meeting
    it: the choices of the greedy scan of A in order.
    """
    core = np.unique(np.asarray(core, dtype=np.int64))
    if not len(core):
        raise ValueError("empty core")
    W = span(core ^ core[0], A.n)
    D = _sumset(core, W)
    pts = np.asarray(A.points, dtype=np.int64)
    rep = W.reduce(pts)
    order = np.argsort(rep, kind="stable")   # A.points ascend
    pts, rep = pts[order], rep[order]
    T = []
    while len(pts):
        first = np.flatnonzero(np.r_[True, rep[1:] != rep[:-1]])
        T.append(pts[first])
        # each point against the smallest remaining point of its coset
        x = pts ^ np.repeat(pts[first], np.diff(np.r_[first, len(pts)]))
        keep = D[np.minimum(np.searchsorted(D, x), len(D) - 1)] != x
        pts, rep = pts[keep], rep[keep]
    return np.sort(np.concatenate(T)).tolist()


def _assemble_cover(A: SetInput, H: SubgroupBasis, K: float,
                    c_exponent: float) -> Tuple[CosetCover, Dict[str, object]]:
    """Shift, greedy cover, shrink, certify: the set half of the pipeline."""
    x0, overlap = best_shift(A, H)
    pts = np.asarray(A.points, dtype=np.int64)
    core = pts[H.reduce(pts) == x0].tolist()
    assert core, "best shift always intersects A"
    # core + core sits inside H, so T + H covers A.
    T = ruzsa_cover(A, core)

    Hp = H.shrink_to_size(len(A))
    # every t + H splits into cosets of H' <= H, one per quotient class
    quot = np.unique(Hp.reduce(H.enumerate_array()))
    translates = np.unique(np.asarray(T, dtype=np.int64)[:, None] ^ quot).tolist()

    cover = CosetCover(Hp, tuple(translates), K, c_exponent, False)
    certified = (cover.covers(A.points)
                 and Hp.span_size() <= len(A)
                 and len(translates) <= cover.size_bound() + 1e-9)
    cover = CosetCover(Hp, tuple(translates), K, c_exponent, certified)
    info: Dict[str, object] = {
        "shift": x0,
        "overlap": overlap,
        "core_size": len(core),
        "raw_translates": len(T),
        "span_size": H.span_size(),
        "final_subgroup_size": Hp.span_size(),
        "translate_count": len(translates),
        "size_bound": cover.size_bound(),
    }
    return cover, info


def pfr_pipeline(A: SetInput, *, c_exponent: float = 12.0,
                 eta: float = ETA_DEFAULT, eps_d: float = EPS_D,
                 budget: int = BUDGET, max_iter: int = MAX_ITER,
                 ) -> Tuple[CosetCover, Dict[str, object]]:
    """Explicit coset cover of a set with small doubling.

    Returns the cover plus a report with the descent state, the subgroup
    certificate, the intrinsic dimension r that descent ran in, the shift,
    the intermediate counts and the cover exponent. The cover's `certified`
    flag asserts exhaustive membership, |H'| <= |A|, and the translate
    count against 2 K^c_exponent. When the descent stalls above
    eps_d, recent pairs along its trace are retried as subgroup sources and
    the certified cover with the fewest translates wins; if none certifies,
    the terminal cover is reported with certified = False plus diagnostics,
    or the guard's message when the terminal pair trips the fibre-pair
    cost guard of bsg.endgame_tables, the one cost diagnostics guards.
    """
    UA = A.uniform()
    K = doubling_constant(A)
    log_K = math.log(K)
    state, cert = entropic_pfr(UA, UA, eta=eta, eps_d=eps_d,
                               budget=budget, max_iter=max_iter)
    d_AA = cert.k0   # k0 = d[U_A;U_A] and d1 = d[U_A;U_H], in the span of A
    # H[U_A + U'_A] <= log|A+A| forces d[U_A;U_A] <= log K; failing it
    # means the arithmetic itself is broken, not the input.
    if d_AA > log_K + 1e-10:
        raise ArithmeticError(
            f"d[U_A;U_A] = {d_AA!r} exceeds log K = {log_K!r}")
    cover, info = _assemble_cover(A, cert.H, K, c_exponent)
    source = "terminal"
    if not state.converged and not cover.certified:
        for back, (Y1, _) in enumerate(reversed(state.snapshots[:-1]), 1):
            cand, cinfo = _assemble_cover(A, _heavy_span(Y1), K,
                                          c_exponent)
            if cand.certified and (not cover.certified
                                   or len(cand.translates)
                                   < len(cover.translates)):
                cover, info, source = cand, cinfo, f"{back} steps back"

    m = len(cover.translates)
    report: Dict[str, object] = {
        "K": K,
        "d_AA": d_AA,
        "log_K": log_K,
        "descent": state,
        "certificate": cert,
        "cover_source": source,
        "intrinsic_dim": state.intrinsic_dim,
        "d_UA_UH": cert.d1,
        # the least c >= 0 with m <= 2 K^c; none when K = 1 and m > 2
        "cover_exponent": (0.0 if m <= 2 else math.inf if K == 1.0
                           else math.log(m / 2) / log_K),
        **info,
    }
    if not state.converged:
        try:
            report["diagnostics"] = diagnostics(state.ref, state.X1,
                                                state.X2)
        except CostGuardExceeded as exc:
            report["diagnostics"] = {"error": str(exc)}
    return cover, report


# -- set files ---------------------------------------------------------------

def load_set(path: str) -> SetInput:
    """Read a set file: a `dim=n` header, then one element per line.

    Elements may be binary (0b...), hex (0x...) or decimal; `#` starts a
    comment.
    """
    n: Optional[int] = None
    pts: List[int] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"dim\s*=\s*(\d+)", line)
            if m:
                if n is not None:
                    raise ValueError("duplicate dim header")
                n = int(m.group(1))
                continue
            if n is None:
                raise ValueError("dim=<n> header must precede elements")
            pts.append(parse_elem(line, n))
    if n is None:
        raise ValueError("missing dim header")
    return SetInput(n, tuple(pts))


def save_set(A: SetInput, path: str, style: str = "bin") -> None:
    with open(path, "w") as fh:
        fh.write(f"dim={A.n}\n")
        for p in A.points:
            fh.write(format_elem(p, A.n, style) + "\n")
