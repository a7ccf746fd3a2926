"""Entropic Ruzsa distance over F_2^n and the inequality corpus around it.

The distance of two distributions is

    d[X; Y] = H[X' ^ Y'] - H[X']/2 - H[Y']/2

with X', Y' independent copies; addition and subtraction coincide with XOR
here. Conditional distances average d over independent conditioning values
(slice form); an equivalent joint-entropy form is kept alongside as a
cross-check. Each check_* function evaluates one inequality exactly on
concrete distributions and reports lhs, rhs and slack; slack below -1e-9
counts as a violation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .dists import (PRODUCT_SUPPORT_CAP, CostGuardExceeded, Dist, JointDist, _cross_fibres,
                    _entropy_rows, _entropy_weights, _enum_bound, _group, conv_entropy, entropy,
                    fwht, joint_product, xor_convolve)

__all__ = [
    "ETA_MAX",
    "SLACK_TOL",
    "IneqReport",
    "RefPair",
    "rdist",
    "rdist_matrix",
    "rdist_one_many",
    "rdist_paired",
    "rdist_pairs",
    "rdist_runs",
    "rdist_run_sums",
    "cond_rdist",
    "cond_rdist_via_joint",
    "one",
    "slices_of",
    "check_triangle",
    "check_madiman",
    "check_cond_distance",
    "check_sum_shift",
    "check_sum_shift_cond",
    "check_double_shift",
    "check_ruzsa_diff",
    "check_submodularity",
    "check_xor_lower",
]

# The tau functional needs eta strictly below 1/(4 + sqrt 17); the default 1/9
# leaves room in every estimate downstream.
ETA_MAX = 1.0 / (4.0 + math.sqrt(17.0))
ETA_DEFAULT = 1.0 / 9.0
SLACK_TOL = 1e-9
# Batched distances hold dense (rows, 2^n) laws, rows and products BATCH_ELEMS
# entries at a time; above BATCH_BITS laws stay sparse Dists, pair by pair.
BATCH_BITS = 16
BATCH_ELEMS = 1 << 21

Slices = Sequence[Tuple[float, Dist]]


@dataclass(frozen=True)
class IneqReport:
    """One evaluated inequality: lhs <= rhs expected, slack = rhs - lhs."""
    name: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slack", self.rhs - self.lhs)
        object.__setattr__(self, "holds", self.slack >= -SLACK_TOL)


def rdist(X: Dist, Y: Dist) -> float:
    return _rdist_of(xor_convolve(X, Y), X, Y)


def _rdist_of(XY: Dist, X: Dist, Y: Dist) -> float:
    """d[X; Y] from XY, the law of X' ^ Y'."""
    return entropy(XY) - 0.5 * X.entropy() - 0.5 * Y.entropy()


def one(X: Dist) -> List[Tuple[float, Dist]]:
    """A distribution as a trivial one-slice conditional."""
    return [(1.0, X)]


# -- batched distance evaluation -------------------------------------------

def _law_key(d: Dist) -> Tuple[bytes, ...]:
    """The bytes of d's support and weights: byte-equal laws share a key."""
    return tuple(a.tobytes() for a in d.items())


def _distinct(laws: Sequence[Dist]) -> Tuple[np.ndarray, List[Dist]]:
    """Each law's id and the distinct laws: byte-equal laws share one id."""
    ids: dict = {}
    u = np.array([ids.setdefault(_law_key(d), len(ids)) for d in laws],
                 dtype=np.intp)
    return u, [laws[x] for x in np.unique(u, return_index=True)[1]]


def rdist_pairs(laws: Sequence[Dist], i, j) -> np.ndarray:
    """d[laws[i[k]]; laws[j[k]]] for every k, each unordered pair once.

    Laws of byte-equal support and weights count as one law, scored once.
    Up to BATCH_BITS the distinct laws are stacked as dense rows, each
    transformed once, and products are formed in place, BATCH_ELEMS entries
    at a time; above it each pair is scored by rdist.
    """
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise ValueError("length mismatch")
    if not len(i):
        return np.zeros(0)
    if any(d.n != laws[0].n for d in laws):
        raise ValueError("dimension mismatch")
    u, laws = _distinct(laws)
    i, j = u[i], u[j]
    a, b, inv = _unordered(i, j, len(laws))
    if laws[0].n > BATCH_BITS:
        return np.array([rdist(laws[x], laws[y]) for x, y in zip(a, b)])[inv]
    S = np.stack([d.dense() for d in laws])
    h, S = _entropy_rows(S), fwht(S)
    return _product_entropies(S, a, S, b)[inv] - 0.5 * h[i] - 0.5 * h[j]


def _self_and_refs(laws: Sequence[Dist], refs: Sequence[Dist]) -> np.ndarray:
    """d[L; L], then d[R; L] for each R in refs, as rows over the laws L,
    through one rdist_pairs call."""
    q, k = len(refs), np.arange(len(laws)) + len(refs)
    return rdist_pairs([*refs, *laws], np.r_[k, np.repeat(np.arange(q), len(laws))],
                       np.tile(k, q + 1)).reshape(q + 1, len(laws))


def _dense_runs(n: int, col: np.ndarray, w: np.ndarray,
                cut: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct laws of the runs col[cut[r]:cut[r + 1]] on F_2^n, with
    weights w of any scale, as dense rows of mass one, and each run's row:
    runs of equal bytes share one."""
    k = np.arange(len(cut) - 1)
    laws = np.bincount(np.repeat(k << n, np.diff(cut)) + col[cut[0]:cut[-1]],
                       weights=w[cut[0]:cut[-1]], minlength=len(k) << n).reshape(len(k), -1)
    laws /= laws.sum(axis=1, keepdims=True)
    _, first, back = np.unique(laws.view(np.dtype((np.void, laws[0].nbytes))).ravel(),
                               return_index=True, return_inverse=True)
    return laws[first], back


def rdist_runs(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
               refs: Sequence[Dist] = ()) -> np.ndarray:
    """d[L; L], then d[R; L] for each R in refs, as rows over the runs r,
    L the law on F_2^n of the values col[cut[r]:cut[r + 1]] with weights w
    (of any scale): a family of conditional laws, cut by one sort. Up to
    BATCH_BITS the runs are dense rows, built BATCH_ELEMS entries at a time
    and scored against the spectra of the distinct references, taken once;
    above it each run is one Dist, scored by rdist_pairs."""
    m = len(cut) - 1
    if n > BATCH_BITS:
        return _self_and_refs([Dist(n, idx=col[a:b], w=w[a:b])
                               for a, b in zip(cut[:-1], cut[1:])], refs)
    # equal references are scored once; their rows are copied back at the end
    u, refs = _distinct(refs)
    q = len(refs)
    if q:
        R = np.stack([X.dense() for X in refs])
        hr, R = _entropy_rows(R), fwht(R)
    out = np.empty((q + 1, m))
    step = max(1, BATCH_ELEMS >> n)
    for lo in range(0, m, step):
        # rows of equal bytes are scored once and scattered back
        laws, back = _dense_runs(n, col, w, cut[lo:lo + step + 1])
        k = np.arange(len(laws))
        h, S = _entropy_rows(laws), fwht(laws)
        del laws
        # row 0 pairs each run with itself, row 1 + r with reference r
        pairs = [(S, k, h)] + [(R, np.full_like(k, r), hr[r]) for r in range(q)]
        for r, (T, t, ht) in enumerate(pairs):
            d = _product_entropies(T, t, S, k) - 0.5 * ht - 0.5 * h
            out[r, lo:lo + len(back)] = d[back]
    return out[np.r_[0, 1 + u]]


def _unordered(i: np.ndarray, j: np.ndarray, m: int):
    """The distinct unordered pairs among (i[k], j[k]), of values in [0, m),
    as (a, b) with a <= b, ascending, and each k's pair."""
    pairs, inv = np.unique(np.minimum(i, j) * m + np.maximum(i, j), return_inverse=True)
    return (*np.divmod(pairs, m), inv)


def _take_runs(col: np.ndarray, w: np.ndarray, cut: np.ndarray, runs: np.ndarray):
    """col, w and cut of the given runs alone, in that order."""
    size = cut[runs + 1] - cut[runs]
    at = np.repeat(cut[runs] - np.cumsum(size) + size, size) + np.arange(size.sum())
    return col[at], w[at], np.r_[0, np.cumsum(size)]


def _run_chunks(a: np.ndarray, b: np.ndarray, cap: int) -> List[int]:
    """Bounds of consecutive chunks of the pairs of runs (a[k], b[k]) that
    each read at most cap >= 2 distinct runs, each as long as it can be."""
    bounds, seen = [0], set()
    for k, pair in enumerate(zip(a.tolist(), b.tolist())):
        if len(seen) + len(set(pair) - seen) > cap:
            bounds.append(k)
            seen = set()
        seen.update(pair)
    return bounds + [len(a)]


def _run_sums_stack(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                    x: np.ndarray, y: np.ndarray, R: np.ndarray, hr: np.ndarray,
                    step: int) -> np.ndarray:
    """rdist_run_sums on the runs of cut as one stack after the dense
    references R, of entropies hr: each distinct pair's product of spectra
    is scored with its own square and its products with the references,
    step pairs at a time."""
    q = len(R)
    laws, back = _dense_runs(n, col, w, cut)
    S = fwht(np.vstack([R, laws]))
    del laws
    x, y, inv = _unordered(back[x] + q, back[y] + q, len(S))
    d = np.empty((q + 1, len(x)))
    for lo in range(0, len(x), step):
        # one stack: the spectra of the sums, of their sums with themselves
        # and of their sums with each reference
        k = len(x[lo:lo + step])
        P = np.empty((q + 2, k, S.shape[1]))
        np.multiply(S[x[lo:lo + step]], S[y[lo:lo + step]], out=P[0])
        np.multiply(P[0], P[0], out=P[1])
        np.multiply(S[:q, None], P[0], out=P[2:])
        H = conv_entropy(P.reshape(-1, S.shape[1])).reshape(q + 2, k)
        d[0, lo:lo + k] = H[1] - H[0]
        d[1:, lo:lo + k] = H[2:] - 0.5 * hr - 0.5 * H[0]
    return d[:, inv]


def rdist_run_sums(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                   i, j, refs: Sequence[Dist] = ()) -> np.ndarray:
    """d[L; L], then d[R; L] for each R in refs, as rows over k, L the law
    of x ^ y for independent x and y of the laws of the runs i[k] and j[k]
    of col, with weights w, cut as in rdist_runs: the sum of two
    conditional laws, such as a row of the endgame. Runs of byte-equal laws
    count as one, and so does a pair of the same two runs in either order.
    Up to BATCH_BITS the distinct references and runs are dense rows,
    transformed as one stack, and each distinct pair's product of spectra
    is scored as the law of its sum, with its own square and its products
    with the references in the same stack, at least one pair and at most
    BATCH_ELEMS entries at a time. A stack holds at most BATCH_ELEMS
    entries: when the runs do not fit, the distinct pairs are walked in
    chunks that each read at most that many entries of runs and
    references, and each chunk is one stack. Above BATCH_BITS each pair's
    sum is one Dist, scored by rdist_pairs."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if not len(i):
        return np.zeros((len(refs) + 1, 0))
    m = len(cut) - 1
    if n > BATCH_BITS:
        a, b, inv = _unordered(i, j, m)
        runs = {r: Dist(n, idx=col[cut[r]:cut[r + 1]], w=w[cut[r]:cut[r + 1]])
                for r in np.union1d(a, b).tolist()}
        return _self_and_refs([xor_convolve(runs[x], runs[y])
                               for x, y in zip(a.tolist(), b.tolist())], refs)[:, inv]
    u, refs = _distinct(refs)
    q = len(refs)
    R = np.stack([X.dense() for X in refs]) if q else np.empty((0, 1 << n))
    hr = _entropy_rows(R)[:, None]
    rows = BATCH_ELEMS >> n
    step = max(1, rows // (q + 2))
    if m + q <= rows:
        out = _run_sums_stack(n, col, w, cut, i, j, R, hr, step)
    else:
        a, b, inv = _unordered(i, j, m)
        bounds = _run_chunks(a, b, max(2, rows - q))
        chunks = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            runs, at = np.unique(np.r_[a[lo:hi], b[lo:hi]], return_inverse=True)
            chunks.append(_run_sums_stack(n, *_take_runs(col, w, cut, runs),
                                          *at.reshape(2, -1), R, hr, step))
        out = np.hstack(chunks)[:, inv]
    return out[np.r_[0, 1 + u]]


def _listed_sum_entropies(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                          x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H[x ^ y], x and y independent of the laws of the runs x[k] and y[k] of
    mass one, for every k: sums keyed by pair, grouped once (dists._group)."""
    sy = cut[y + 1] - cut[y]
    size = (cut[x + 1] - cut[x]) * sy
    pair = np.repeat(np.arange(len(x)), size)
    at = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    a, b = cut[x][pair] + at // sy[pair], cut[y][pair] + at % sy[pair]
    keys, p = _group((pair << n) | (col[a] ^ col[b]), w[a] * w[b], n + len(x).bit_length())
    return -np.bincount(keys >> n, weights=p * np.log(p), minlength=len(x))


def _run_pair_entropy(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                      sums: Sequence[Tuple[int, int]] = ()) -> float:
    """The sum over ordered pairs (x, y) of runs of m_x m_y H[L_x * L_y], m_x
    the mass w of run x and L_x its law, cut as in rdist_runs. Byte-equal
    laws count as one, and each unordered pair of laws is scored once, in
    blocks of at most BATCH_ELEMS entries of work: enumerated below
    dists._enum_bound, else by rdist_pairs. The work, enumerated entries
    plus 2^n a transformed pair, plus xor_convolve's on supports of each
    size pair in sums, raises CostGuardExceeded past PRODUCT_SUPPORT_CAP
    before any pair is scored; under it, with n <= DENSE_BITS, the keys of
    _listed_sum_entropies fit in int64."""
    mass = np.add.reduceat(w, cut[:-1])
    w = w / np.repeat(mass, np.diff(cut))
    key = np.array([col[a:b].tobytes() + w[a:b].tobytes()
                    for a, b in zip(cut[:-1].tolist(), cut[1:].tolist())], dtype=object)
    _, first, law = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(np.diff(cut)[first], kind="stable")   # by ascending size
    m = np.bincount(law, weights=mass)[order]
    col, w, cut = _take_runs(col, w, cut, first[order])
    size, x, k = np.diff(cut), np.arange(len(first)), len(first)
    H = -np.add.reduceat(w * np.log(w), cut[:-1])   # each law's entropy
    # row x pairs law x with each y >= x, enumerated while y < j[x]
    j = np.maximum(np.searchsorted(size, -(-_enum_bound(n) // size)), x)
    ends = np.r_[0, np.cumsum(size * (cut[j] - cut[x]) + ((k - j) << n))]
    work = int(ends[-1]) + sum(p * q if p * q < _enum_bound(n) else 1 << n for p, q in sums)
    if work > PRODUCT_SUPPORT_CAP:
        raise CostGuardExceeded("PRODUCT_SUPPORT_CAP", work, "fibre pair sums too large")
    total, lo = 0.0, 0
    while lo < k:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + BATCH_ELEMS, "right")) - 1)
        c = k - x[lo:hi]
        a, b = np.repeat(x[lo:hi], c), np.arange(c.sum()) - np.repeat(np.cumsum(c) - k, c)
        h, dense = np.empty(len(a)), b >= j[a]
        h[~dense] = _listed_sum_entropies(n, col, w, cut, a[~dense], b[~dense])
        runs, at = np.unique(np.r_[a[dense], b[dense]], return_inverse=True)
        laws = [Dist(n, idx=col[cut[r]:cut[r + 1]], w=w[cut[r]:cut[r + 1]]) for r in runs.tolist()]
        h[dense] = rdist_pairs(laws, *at.reshape(2, -1)) + 0.5 * (H[a[dense]] + H[b[dense]])
        total += float((np.where(a == b, 1.0, 2.0) * m[a] * m[b]) @ h)
        lo = hi
    return total


def _product_entropies(S: np.ndarray, a: np.ndarray, T: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """H[x ^ y] for the laws x, y with spectra S[a[k]], T[b[k]], for every k;
    products are formed in place, BATCH_ELEMS entries at a time."""
    H = np.empty(len(a))
    step = max(1, BATCH_ELEMS // S.shape[1])
    for lo in range(0, len(a), step):
        P = S[a[lo:lo + step]]
        P *= T[b[lo:lo + step]]
        H[lo:lo + step] = conv_entropy(P)
    return H


def rdist_matrix(xs: Sequence[Dist], ys: Sequence[Dist]) -> np.ndarray:
    """All pairwise distances d[xs[i]; ys[j]] as an (len(xs), len(ys)) array."""
    i, j = np.indices((len(xs), len(ys))).reshape(2, -1)
    return rdist_pairs([*xs, *ys], i, j + len(xs)).reshape(len(xs), len(ys))


def rdist_one_many(X: Dist, ys: Sequence[Dist]) -> np.ndarray:
    return rdist_matrix([X], ys)[0]


def rdist_paired(xs: Sequence[Dist], ys: Sequence[Dist]) -> np.ndarray:
    """Elementwise distances d[xs[i]; ys[i]] for aligned slice lists."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    k = np.arange(len(xs))
    return rdist_pairs([*xs, *ys], k, k + len(xs))


def cond_rdist(slices_x: Slices, slices_y: Slices) -> float:
    """d[X|Z; Y|W] as the probability-weighted average of slice distances.

    The two conditionings are independent, so every (z, w) pair contributes
    p(z) p(w) d[(X|Z=z); (Y|W=w)].
    """
    px = np.array([p for p, _ in slices_x])
    py = np.array([p for p, _ in slices_y])
    D = rdist_matrix([d for _, d in slices_x], [d for _, d in slices_y])
    return float(px @ D @ py)


def cond_rdist_via_joint(JX: JointDist, JY: JointDist,
                         x=0, z=1, y=0, w=1) -> float:
    """The same conditional distance through joint entropies.

    Computes H[X^Y | Z,W] - H[X|Z]/2 - H[Y|W]/2 on the independent product
    of the two joints. Agrees with the slice average to numerical precision;
    kept as an independent path for tests.
    """
    P = joint_product(JX.marginal([x, z]), JY.marginal([y, w]))
    S = P.pushforward([[0, 2], [1], [3]])
    return (S.cond_entropy(0, [1, 2])
            - 0.5 * JX.cond_entropy(x, z)
            - 0.5 * JY.cond_entropy(y, w))


def slices_of(J: JointDist, target, given) -> List[Tuple[float, Dist]]:
    return [(p, d) for _, p, d in J.slices(target, given)]


# -- the reference pair and tau --------------------------------------------

TIE_TOL = 1e-12


def _first_least(taus: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """The tie rule of every pick: for each nonempty run
    taus[cut[r]:cut[r + 1]], in tie order, the index of its first entry
    within TIE_TOL of the run's least, so that round-off, which differs
    between scoring paths, cannot reorder taus that tie."""
    starts = cut[:-1]
    least = np.minimum.reduceat(taus, starts)
    hit = np.flatnonzero(taus <= np.repeat(least + TIE_TOL, cut[1:] - starts))
    return hit[hit.searchsorted(starts)]


@dataclass(frozen=True)
class RefPair:
    """The fixed pair (X01, X02) every tau evaluation refers back to."""
    X01: Dist
    X02: Dist
    eta: float = ETA_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.eta < ETA_MAX:
            raise ValueError(f"eta must lie in (0, {ETA_MAX:.6f})")
        if self.X01.n != self.X02.n:
            raise ValueError("reference distributions live in different groups")

    @property
    def n(self) -> int:
        return self.X01.n

    def tau(self, X1: Dist, X2: Dist) -> float:
        return self.tau_of(rdist(X1, X2), rdist(self.X01, X1), rdist(self.X02, X2))

    def tau_of(self, d, d1, d2):
        """tau from its parts d[X1; X2], d[X01; X1] and d[X02; X2]."""
        return d + self.eta * d1 + self.eta * d2

    def parts(self, laws: Sequence[Dist], i, j) -> np.ndarray:
        """The parts d, d1, d2 of tau[laws[i[k]]; laws[j[k]]] for every k, as
        rows, through one rdist_pairs call with the references first, so
        each distinct law is transformed once."""
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        return rdist_pairs([self.X01, self.X02, *laws],
                           np.r_[i + 2, np.zeros_like(i), np.ones_like(j)],
                           np.r_[j, i, j] + 2).reshape(3, -1)


# -- inequality corpus ------------------------------------------------------

def check_triangle(X: Dist, Y: Dist, Z: Dist) -> IneqReport:
    """d[X;Y] <= d[X;Z] + d[Z;Y]."""
    return IneqReport("triangle", rdist(X, Y), rdist(X, Z) + rdist(Z, Y))


def check_madiman(X: Dist, Y: Dist, Z: Dist) -> IneqReport:
    """H[X+Y+Z] - H[X+Y] <= H[Y+Z] - H[Y] for independent X, Y, Z."""
    XY = xor_convolve(X, Y)
    YZ = xor_convolve(Y, Z)
    lhs = entropy(xor_convolve(XY, Z)) - entropy(XY)
    rhs = entropy(YZ) - Y.entropy()
    return IneqReport("madiman", lhs, rhs)


def check_cond_distance(JX: JointDist, JY: JointDist,
                        x=0, z=1, y=0, w=1) -> IneqReport:
    """d[X|Z; Y|W] <= d[X;Y] + I[X:Z]/2 + I[Y:W]/2."""
    lhs = cond_rdist(slices_of(JX, x, z), slices_of(JY, y, w))
    rhs = (rdist(JX.marginal_dist(x), JY.marginal_dist(y))
           + 0.5 * JX.mutual_info(x, z) + 0.5 * JY.mutual_info(y, w))
    return IneqReport("cond-distance", lhs, rhs)


def check_sum_shift(X: Dist, Y: Dist, Z: Dist) -> IneqReport:
    """d[X;Y+Z] - d[X;Y] <= (H[Y+Z] - H[Y])/2 for independent Y, Z."""
    YZ = xor_convolve(Y, Z)
    lhs = rdist(X, YZ) - rdist(X, Y)
    rhs = 0.5 * (entropy(YZ) - Y.entropy())
    return IneqReport("sum-shift", lhs, rhs)


def check_sum_shift_cond(X: Dist, Y: Dist, Z: Dist) -> IneqReport:
    """d[X; Y|Y+Z] - d[X;Y] <= (H[Y+Z] - H[Z])/2 for independent Y, Z.

    The masses of the fibres Y | Y + Z = s are the law of Y + Z."""
    fibres = _cross_fibres(Y, Z)
    lhs = cond_rdist(one(X), fibres) - rdist(X, Y)
    rhs = 0.5 * (_entropy_weights([p for p, _ in fibres]) - Z.entropy())
    return IneqReport("sum-shift-cond", lhs, rhs)


def check_double_shift(X: Dist, Y: Dist, Z: Dist, Zp: Dist) -> IneqReport:
    """d[X; Y+Z | Y+Z+Z'] - d[X;Y] <= (H[Y+Z+Z'] + H[Y+Z] - H[Y] - H[Z'])/2.

    Y, Z, Z' independent; T = Y + Z is conditioned as in check_sum_shift_cond.
    """
    T = xor_convolve(Y, Z)
    fibres = _cross_fibres(T, Zp)
    lhs = cond_rdist(one(X), fibres) - rdist(X, Y)
    rhs = 0.5 * (_entropy_weights([p for p, _ in fibres]) + T.entropy()
                 - Y.entropy() - Zp.entropy())
    return IneqReport("double-shift", lhs, rhs)


def check_ruzsa_diff(X: Dist, Y: Dist) -> IneqReport:
    """|H[X] - H[Y]| <= 2 d[X;Y]."""
    return IneqReport("ruzsa-diff", abs(X.entropy() - Y.entropy()), 2.0 * rdist(X, Y))


def check_submodularity(J: JointDist, a=0, b=1, given=2) -> IneqReport:
    """I[a : b | given] >= 0."""
    return IneqReport("submodularity", 0.0, J.cond_mutual_info(a, b, given))


def check_xor_lower(J: JointDist, a=0, b=1) -> IneqReport:
    """max(H[X], H[Y]) - I[X:Y] <= H[X^Y] on a joint pair."""
    lhs = max(J.entropy(a), J.entropy(b)) - J.mutual_info(a, b)
    rhs = J.pushforward([[a, b]]).entropy()
    return IneqReport("xor-lower", lhs, rhs)
