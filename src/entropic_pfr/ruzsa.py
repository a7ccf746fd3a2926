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
from typing import List, Optional, Sequence, Tuple

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
# The batched distance kernel (_rdists) holds dense (rows, 2^n) laws and their
# products BATCH_ELEMS entries at a time; above BATCH_BITS it scores sparse
# Dists pair by pair.
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


def _take_runs(col: np.ndarray, w: np.ndarray, cut: np.ndarray, runs: np.ndarray):
    """col, w and cut of the given runs alone, in that order."""
    size = cut[runs + 1] - cut[runs]
    at = np.repeat(cut[runs] - np.cumsum(size) + size, size) + np.arange(size.sum())
    return col[at], w[at], np.concatenate([[0], np.cumsum(size)])


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


def _rdists(n: int, a, b, refs: Sequence[Dist] = (), runs=None, sums=((), ())) -> np.ndarray:
    """d[E_a[k]; E_b[k]] for every k: the one kernel of the batched distances.

    The elements E are the laws refs, then the laws of the runs
    col[cut[r]:cut[r + 1]] of runs = (col, w, cut), with weights w of any
    scale, then the laws of x ^ y for independent x and y of the laws of the
    runs sums[0][s] and sums[1][s]. A sum is the second element of its
    pairs and pairs only with itself or with a reference. Up to BATCH_BITS
    the references, merged by _distinct, and the runs the pairs read,
    merged by _dense_runs, are one stack of dense rows, each distinct row
    transformed once. A reference's or run's entropy is read from its row;
    a sum's spectrum is the product of its two runs' spectra, and its
    entropy and its products with itself and with the references are
    scored in the stack of that product. Products are formed in place and
    each distinct one is scored once, by conv_entropy on at most
    BATCH_ELEMS entries at a time, or on one sum's products when they hold
    more. When the runs do not fit one stack of BATCH_ELEMS entries with
    the references, the pairs are walked in chunks (_run_chunks), each one
    stack. Above BATCH_BITS each element is one Dist, a sum taken by
    xor_convolve, and each distinct pair is scored by rdist.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if not len(a):
        return np.zeros(0)
    col, w, cut = runs or (None, None, np.zeros(1, dtype=np.intp))
    x, y = (np.asarray(s, dtype=np.intp) for s in sums)
    m = len(cut) - 1
    if n > BATCH_BITS:
        run = [Dist(n, idx=col[s:t], w=w[s:t]) for s, t in zip(cut[:-1].tolist(), cut[1:].tolist())]
        u, laws = _distinct([*refs, *run, *(xor_convolve(run[s], run[t]) for s, t in zip(x, y))])
        i, j = np.sort([u[a], u[b]], axis=0)   # each distinct unordered pair once
        pairs, inv = np.unique(i * len(laws) + j, return_inverse=True)
        return np.array([rdist(laws[s], laws[t]) for s, t in zip(*divmod(pairs, len(laws)))])[inv]
    u, refs = _distinct(refs)
    q, rows = len(refs), BATCH_ELEMS >> n
    R = np.stack([X.dense() for X in refs]) if q else np.empty((0, 1 << n))
    if runs is None:   # references alone: one stack
        return _stack_rdists(fwht(R), _entropy_rows(R), rows, q, u[a], u[b], None)
    # each pair as two rows of the stack, runs numbered from q: its elements'
    # rows, or a sum's two runs; and with sums its partner slot: -1 for no
    # sum, 0 for the sum itself, 1 + r for the reference of row r
    e1, e2 = (np.concatenate([u, q + np.arange(m), q + z]) for z in (x, y))
    ends = np.where(b >= len(u) + m, e1[b], e1[a]), e2[b]
    slot = np.where(b >= len(u) + m, np.where(a == b, 0, 1 + e1[a]), -1) if len(x) else None
    cap, chunks = max(2, rows - q), [slice(None)]
    if m > cap:   # a pair reads its two rows' runs; a reference comes first
        lo = np.where(ends[0] >= q, *ends)
        order = np.lexsort((ends[1], lo))
        bounds = _run_chunks(lo[order], ends[1][order], cap)
        chunks = [order[s:t] for s, t in zip(bounds[:-1], bounds[1:])]
    out, stack_of = np.empty(len(a)), np.arange(q + m)
    for k in chunks:
        D, g = R, q + np.flatnonzero(np.bincount(np.concatenate([e[k] for e in ends]),
                                                 minlength=q + m)[q:])
        if len(g):   # the runs the chunk reads, after the references
            D, back = _dense_runs(n, *(_take_runs(col, w, cut, g - q) if len(g) < m
                                       else (col, w, cut)))
            stack_of[g] = q + back
            D = np.concatenate([R, D]) if q else D
        h, F = _entropy_rows(D), fwht(D)
        del D
        out[k] = _stack_rdists(F, h, rows, q, *(stack_of[e[k]] for e in ends),
                               None if slot is None else slot[k])
    return out


def _stack_rdists(F: np.ndarray, h: np.ndarray, rows: int, q: int, r1: np.ndarray,
                  r2: np.ndarray, slot: Optional[np.ndarray]) -> np.ndarray:
    """_rdists on one stack F of spectra, of entropies h, whose first q rows
    are the references: pair k is the product of rows r1[k] and r2[k] when
    there are no slots or slot[k] < 0, and else that product (a sum) times
    itself (slot 0) or times reference slot[k] - 1."""
    prod, inv = np.unique(np.minimum(r1, r2) * len(F) + np.maximum(r1, r2), return_inverse=True)
    fa, fb = np.divmod(prod, len(F))
    # each product's second products, by slot, and the first row of each in P
    used = np.zeros((len(prod), 0 if slot is None else q + 1), dtype=bool)
    stop = np.arange(len(prod) + 1)
    if slot is not None:
        two = slot >= 0
        used[inv[two], slot[two]] = True
        stop = np.concatenate([[0], np.cumsum(1 + used.sum(axis=1))])
    H1, H2, lo = np.empty(len(prod)), np.empty(used.shape), 0
    while lo < len(prod):
        hi = max(lo + 1, int(np.searchsorted(stop, stop[lo] + rows, "right")) - 1)
        P = np.empty((stop[hi] - stop[lo], F.shape[1]))
        T, at = P[:hi - lo], hi - lo
        np.multiply(np.take(F, fa[lo:hi], axis=0, out=T, mode="clip"), F[fb[lo:hi]], out=T)
        for j in range(used.shape[1]):
            sel = np.flatnonzero(used[lo:hi, j])
            src = T if len(sel) == len(T) else T[sel]
            np.multiply(src, src if j == 0 else F[j - 1], out=P[at:at + len(sel)])
            at += len(sel)
        H = conv_entropy(P)
        H1[lo:hi] = H[:len(T)]
        H2[lo:hi].T[used[lo:hi].T] = H[len(T):]
        lo = hi
    Hs = H1[inv]   # each pair's product's entropy, a sum's own
    d = Hs - 0.5 * h[r1] - 0.5 * h[r2]
    if slot is None:
        return d
    s, Hs = slot[two], Hs[two]
    d[two] = H2[inv[two], s] - 0.5 * np.where(s == 0, Hs, h[s - 1]) - 0.5 * Hs
    return d


def rdist_pairs(laws: Sequence[Dist], i, j) -> np.ndarray:
    """d[laws[i[k]]; laws[j[k]]] for every k, each unordered pair once: the
    laws as references of _rdists, so byte-equal laws count as one."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise ValueError("length mismatch")
    if len(i) and any(d.n != laws[0].n for d in laws):
        raise ValueError("dimension mismatch")
    return _rdists(laws[0].n if len(i) else 0, i, j, laws)


def rdist_runs(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
               refs: Sequence[Dist] = ()) -> np.ndarray:
    """d[L; L], then d[R; L] for each R in refs, as rows over the runs r,
    L the law on F_2^n of the values col[cut[r]:cut[r + 1]] with weights w
    (of any scale): a family of conditional laws, cut by one sort, scored
    by _rdists."""
    q, k = len(refs), len(refs) + np.arange(len(cut) - 1)
    return _rdists(n, np.concatenate([k, np.repeat(np.arange(q), len(k))]), np.tile(k, q + 1),
                   refs, (col, w, cut)).reshape(q + 1, len(k))


def rdist_run_sums(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                   i, j, refs: Sequence[Dist] = ()) -> np.ndarray:
    """d[L; L], then d[R; L] for each R in refs, as rows over k, L the law
    of x ^ y for independent x and y of the laws of the runs i[k] and j[k]
    of col, with weights w, cut as in rdist_runs: the sum of two
    conditional laws, such as a row of the endgame, scored by _rdists. Runs
    of byte-equal laws count as one, and so does a pair of the same two runs
    in either order."""
    q, k = len(refs), len(refs) + len(cut) - 1 + np.arange(len(i))
    return _rdists(n, np.concatenate([k, np.repeat(np.arange(q), len(k))]), np.tile(k, q + 1),
                   refs, (col, w, cut), (i, j)).reshape(q + 1, len(k))


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
    dists._enum_bound, else by _rdists. The work, enumerated entries
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
        h[dense] = (_rdists(n, a[dense], b[dense], runs=(col, w, cut))
                    + 0.5 * (H[a[dense]] + H[b[dense]]))
        total += float((np.where(a == b, 1.0, 2.0) * m[a] * m[b]) @ h)
        lo = hi
    return total


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
