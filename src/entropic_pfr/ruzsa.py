"""Entropic Ruzsa distance over F_2^n and the inequality corpus around it.

The distance of two distributions is

    d[X; Y] = H[X' ^ Y'] - H[X']/2 - H[Y']/2

with X', Y' independent copies; addition and subtraction coincide with XOR
here. Conditional distances average d over independent conditioning values,
each family of conditional laws held as runs of one sort (cond_rdist); an
equivalent joint-entropy form is kept alongside as a cross-check. Each
check_* function evaluates one inequality exactly on concrete distributions and reports lhs, rhs and slack; slack below -1e-9
counts as a violation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .dists import (ENTROPY_FLOOR, PRODUCT_SUPPORT_CAP, CostGuardExceeded, Dist, JointDist,
                    _cross_family, _dim_guard, _entropy_weights, _enum_bound, _group, _runs,
                    conv_entropy, entropy, fwht, joint_product, xor_convolve)

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
# The batched distance kernel (_rdists) lists each sum of runs or forms it
# from dense spectra (_list_bound), BATCH_ELEMS entries at a time.
BATCH_ELEMS = 1 << 21

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


# -- batched distance evaluation -------------------------------------------

def _law_key(d: Dist) -> Tuple[bytes, ...]:
    """The bytes of d's support and weights: byte-equal laws share a key."""
    return tuple(a.tobytes() for a in d.items())


def _list_bound(n: int) -> int:
    """2^n, the one enumerate-or-transform rule of the batched distances: a
    sum of independent laws whose support sizes multiply below it is
    listed, its support tuples enumerated, and any other is formed from
    dense spectra, a transform of 2^n entries."""
    return 1 << n


def _grouped_runs(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray):
    """col, w and cut of the laws on F_2^n of the runs col[cut[r]:cut[r + 1]]
    with weights w of any scale: each run's values ascending and distinct
    (dists._group), its weights of mass one."""
    size = np.diff(cut)
    run = np.repeat(np.arange(len(size)), size)
    key, w = _group((run << n) | col[cut[0]:cut[-1]], w[cut[0]:cut[-1]],
                    n + len(size).bit_length())
    cut = np.concatenate([[0], np.cumsum(np.bincount(key >> n, minlength=len(size)))])
    w /= np.repeat(np.add.reduceat(w, cut[:-1]), cut[1:] - cut[:-1])
    return key & ((1 << n) - 1), w, cut


def _law_ids(col: np.ndarray, w: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """For each run, the first run of byte-equal values and weights."""
    ids: dict = {}
    return np.array([ids.setdefault((col[a:b].tobytes(), w[a:b].tobytes()), r)
                     for r, (a, b) in enumerate(zip(cut[:-1].tolist(), cut[1:].tolist()))],
                    dtype=np.intp)


def _run_entropies(w: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """The entropy of each run of weights w of mass one (cut[0] = 0), with
    the floor of _entropy_weights."""
    start, size = cut[:-1], cut[1:] - cut[:-1]
    top = np.repeat(np.maximum.reduceat(w, start), size)
    safe = np.where(w > ENTROPY_FLOOR * top, w, 1.0)
    return -np.add.reduceat(safe * np.log(safe), start)


def _run_chunks(reads: np.ndarray, cap: int) -> List[int]:
    """Bounds of consecutive chunks of the items k, each reading the runs
    reads[k] (-1 for none): each chunk reads at most cap distinct runs, or
    one item's when they are more, and is as long as it can be."""
    bounds, seen = [0], set()
    for k, item in enumerate(reads.tolist()):
        more = seen.union(item) - {-1}
        if seen and len(more) > cap:
            bounds.append(k)
            more = set(item) - {-1}
        seen = more
    return bounds + [len(reads)]


def _rdists(n: int, a, b, refs: Sequence[Dist] = (), runs=None, sums=((), ())) -> np.ndarray:
    """d[E_a[k]; E_b[k]] for every k: the one kernel of the batched distances.

    The elements E are the laws refs, then the laws of the runs
    col[cut[r]:cut[r + 1]] of runs = (col, w, cut), with weights w of any
    scale, then the laws of x ^ y for independent x and y of the laws of the
    runs sums[0][s] and sums[1][s]. A sum pairs only with itself or with a
    reference or run. The references join the runs, byte-equal laws are
    merged (_law_ids) and so are sums of the same two laws in either
    order. An element is its summands, a law its own run and a sum its two,
    so each distinct unordered pair and each distinct sum is one row of two
    to four runs, scored once by _sum_entropies: the entropy of their sum.
    A law's entropy is read from its weights, a sum's from its own row.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if not len(a):
        return np.zeros(0)
    if any(d.n != n for d in refs):
        raise ValueError("dimension mismatch")
    laws, h = [d.items() for d in refs], np.array([d.entropy() for d in refs])   # a law's entropy
    size = np.array([len(v) for v, _ in laws], dtype=np.intp)
    if runs is not None:
        col, w, cut = _grouped_runs(n, *runs)
        laws.append((col, w))
        size, h = np.concatenate([size, np.diff(cut)]), np.concatenate([h, _run_entropies(w, cut)])
    col, w = (np.concatenate(z) for z in zip(*laws))
    cut = np.concatenate([[0], np.cumsum(size)])
    law = _law_ids(col, w, cut)
    m, e, xy = len(cut) - 1, law, np.zeros(0, dtype=np.intp)
    if len(sums[0]):   # the distinct sums (x, y), x <= y, numbered from m
        x, y = (law[len(refs) + np.asarray(v, dtype=np.intp)] for v in sums)
        xy, s = np.unique(np.minimum(x, y) * m + np.maximum(x, y), return_inverse=True)
        e = np.concatenate([law, m + s.ravel()])
    k = m + len(xy)
    ea, eb = np.minimum(e[a], e[b]), np.maximum(e[a], e[b])   # a sum second
    key = ea * k + eb
    if len(xy):   # the pairs of two laws first, then of a law and a sum, then of a sum twice
        key[eb >= m] += k * k
    pair, inv = np.unique(key, return_inverse=True)
    ea, eb = np.divmod(pair, k)
    if not len(xy):
        H = _sum_entropies(n, col, w, cut, np.array([ea, eb]).T)
    else:
        ea %= k   # the key's leading digit, the pair's count of sums, off
        S = np.full((k + 1, 2), -1)   # each element's runs (a law's own, a sum's two), then none
        S[:m, 0], S[m:k, 0], S[m:k, 1] = np.arange(m), xy // m, xy % m
        # the rows by summand count: each sum's own, then each pair's, a sum's runs first
        at = np.concatenate([[np.arange(m, k), np.full(len(xy), k)], [eb, ea]], axis=1)
        R = np.take(S, at.T, axis=0).reshape(-1, 4)
        two = len(xy) + np.searchsorted(pair, k * k)
        R[len(xy):two] = R[len(xy):two, [2, 0, 1, 3]]   # two laws: (ea, eb), none after
        H = _sum_entropies(n, col, w, cut, R)
        h, H = np.concatenate([h, H[:len(xy)]]), H[len(xy):]   # then a sum's
    return (H - 0.5 * h[ea] - 0.5 * h[eb])[inv.ravel()]


def _sum_entropies(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                   R: np.ndarray) -> np.ndarray:
    """H[L_R[k, 0] + L_R[k, 1] + ...] for every row k of the summand table
    R, L_r the law of run r (values distinct, mass one) and the summands
    independent: at least two a row, then -1 for none, the rows ordered by
    their count of summands. A row whose summands' support sizes multiply
    below _list_bound(n) is listed (_listed_sum_entropies, one call per
    count), any other formed from dense spectra (_dense_sum_entropies)."""
    size = (cut[1:] - cut[:-1]).astype(float)
    work, ends = size[R[:, 0]] * size[R[:, 1]], [0]
    for r in R.T[2:]:   # a third and a fourth summand, where present
        work = work * np.where(r < 0, 1.0, size[r])
        ends.append(np.count_nonzero(r < 0))
    listed, out = work < _list_bound(n), np.empty(len(R))
    for c, lo, hi in zip(range(2, 5), ends, ends[1:] + [len(R)]):   # the rows of c summands
        k = lo + np.flatnonzero(listed[lo:hi])
        if len(k):
            out[k] = _listed_sum_entropies(n, col, w, cut, *np.take(R.T[:c], k, axis=1))
    k = np.flatnonzero(~listed)
    if len(k):
        out[k] = _dense_sum_entropies(n, col, w, cut, np.take(R, k, axis=0))
    return out


def _listed_sum_entropies(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                          *runs: np.ndarray) -> np.ndarray:
    """H[L_1 + ... + L_c] for every k, L_i the law of the run runs[i][k]
    (values distinct, mass one) and the summands independent: each sum
    listed from its support tuples, keyed by k and grouped once
    (dists._group), at most BATCH_ELEMS entries at a time, or one sum when
    it holds more."""
    span = cut[1:] - cut[:-1]
    size = span[runs[0]]
    for r in runs[1:]:
        size = size * span[r]
    ends = np.concatenate([[0], np.cumsum(size)])
    out, lo = np.empty(len(size)), 0
    while lo < len(size):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + BATCH_ELEMS, "right")) - 1)
        item = np.repeat(np.arange(hi - lo), size[lo:hi])
        at, key, p = np.arange(ends[hi] - ends[lo]) - (ends[lo:hi] - ends[lo])[item], 0, 1.0
        for r in runs[:0:-1]:   # the last summand varies fastest
            r = r[lo:hi][item]
            at, e = np.divmod(at, span[r])
            e += cut[r]
            key, p = key ^ col[e], p * w[e]
        at += cut[runs[0][lo:hi]][item]
        key, p = key ^ col[at], p * w[at]
        key, p = _group((item << n) | key, p, n + (hi - lo).bit_length())
        out[lo:hi] = -np.bincount(key >> n, weights=p * np.log(p), minlength=hi - lo)
        lo = hi
    return out


def _dense_sum_entropies(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                         R: np.ndarray) -> np.ndarray:
    """_sum_entropies from dense spectra. The runs the rows read are one
    stack, each transformed once, or, past BATCH_ELEMS entries, the rows
    are walked in chunks (_run_chunks), each stack at most BATCH_ELEMS
    entries or the runs of one row. A row's spectrum is the product of its
    runs', formed in place one column at a time over the rows with a
    summand there (R is ordered by count), and scored by conv_entropy at
    most BATCH_ELEMS entries at a time, or one row when a run holds more."""
    out, rows = np.empty(len(R)), max(BATCH_ELEMS >> n, 1)
    g = np.flatnonzero(np.bincount(R.ravel() + 1, minlength=len(cut))[1:])
    chunks = [np.arange(len(R))]
    if len(g) > rows:
        top = -np.sort(-R, axis=1)   # each row's runs, largest first
        order = np.lexsort(top.T[::-1])
        chunks = [np.sort(c) for c in np.split(order, _run_chunks(top[order], rows)[1:-1])]
    slot = np.zeros(len(cut), dtype=np.intp)   # each run's row in the stack
    for c in chunks:
        C = np.take(R, c, axis=0).T
        if len(chunks) > 1:
            g = np.unique(C[C >= 0])
        slot[g] = np.arange(len(g))
        f, first = slot[C], [0, *(np.count_nonzero(r < 0) for r in C[2:])]
        size = cut[g + 1] - cut[g]   # the runs as dense rows of 2^n, transformed
        at = np.repeat(cut[g] - np.cumsum(size) + size, size) + np.arange(size.sum())
        F = fwht(np.bincount(np.repeat(np.arange(len(g)) << n, size) + col[at], weights=w[at],
                             minlength=len(g) << n).reshape(len(g), -1))
        for lo in range(0, len(c), rows):
            hi = min(lo + rows, len(c))
            P = np.take(F, f[0, lo:hi], axis=0)
            for r, s in zip(f[1:], first):   # each further column, from its row s on
                P[max(s - lo, 0):] *= np.take(F, r[max(s, lo):hi], axis=0)
            out[c[lo:hi]] = conv_entropy(P)
        del F, P   # before the next chunk's stack is formed
    return out


def rdist_pairs(laws: Sequence[Dist], i, j) -> np.ndarray:
    """d[laws[i[k]]; laws[j[k]]] for every k, each unordered pair once: the
    laws as references of _rdists, so byte-equal laws count as one."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise ValueError("length mismatch")
    return _rdists(laws[0].n if len(i) else 0, i, j, laws)


def rdist_runs(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
               refs: Sequence[Dist] = ()) -> np.ndarray:
    """d[L; L], then d[R; L] for each R in refs, as rows over the runs r,
    L the law on F_2^n of the values col[cut[r]:cut[r + 1]] with weights w
    (of any scale): a family of conditional laws, cut by one sort, scored
    by _rdists. A reference off F_2^n raises ValueError."""
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
    in either order. A reference off F_2^n raises ValueError."""
    q, k = len(refs), len(refs) + len(cut) - 1 + np.arange(len(i))
    return _rdists(n, np.concatenate([k, np.repeat(np.arange(q), len(k))]), np.tile(k, q + 1),
                   refs, (col, w, cut), (i, j)).reshape(q + 1, len(k))


def _run_pair_entropy(n: int, col: np.ndarray, w: np.ndarray, cut: np.ndarray,
                      sums: Sequence[Tuple[int, int]] = ()) -> float:
    """The sum over ordered pairs (x, y) of runs of m_x m_y H[L_x * L_y], m_x
    the mass w of run x and L_x its law, cut as in rdist_runs. Byte-equal
    laws count as one, and each unordered pair of laws is one row of a
    two-column table that _sum_entropies scores once, in blocks of at most
    BATCH_ELEMS entries of work. The work, |L_x| |L_y| entries a listed
    pair and 2^n a transformed one (_list_bound), plus xor_convolve's on
    supports of each size pair in sums, raises CostGuardExceeded past
    PRODUCT_SUPPORT_CAP before any pair is scored; under it, with
    n <= DENSE_BITS, the keys of _listed_sum_entropies fit in int64."""
    mass = np.add.reduceat(w, cut[:-1])
    col, w, cut = _grouped_runs(n, col, w, cut)
    law = _law_ids(col, w, cut)
    m, first = np.bincount(law, weights=mass, minlength=len(law)), np.unique(law)
    by_size = first[np.argsort(np.diff(cut)[first], kind="stable")]   # the laws by size
    size, k, bound = np.diff(cut)[by_size], len(by_size), _list_bound(n)
    at, x = np.r_[0, np.cumsum(size)], np.arange(k)
    # row x pairs law x with each y >= x, listed while y < j[x], by size
    j = np.maximum(np.searchsorted(size, -(-bound // size)), x)
    ends = np.r_[0, np.cumsum(size * (at[j] - at[x]) + (k - j) * bound)]
    work = int(ends[-1]) + sum(p * q if p * q < _enum_bound(n) else 1 << n for p, q in sums)
    if work > PRODUCT_SUPPORT_CAP:
        raise CostGuardExceeded("PRODUCT_SUPPORT_CAP", work, "fibre pair sums too large")
    total, lo = 0.0, 0
    while lo < k:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + BATCH_ELEMS, "right")) - 1)
        c = k - x[lo:hi]
        a = by_size[np.repeat(x[lo:hi], c)]
        b = by_size[np.arange(c.sum()) - np.repeat(np.cumsum(c) - k, c)]
        h = _sum_entropies(n, col, w, cut, np.array([a, b]).T)
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


def cond_rdist(n: int, x, y) -> float:
    """d[X|Z; Y|W], the sum of p(z) p(w) d[X|z; Y|w], Z and W independent.
    x and y are families of laws on F_2^n, each runs (col, w, cut) covering
    col: X|z has the values col[cut[z]:cut[z + 1]] with their weights, of
    any scale, and p(z) is their sum over the family's. One _rdists call
    over the two families joined scores every distinct pair of run laws
    once. n > DENSE_BITS raises CostGuardExceeded before any scoring."""
    _dim_guard(n)
    (cx, wx, kx), (cy, wy, ky) = x, y
    px, py = np.add.reduceat(wx, kx[:-1]), np.add.reduceat(wy, ky[:-1])
    i, j = np.indices((len(px), len(py))).reshape(2, -1)
    d = _rdists(n, i, j + len(px), (),
                (np.concatenate([cx, cy]), np.concatenate([wx, wy]), np.r_[kx, kx[-1] + ky[1:]]))
    return float(np.outer(px / px.sum(), py / py.sum()).ravel() @ d)


def _law_runs(*laws: Dist):
    """The laws as one family of runs (col, w, cut), each of weight one."""
    col, w = (np.concatenate(z) for z in zip(*(d.items() for d in laws)))
    return col, w, np.r_[0, np.cumsum([d.support_size() for d in laws])]


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
    rhs = (rdist(JX.marginal_dist(x), JY.marginal_dist(y))
           + 0.5 * JX.mutual_info(x, z) + 0.5 * JY.mutual_info(y, w))
    (kx, px), (ky, py), n = JX.marginal([x, z]).items(), JY.marginal([y, w]).items(), JX.n
    # a marginal's keys ascend with the conditioning axis high: a run a value
    lhs = cond_rdist(n, (kx & ((1 << n) - 1), px, _runs(kx >> n)),
                     (ky & ((1 << n) - 1), py, _runs(ky >> n)))
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
    _, w, cut = fibres = _cross_family(Y, Z)
    lhs = cond_rdist(X.n, _law_runs(X), fibres) - rdist(X, Y)
    rhs = 0.5 * (_entropy_weights(np.add.reduceat(w, cut[:-1])) - Z.entropy())
    return IneqReport("sum-shift-cond", lhs, rhs)


def check_double_shift(X: Dist, Y: Dist, Z: Dist, Zp: Dist) -> IneqReport:
    """d[X; Y+Z | Y+Z+Z'] - d[X;Y] <= (H[Y+Z+Z'] + H[Y+Z] - H[Y] - H[Z'])/2.

    Y, Z, Z' independent; T = Y + Z is conditioned as in check_sum_shift_cond.
    """
    T = xor_convolve(Y, Z)
    _, w, cut = fibres = _cross_family(T, Zp)
    lhs = cond_rdist(X.n, _law_runs(X), fibres) - rdist(X, Y)
    rhs = 0.5 * (_entropy_weights(np.add.reduceat(w, cut[:-1])) + T.entropy()
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
