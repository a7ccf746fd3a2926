"""Entropic Balog-Szemeredi-Gowers, conditionally independent trials, and
the endgame tables over the sum variables U, V, W, S.

Given independent X1, X2 and fresh copies X~1, X~2:

    U = X1 ^ X2,  V = X~1 ^ X2,  W = X1 ^ X~1,  S = X1 ^ X2 ^ X~1 ^ X~2,

so U ^ V ^ W = 0 and S is the sum of all four. The joint law of (U, V, S)
determines every entropy the endgame estimates need; swapping X1 with X~1
exchanges U and V while fixing S, which forces I[W:U|S] = I[V:W|S] exactly.

Descent conditions (U, V, S) on its heaviest values of S and takes the
abstract endgame choice in each slice; endgame_choices scores all of those
slices in one batched pass, and abstract_endgame is its one-slice case.
Given T_gamma = t in a triple with T1 ^ T2 ^ T3 = 0, the other two members
are translates by t, so the twins (alpha, beta) and (beta, alpha) share one
tau and only alpha < beta is scored; bsg_check uses this given Z = A ^ B.
The U <-> V swap fixes each slice S = s, so there U | V = t has the law of
V | U = t and W | V = t that of W | U = t: endgame_choices drops the
gamma = V rows, which repeat the gamma = U rows. abstract_endgame takes a
general (T1, T2) law and scores all three gammas.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .dists import CostGuardExceeded, Dist, JointDist, _clean_wht_output, fwht
from . import ruzsa
from .ruzsa import RefPair, rdist, rdist_matrix, rdist_pairs

__all__ = [
    "BsgReport",
    "bsg_check",
    "cond_indep_trials",
    "trials_entropy_gap",
    "EndgameTables",
    "endgame_tables",
    "EndgameChoice",
    "abstract_endgame",
    "endgame_choices",
    "endgame_bound",
]

ENDGAME_DENSE_BITS = 21   # spectral path: one length-8^n transform
ENDGAME_SUPPORT_CAP = 1 << 24


@dataclass(frozen=True)
class BsgReport:
    """Average slice distance against 3 I[A:B] + 2H[A^B] - H[A] - H[B]."""
    lhs: float
    i_AB: float
    rhs: float
    slack: float

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-9


def bsg_check(J: JointDist, a=0, b=1) -> BsgReport:
    """Check the sum-conditioned distance bound on a joint pair (A, B).

    Conditioning both coordinates on Z = A ^ B and averaging d over the
    slices is controlled by the mutual information between A and B. Given
    Z = z, B is A translated by z: each slice distance is d[A|z; A|z].
    """
    J3 = J.pushforward([[a], [b], [a, b]], ["A", "B", "Z"])
    sl = J3.slices("A", "Z")
    probs = np.array([p for _, p, _ in sl])
    k = np.arange(len(sl))
    lhs = float(probs @ rdist_pairs([d for _, _, d in sl], k, k))
    i_ab = J.mutual_info(a, b)
    rhs = (3.0 * i_ab + 2.0 * J3.entropy("Z")
           - J3.entropy("A") - J3.entropy("B"))
    return BsgReport(lhs, i_ab, rhs, rhs - lhs)


def cond_indep_trials(J: JointDist, x=0, y=1) -> JointDist:
    """Two trials of X that are independent conditionally on Y.

    p(x1, x2, y) = p(x1, y) p(x2, y) / p(y); axes come back as (X1, X2, Y).
    """
    M = J.marginal([x, y])
    n = M.n
    parts = M.slices(0, 1)
    keys_out: List[np.ndarray] = []
    w_out: List[np.ndarray] = []
    for (yval,), mass, law in parts:
        idx, w = law.items()
        pair = (idx[:, None] | (idx[None, :] << n)).ravel()
        keys_out.append(pair | (yval << (2 * n)))
        w_out.append(mass * np.outer(w, w).ravel())
    return JointDist(n, 3, ["X1", "X2", "Y"],
                     keys=np.concatenate(keys_out), w=np.concatenate(w_out))


def trials_entropy_gap(J: JointDist, x=0, y=1) -> float:
    """H[X1, X2, Y] - (2 H[X, Y] - H[Y]); identically zero."""
    T = cond_indep_trials(J, x, y)
    M = J.marginal([x, y])
    return T.entropy() - (2.0 * M.entropy() - M.entropy(1))


# -- endgame tables ----------------------------------------------------------

@dataclass(frozen=True)
class EndgameTables:
    """The (U, V, S) law of a pair; its informations are computed on read."""
    joint_UVS: JointDist
    X1: Dist
    X2: Dist

    @cached_property
    def I1(self) -> float:
        """I[U : V | S]."""
        return self.joint_UVS.cond_mutual_info("U", "V", "S")

    @cached_property
    def I2(self) -> float:
        """I[W : U | S]."""
        JW = self.joint_UVS.pushforward([["U", "V"], ["U"], ["S"]], ["W", "U", "S"])
        return JW.cond_mutual_info("W", "U", "S")

    @cached_property
    def I3(self) -> float:
        """I[V : W | S]."""
        JW = self.joint_UVS.pushforward([["V"], ["U", "V"], ["S"]], ["V", "W", "S"])
        return JW.cond_mutual_info("V", "W", "S")

    @cached_property
    def H_S(self) -> float:
        return self.joint_UVS.entropy("S")

    @cached_property
    def k(self) -> float:
        """d[X1; X2]."""
        return rdist(self.X1, self.X2)


def _uvs_spectral(X1: Dist, X2: Dist) -> JointDist:
    n = X1.n
    a = np.arange(1 << n)
    s1 = fwht(X1.dense())
    s2 = fwht(X2.dense())
    T = a[:, None] ^ a[None, :]
    cube = (s1[T][:, None, :]            # alpha ^ gamma over (gamma, ., alpha)
            * s1[T][:, :, None]          # beta ^ gamma over (gamma, beta, .)
            * s2[T[:, :, None] ^ a[None, None, :]]
            * s2[a][:, None, None])
    return JointDist(n, 3, ["U", "V", "S"], dense=_clean_wht_output(cube.ravel(), "endgame"))


def _uvs_sparse(X1: Dist, X2: Dist) -> JointDist:
    n = X1.n
    i1, w1 = X1.items()
    i2, w2 = X2.items()
    if 3 * n > 62:
        raise CostGuardExceeded("endgame key bits", 3 * n, "endgame keys need 3n <= 62")
    size = (len(i1) * len(i2)) ** 2
    if size > ENDGAME_SUPPORT_CAP:
        raise CostGuardExceeded("ENDGAME_SUPPORT_CAP", size,
                                "endgame support enumeration too large")
    # Full 4-fold product over (x1, x2, x~1, x~2), mapped to (u, v, s).
    x1 = i1[:, None, None, None]
    x2 = i2[None, :, None, None]
    t1 = i1[None, None, :, None]
    t2 = i2[None, None, None, :]
    uu = (x1 ^ x2)
    vv = (t1 ^ x2)
    ss = (x1 ^ x2 ^ t1 ^ t2)
    keys = (uu | (vv << n) | (ss << (2 * n))).ravel()
    w = (w1[:, None, None, None] * w2[None, :, None, None]
         * w1[None, None, :, None] * w2[None, None, None, :]).ravel()
    return JointDist(n, 3, ["U", "V", "S"], keys=keys, w=w)


def endgame_tables(X1: Dist, X2: Dist) -> EndgameTables:
    """Joint law of (U, V, S); I1, I2, I3, H_S and k are computed on read.

    Up to n = 7, pairs whose four-fold support product outnumbers the 8^n
    cube go through one Walsh-Hadamard transform on 3n bits; all others
    enumerate that product, which raises CostGuardExceeded past
    ENDGAME_SUPPORT_CAP entries or 62 key bits.
    """
    if X1.n != X2.n:
        raise ValueError("dimension mismatch")
    if (3 * X1.n <= ENDGAME_DENSE_BITS
            and (X1.support_size() * X2.support_size()) ** 2 > 8 ** X1.n):
        J = _uvs_spectral(X1, X2)
    else:
        J = _uvs_sparse(X1, X2)
    return EndgameTables(J, X1, X2)


# -- the abstract endgame choice ---------------------------------------------

# (gamma, alpha, beta) in tie order, alpha < beta. Slices of the (U, V, S)
# law are symmetric in U and V, so there the gamma = V triple repeats the
# gamma = U one.
_TRIPLES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
_UVS_TRIPLES = (_TRIPLES[0], _TRIPLES[2])


@dataclass(frozen=True, eq=False)
class EndgameChoice:
    """The conditioned pair abstract_endgame picks, with its tau.

    The pair is kept as the chosen row's entries on F_2^n, T_alpha and
    T_beta values with their weights; the Dists T1p and T2p are built from
    them on first read.
    """
    tau: float
    choice: Tuple[int, int, int, int]   # (gamma, alpha, beta, t), alpha < beta
    n: int
    entries: Tuple[np.ndarray, np.ndarray, np.ndarray]

    @cached_property
    def T1p(self) -> Dist:
        return Dist(self.n, idx=self.entries[0], w=self.entries[2])

    @cached_property
    def T2p(self) -> Dist:
        return Dist(self.n, idx=self.entries[1], w=self.entries[2])


def endgame_bound(ref: RefPair, J: JointDist, X1: Dist, X2: Dist) -> float:
    """delta + (eta/3)(delta + Sigma), a bound on the endgame's psi.

    psi = tau - eta (d[X01; X1] + d[X02; X2]) for abstract_endgame(ref, J);
    delta sums the pairwise mutual informations of the triple, Sigma the
    distance increments from the reference pair to the T's.
    """
    J3 = J.pushforward([[0], [1], [0, 1]])
    delta = J3.mutual_info(0, 1) + J3.mutual_info(0, 2) + J3.mutual_info(1, 2)
    R = rdist_matrix([ref.X01, ref.X02], [J3.marginal_dist(j) for j in range(3)])
    sigma = float(R[0].sum() - 3.0 * rdist(ref.X01, X1)
                  + R[1].sum() - 3.0 * rdist(ref.X02, X2))
    return delta + (ref.eta / 3.0) * (delta + sigma)


def abstract_endgame(ref: RefPair, J: JointDist) -> EndgameChoice:
    """Pick the conditioned pair of least tau from a triple summing to zero.

    J is the two-axis law of (T1, T2); T3 := T1 ^ T2. For each gamma, the
    other two members alpha < beta and each t in the support of T_gamma,
    score (T_alpha | T_gamma = t, T_beta | T_gamma = t) by ref.taus and
    return the exact minimizer, first in (gamma, t) order on ties; the twin
    (beta, alpha) has the same tau and is not scored. Only the support of
    J, which is all J stores, is visited. J need not be symmetric, so all
    three gammas are scored.
    """
    if J.arity != 2:
        raise ValueError("abstract_endgame needs the two-axis law of (T1, T2)")
    keys, w = J.items()
    return _choices(ref, J.n, keys, w, np.array([0, len(keys)]), _TRIPLES)[0]


def endgame_choices(ref: RefPair, J: JointDist, values) -> List[EndgameChoice]:
    """The endgame choice in the slice S = s of J, for each s in values.

    J is the three-axis law of (U, V, S). S is its highest axis, so each
    slice is one run of the ascending keys, normalized as condition does;
    every slice is scored in one batched pass. Each slice is symmetric in
    U and V, so only gamma = U and gamma = W are scored: a choice is that
    of abstract_endgame(ref, J.condition("S", s)), except that where
    round-off puts a gamma = V row strictly lowest, its gamma = U twin
    (the same t, tau and laws up to round-off) is picked in its place.
    """
    if J.arity != 3:
        raise ValueError("endgame_choices needs the three-axis law of (U, V, S)")
    n = J.n
    keys, w = J.items()
    values = np.asarray(values, dtype=np.int64)
    lo = np.searchsorted(keys, values << (2 * n))
    hi = np.searchsorted(keys, (values + 1) << (2 * n))
    missing = values[lo == hi]
    if len(missing):
        raise ValueError(f"conditioning event {J.labels[2]}={missing[0]} has zero mass")
    if not len(lo):
        return []
    uv = np.concatenate([keys[a:b] for a, b in zip(lo, hi)]) & ((1 << (2 * n)) - 1)
    ws = np.concatenate([w[a:b] / w[a:b].sum() for a, b in zip(lo, hi)])
    return _choices(ref, n, uv, ws, np.r_[0, np.cumsum(hi - lo)], _UVS_TRIPLES)


def _row_taus(ref: RefPair, n: int, sl: np.ndarray, given: np.ndarray,
              law: np.ndarray, w: np.ndarray):
    """(rows, taus, order, bounds): the rows (slice << n | t) of the entries'
    (slice, given) pairs, ascending, from one stable sort; row r's entries
    order[bounds[r]:bounds[r + 1]], in input order; and each row's tau
    d[L; L] + eta d[X01; L] + eta d[X02; L], L the law of its entries' law
    values. Up to ruzsa.BATCH_BITS the laws are dense rows, cut
    ruzsa.BATCH_ELEMS entries at a time; above it each row is one Dist."""
    key = (sl << n) | given
    order = np.argsort(key, kind="stable")
    key = key[order]
    bounds = np.r_[0, np.flatnonzero(np.diff(key)) + 1, len(key)]
    rows = key[bounds[:-1]]
    del key
    m = len(rows)
    dense = n <= ruzsa.BATCH_BITS
    step = max(1, ruzsa.BATCH_ELEMS >> n) if dense else m
    taus = np.empty(m)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        e = order[bounds[lo]:bounds[hi]]
        col, we, cut = law[e], w[e], bounds[lo:hi + 1] - bounds[lo]
        if dense:
            at = np.repeat(np.arange(hi - lo) << n, np.diff(cut)) + col
            laws = np.bincount(at, weights=we, minlength=(hi - lo) << n).reshape(hi - lo, -1)
            laws /= laws.sum(axis=1, keepdims=True)
        else:
            laws = [Dist(n, idx=col[a:b], w=we[a:b]) for a, b in zip(cut[:-1], cut[1:])]
        k = np.arange(hi - lo)
        taus[lo:hi] = ref.taus(laws, k, k)
    return rows, taus, order, bounds


def _choices(ref: RefPair, n: int, keys: np.ndarray, w: np.ndarray,
             start: np.ndarray, triples) -> List[EndgameChoice]:
    """The endgame choice on each slice j, the packed (T1, T2) keys
    keys[start[j]:start[j + 1]], ascending, with weights of mass one,
    among the given (gamma, alpha, beta) triples in tie order.

    abstract_endgame passes all of _TRIPLES; endgame_choices passes
    _UVS_TRIPLES, which drops gamma = V. For each gamma the rows are the
    (slice, t) pairs, each one law L = T_alpha | T_gamma = t, whose tau
    _row_taus scores once for both twins; each row's arithmetic does not
    depend on the rows beside it (the batch contract of dists.fwht). The
    first least row of each slice is read from _row_taus's sort, and only
    its entries are kept, copied; its Dists are built when read.
    """
    m = len(start) - 1
    vals = [keys & ((1 << n) - 1), keys >> n]
    vals.append(vals[0] ^ vals[1])
    sl = np.repeat(np.arange(m), np.diff(start))     # slice of each entry
    low, arg, kept = [], [], []
    for gamma, alpha, beta in triples:
        rows, taus, order, bounds = _row_taus(ref, n, sl, vals[gamma], vals[alpha], w)
        row_sl = rows >> n
        first = np.searchsorted(row_sl, np.arange(m))   # t ascending within
        least = np.minimum.reduceat(taus, first)
        hit = np.flatnonzero(taus == least[row_sl])
        win = hit[np.searchsorted(hit, first)]          # first least row
        low.append(least)
        arg.append(rows[win] & ((1 << n) - 1))
        kept.append([(vals[alpha][e], vals[beta][e], w[e])
                     for e in (order[bounds[r]:bounds[r + 1]] for r in win)])
        del order    # not held while the next gamma sorts
    pick = np.argmin(low, axis=0)    # first least in tie order
    return [EndgameChoice(float(low[c][j]), (*triples[c], int(arg[c][j])), n, kept[c][j])
            for j, c in enumerate(pick)]
