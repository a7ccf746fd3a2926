"""Entropic Balog-Szemeredi-Gowers and the endgame tables over the sum
variables U, V, W, S.

Given independent X1, X2 and fresh copies X~1, X~2:

    U = X1 ^ X2,  V = X~1 ^ X2,  W = X1 ^ X~1,  S = X1 ^ X2 ^ X~1 ^ X~2,

so U ^ V ^ W = 0 and S is the sum of all four. Each of U, V, W is
independent of S minus itself, so every information the endgame estimates
need reads H[U, V, S], H[S] and the two-fold sums X1 * X2, X1 * X1 and
X2 * X2; swapping X1 with X~1 exchanges U and V while fixing W and S,
which forces I[W:U|S] = I[V:W|S] exactly.

Descent conditions (U, V, S) on its heaviest values of S and takes the
abstract endgame choice in each slice; endgame_choices scores all of those
slices in one batched pass, and abstract_endgame is its one-slice case.
Given T_gamma = t in a triple with T1 ^ T2 ^ T3 = 0, the other two members
are translates by t, so the twins (alpha, beta) and (beta, alpha) share one
tau and only alpha < beta is scored; bsg_check uses this given Z = A ^ B.
The U <-> V swap fixes each slice S = s, so there U | V = t has the law of
V | U = t and W | V = t that of W | U = t: endgame_choices drops the
gamma = V rows, which repeat the gamma = U rows. When X2 is X1 the four
summands are i.i.d. and S3 permutes U, V, W inside each slice: the swap
X2 <-> X~1 exchanges U and W, so (U, V) | W = t has the law of
(W, V) | U = t, and endgame_choices drops the gamma = W rows too.
abstract_endgame takes a general (T1, T2) law and scores all three gammas.
Both pick the first row within ruzsa.TIE_TOL of the least tau, in tie order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .dists import (CostGuardExceeded, Dist, JointDist, _clean_wht_output, _runs,
                    fwht, xor_convolve)
from .ruzsa import RefPair, _first_least, _rdist_of, rdist_runs

__all__ = [
    "BsgReport",
    "bsg_check",
    "EndgameTables",
    "endgame_tables",
    "EndgameChoice",
    "abstract_endgame",
    "endgame_choices",
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
    Z = z, B is A translated by z: each slice distance is d[A|z; A|z]. Z
    is the highest axis, so each slice is one run of the ascending keys.
    """
    J3 = J.pushforward([[a], [b], [a, b]], ["A", "B", "Z"])
    keys, w = J3.items()
    cut = _runs(keys >> (2 * J.n))
    d = rdist_runs(J.n, J3.axis_values(keys, 0), w, cut)[0]
    lhs = float(np.add.reduceat(w, cut[:-1]) @ d)
    i_ab = J.mutual_info(a, b)
    rhs = (3.0 * i_ab + 2.0 * J3.entropy("Z")
           - J3.entropy("A") - J3.entropy("B"))
    return BsgReport(lhs, i_ab, rhs, rhs - lhs)


# -- endgame tables ----------------------------------------------------------

@dataclass(frozen=True)
class EndgameTables:
    """The (U, V, S) law of a pair; its informations are computed on read.

    U, S ^ U and V, S ^ V are pairs of independent copies of C = X1 * X2,
    so H[U, S] = H[V, S] = 2 H[C]; W and S ^ W are independent, of laws D.
    """
    joint_UVS: JointDist
    X1: Dist
    X2: Dist

    @cached_property
    def C(self) -> Dist:
        """X1 * X2, the law of U and of V."""
        return xor_convolve(self.X1, self.X2)

    @cached_property
    def D(self) -> Tuple[Dist, Dist]:
        """(X1 * X1, X2 * X2), the laws of W and of S ^ W."""
        return xor_convolve(self.X1, self.X1), xor_convolve(self.X2, self.X2)

    @cached_property
    def I1(self) -> float:
        """I[U : V | S] = 4 H[C] - H[U, V, S] - H[S]."""
        return 4.0 * self.C.entropy() - self.joint_UVS.entropy() - self.H_S

    @cached_property
    def I2(self) -> float:
        """I[W : U | S] = I1 - 2 H[C] + H[D1] + H[D2]."""
        D1, D2 = self.D
        return self.I1 - 2.0 * self.C.entropy() + D1.entropy() + D2.entropy()

    @property
    def I3(self) -> float:
        """I[V : W | S], which is I2: the U <-> V swap fixes W and S."""
        return self.I2

    @cached_property
    def H_S(self) -> float:
        return self.joint_UVS.entropy("S")

    @cached_property
    def k(self) -> float:
        """d[X1; X2]."""
        return _rdist_of(self.C, self.X1, self.X2)


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

# (gamma, alpha, beta) in tie order, alpha < beta; endgame_choices drops
# the triples that repeat gamma = U in its slices (see above).
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


def abstract_endgame(ref: RefPair, J: JointDist) -> EndgameChoice:
    """Pick the conditioned pair of least tau from a triple summing to zero.

    J is the two-axis law of (T1, T2); T3 := T1 ^ T2. For each gamma, the
    other two members alpha < beta and each t in the support of T_gamma,
    score (T_alpha | T_gamma = t, T_beta | T_gamma = t) by its tau and
    return the first row in (gamma, t) order within TIE_TOL of the least;
    the twin (beta, alpha) has the same tau and is not scored. Only the
    support of J, which is all J stores, is visited. J need not be
    symmetric, so all three gammas are scored.
    """
    if J.arity != 2:
        raise ValueError("abstract_endgame needs the two-axis law of (T1, T2)")
    keys, w = J.items()
    return _choices(ref, J.n, keys, w, np.array([0, len(keys)]), _TRIPLES)[0]


def endgame_choices(ref: RefPair, tabs: EndgameTables, values) -> List[EndgameChoice]:
    """The endgame choice in the slice S = s of tabs.joint_UVS, for each s
    in values.

    S is the highest axis of the (U, V, S) law, so each slice is one run of
    the ascending keys, normalized as condition does; every slice is scored
    in one batched pass, by its gamma = U and gamma = W rows, or gamma = U
    alone when tabs.X2 is tabs.X1. Each dropped row ties, in exact
    arithmetic, the gamma = U row at its t, which comes first in tie order,
    so each choice is abstract_endgame(ref, J.condition("S", s)), bit for bit.
    """
    J = tabs.joint_UVS
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
    triples = _TRIPLES[:1] if tabs.X2 is tabs.X1 else _UVS_TRIPLES
    return _choices(ref, n, uv, ws, np.r_[0, np.cumsum(hi - lo)], triples)


def _row_taus(ref: RefPair, n: int, sl: np.ndarray, given: np.ndarray,
              law: np.ndarray, w: np.ndarray):
    """(rows, taus, order, bounds): the rows (slice << n | t) of the entries'
    (slice, given) pairs, ascending, from one stable sort; row r's entries
    order[bounds[r]:bounds[r + 1]], in input order; and each row's tau
    d[L; L] + eta d[X01; L] + eta d[X02; L], L the law of its entries' law
    values, scored from those runs by ruzsa.rdist_runs."""
    key = (sl << n) | given
    order = np.argsort(key, kind="stable")
    key = key[order]
    bounds = _runs(key)
    rows = key[bounds[:-1]]
    del key
    d, d1, d2 = rdist_runs(n, law[order], w[order], bounds, [ref.X01, ref.X02])
    return rows, d + ref.eta * d1 + ref.eta * d2, order, bounds


def _choices(ref: RefPair, n: int, keys: np.ndarray, w: np.ndarray,
             start: np.ndarray, triples) -> List[EndgameChoice]:
    """The endgame choice on each slice j, the packed (T1, T2) keys
    keys[start[j]:start[j + 1]], ascending, with weights of mass one,
    among the given (gamma, alpha, beta) triples in tie order.

    For each gamma the rows are the (slice, t) pairs, each one law
    L = T_alpha | T_gamma = t, scored once for both twins by _row_taus; a
    row's arithmetic does not depend on the rows beside it (the batch
    contract of dists.fwht). Each slice picks by ruzsa._first_least over
    its rows in (triple, t) order and keeps a copy of the picked row's
    entries, read from _row_taus's sort; its Dists are built when read.
    """
    m, mask = len(start) - 1, (1 << n) - 1
    vals = [keys & mask, keys >> n]
    vals.append(vals[0] ^ vals[1])
    sl = np.repeat(np.arange(m), np.diff(start))     # slice of each entry
    rows, taus, order, bounds = zip(*(_row_taus(ref, n, sl, vals[g], vals[a], w)
                                      for g, a, _ in triples))
    first = np.cumsum([0] + [len(r) for r in rows])  # each triple's first row
    rows, taus = np.concatenate(rows), np.concatenate(taus)
    by_slice = np.argsort(rows >> n, kind="stable")  # (slice, triple, t)
    win = by_slice[_first_least(taus[by_slice], _runs(rows[by_slice] >> n))]
    tri = np.searchsorted(first, win, "right") - 1   # each pick's triple
    es = [order[c][bounds[c][r]:bounds[c][r + 1]] for c, r in zip(tri, win - first[tri])]
    return [EndgameChoice(float(taus[i]), (*triples[c], int(rows[i]) & mask), n,
                          (vals[triples[c][1]][e], vals[triples[c][2]][e], w[e]))
            for i, c, e in zip(win.tolist(), tri.tolist(), es)]
