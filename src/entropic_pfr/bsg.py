"""Entropic Balog-Szemeredi-Gowers and the endgame over the sum variables
U, V, W, S.

Given independent X1, X2 and fresh copies X~1, X~2:

    U = X1 ^ X2,  V = X~1 ^ X2,  W = X1 ^ X~1,  S = X1 ^ X2 ^ X~1 ^ X~2,

so U ^ V ^ W = 0 and S is the sum of all four. Each of U, V, W is
independent of S minus itself, so every information the endgame estimates
need reads H[U, V, S], H[S] and the two-fold sums X1 * X2, X1 * X1 and
X2 * X2; swapping X1 with X~1 exchanges U and V while fixing W and S,
which forces I[W:U|S] = I[V:W|S] exactly. No (U, V, S) law is built:
EndgameTables reads H[U, V, S] from pairs of fibres of X1 * X2.

Descent takes the abstract endgame choice in each of its heaviest slices
S = s. endgame_choices scores them all in one batched pass, each row the
sum of two fibres of the two-fold sums, and abstract_endgame, the choice
on one (T1, T2) law, is its oracle. Given T_gamma = t in a triple with
T1 ^ T2 ^ T3 = 0, the other two members are translates by t, so the twins
(alpha, beta) and (beta, alpha) share one tau and only alpha < beta is
scored; bsg_check uses this given Z = A ^ B. In a slice, the U <-> V swap
makes the gamma = V rows repeat the gamma = U rows, and swapping (X1, X2)
with (X~1, X~2), which adds s to U and V, makes the gamma = U row at t ^ s
the row at t translated by s. When X2 is X1 the four summands are i.i.d.,
and the swap X2 <-> X~1, which exchanges U and W, makes the gamma = W rows
repeat the gamma = U rows too. endgame_choices scores none of the repeats;
abstract_endgame scores all three gammas of a general (T1, T2) law. Both
pick the first row within ruzsa.TIE_TOL of the least tau, in tie order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .dists import (CostGuardExceeded, Dist, JointDist, _cross_family, _cross_runs, _runs,
                    xor_convolve)
from .ruzsa import (RefPair, _first_least, _rdist_of, _run_pair_entropy, rdist_run_sums,
                    rdist_runs)

__all__ = [
    "BsgReport",
    "bsg_check",
    "EndgameTables",
    "endgame_tables",
    "EndgameChoice",
    "abstract_endgame",
    "endgame_choices",
]

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
    """The endgame informations of a pair, computed from X1 and X2 on first
    read. U, S ^ U and V, S ^ V are pairs of independent copies of
    C = X1 * X2, so H[U, S] = H[V, S] = 2 H[C], and S has the law C * C; W
    and S ^ W are independent, of laws D. Given U = u and S ^ U = u', V is
    A_u * A_u' translated by u', A_g the law of X2 given X1 ^ X2 = g, a run
    of dists._cross_runs(X2, X1): H[U, V, S] is 2 H[C] plus the sum over
    u, u' of C(u) C(u') H[A_u * A_u']."""
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
        """I[U : V | S] = 4 H[C] - H[U, V, S] - H[S]; its cost guard counts
        the fibre pairs and the sums C, D and C * C, all taken after it."""
        col, w, cut = _cross_family(self.X2, self.X1)   # one run per point of C
        a, b, c = self.X1.support_size(), self.X2.support_size(), len(cut) - 1
        pairs = _run_pair_entropy(self.X1.n, col, w, cut, ((a, b), (a, a), (b, b), (c, c)))
        return 2.0 * self.C.entropy() - pairs - self.H_S

    @cached_property
    def I2(self) -> float:
        """I[W : U | S] = I1 - 2 H[C] + H[D1] + H[D2]."""
        return self.I1 - 2.0 * self.C.entropy() + self.D[0].entropy() + self.D[1].entropy()

    @property
    def I3(self) -> float:
        """I[V : W | S], which is I2: the U <-> V swap fixes W and S."""
        return self.I2

    @cached_property
    def H_S(self) -> float:
        """H[S] = H[C * C]."""
        return xor_convolve(self.C, self.C).entropy()

    @cached_property
    def k(self) -> float:
        """d[X1; X2]."""
        return _rdist_of(self.C, self.X1, self.X2)


def _endgame_guard(X1: Dist, X2: Dist) -> None:
    """Descent's endgame guard: (|X1| |X2|)^2 past ENDGAME_SUPPORT_CAP."""
    size = (X1.support_size() * X2.support_size()) ** 2
    if size > ENDGAME_SUPPORT_CAP:
        raise CostGuardExceeded("ENDGAME_SUPPORT_CAP", size,
                                "endgame support enumeration too large")


def endgame_tables(X1: Dist, X2: Dist) -> EndgameTables:
    """The endgame informations of (X1, X2). I1 is read here, so past its
    cost guard this raises CostGuardExceeded before any sum is formed."""
    if X1.n != X2.n:
        raise ValueError("dimension mismatch")
    tables = EndgameTables(X1, X2)
    tables.I1   # the guarded work
    return tables


# -- the abstract endgame choice ---------------------------------------------

# (gamma, alpha, beta) in tie order, alpha < beta; endgame_choices drops
# the triples that repeat gamma = U in its slices (see above).
_TRIPLES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
_UVS_TRIPLES = (_TRIPLES[0], _TRIPLES[2])


@dataclass(frozen=True, eq=False)
class EndgameChoice:
    """The conditioned pair abstract_endgame picks, with its tau and its
    scored d[T1p; T2p].

    T_alpha is kept as the law of x ^ y ^ shift for independent x and y,
    each given by its values and weights (y a point mass at 0 for a row of
    a (T1, T2) law), and T_beta = T_alpha ^ t; the Dists T1p and T2p are
    built from them on first read.
    """
    tau: float
    d: float
    choice: Tuple[int, int, int, int]   # (gamma, alpha, beta, t), alpha < beta
    n: int
    summands: Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    shift: int

    def _law(self, shift: int) -> Dist:
        (x, wx), (y, wy) = self.summands
        return Dist(self.n, idx=(x[:, None] ^ y[None, :]).ravel() ^ shift,
                    w=np.outer(wx, wy).ravel())

    @cached_property
    def T1p(self) -> Dist:
        return self._law(self.shift)

    @cached_property
    def T2p(self) -> Dist:
        return self._law(self.shift ^ self.choice[3])


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
    n, mask = J.n, (1 << J.n) - 1
    vals = [keys & mask, keys >> n]
    vals.append(vals[0] ^ vals[1])
    rows, taus, d, order, bounds = zip(*(_row_taus(ref, n, vals[g], vals[a], w)
                                         for g, a, _ in _TRIPLES))
    first = np.cumsum([0] + [len(r) for r in rows])  # each triple's first row
    rows, taus, d = (np.concatenate(z) for z in (rows, taus, d))
    win = int(_first_least(taus, np.array([0, len(taus)]))[0])
    c = int(np.searchsorted(first, win, "right")) - 1
    r = win - first[c]
    e = order[c][bounds[c][r]:bounds[c][r + 1]]
    g, a, b = _TRIPLES[c]
    return EndgameChoice(float(taus[win]), float(d[win]), (g, a, b, int(rows[win])), n,
                         ((vals[a][e], w[e]), (np.zeros(1, dtype=np.int64), np.ones(1))), 0)


def endgame_choices(ref: RefPair, X1: Dist, X2: Dist, values) -> List[EndgameChoice]:
    """The endgame choice in the slice S = s of the pair's (U, V, S) law, for
    each s in values, scored from fibres of the two-fold sums: no (U, V, S)
    law is built.

    Let A_g be the law of X2 given X1 ^ X2 = g, a run of
    dists._cross_runs(X2, X1); X1 given that sum is A_g ^ g. Given S = s,
    the gamma = U row at t, V | U = t, conditions X1 ^ X2 = t and
    X~1 ^ X~2 = t ^ s, so it is A_t * A_{t^s} translated by t ^ s. The row
    at t ^ s is that law translated by s, with the same tau, so only
    t <= t ^ s is scored, the first of the two in tie order. The gamma = W
    row at t, U | W = t, is E_t * F_{t^s}, E and F the fibres of X1 * X1
    and of X2 * X2; when X2 is X1 it repeats the gamma = U row at t and is
    not scored. Every row is scored by one ruzsa.rdist_run_sums call, and
    each slice picks the first row in (gamma, t) order within TIE_TOL of
    its least tau: the choice abstract_endgame makes on J.condition("S", s),
    scored by other arithmetic. The cost guard is the caller's
    (_endgame_guard). A value outside [0, 2^n) or of zero mass raises
    ValueError.
    """
    if X1.n != X2.n:
        raise ValueError("dimension mismatch")
    values = np.asarray(values, dtype=np.int64)
    bad = values[(values < 0) | (values >> X1.n != 0)]
    if len(bad):
        raise ValueError(f"S={bad[0]} lies outside F_2^{X1.n}")
    out = _slice_choices(ref, X1, X2, values)
    for s, ch in zip(values.tolist(), out):
        if ch is None:
            raise ValueError(f"conditioning event S={s} has zero mass")
    return out


def _slice_choices(ref: RefPair, X1: Dist, X2: Dist,
                   values: np.ndarray) -> List[Optional[EndgameChoice]]:
    """endgame_choices on values in [0, 2^n), with None for a value of zero
    mass."""
    if not len(values):
        return []
    n, mask = X1.n, (1 << X1.n) - 1
    # the fibres of X1 * X2 (family 0) and, for two laws, of X1 * X1 (1)
    # and X2 * X2 (2), as runs of one ascending key (family, g)
    fams = [_cross_runs(A, B) for A, B in ([(X2, X1)] if X2 is X1
                                           else [(X2, X1), (X1, X1), (X2, X2)])]
    key = np.concatenate([(f << n) | g for f, (g, _, _) in enumerate(fams)])
    col, w = (np.concatenate(z) for z in list(zip(*fams))[1:])
    cut = _runs(key)
    run_key = key[cut[:-1]]

    def rows(f: int, h: int, half: bool):
        """(slice, t, run of f at t, run of h at t ^ s) for every slice s
        and t with both runs, in (slice, t) order; t <= t ^ s if half."""
        lo, hi = np.searchsorted(run_key, [f << n, (f + 1) << n])
        t = run_key[lo:hi] & mask
        ts = (h << n) | (t[None, :] ^ values[:, None])
        at = np.minimum(np.searchsorted(run_key, ts), len(run_key) - 1)
        hit = run_key[at] == ts
        if half:
            hit &= t <= (ts & mask)
        sl, c = np.nonzero(hit)
        return sl, t[c], lo + c, at[sl, c]

    out: List[Optional[EndgameChoice]] = [None] * len(values)
    parts = [rows(0, 0, True)] + ([] if X2 is X1 else [rows(1, 2, False)])
    if not len(parts[0][0]):
        return out
    tri = np.repeat(np.arange(len(parts)), [len(p[0]) for p in parts])
    sl, t, i, j = (np.concatenate(z) for z in zip(*parts))
    d, d1, d2 = rdist_run_sums(n, col, w, cut, i, j, [ref.X01, ref.X02])
    taus = ref.tau_of(d, d1, d2)
    by_slice = np.argsort(sl, kind="stable")   # (slice, gamma, t)
    win = by_slice[_first_least(taus[by_slice], _runs(sl[by_slice]))]
    for r in win.tolist():
        x, y = (slice(cut[k], cut[k + 1]) for k in (i[r], j[r]))
        shift = int(t[r] ^ values[sl[r]]) if tri[r] == 0 else 0
        out[sl[r]] = EndgameChoice(float(taus[r]), float(d[r]),
                                   (*_UVS_TRIPLES[tri[r]], int(t[r])), n,
                                   ((col[x], w[x]), (col[y], w[y])), shift)
    return out


def _row_taus(ref: RefPair, n: int, key: np.ndarray, law: np.ndarray, w: np.ndarray):
    """(rows, taus, d, order, bounds): the rows of the entries' keys,
    ascending, from one stable sort; each row's tau
    d[L; L] + eta d[X01; L] + eta d[X02; L] and its d[L; L], L the law on
    F_2^n of its entries' law values, scored from those runs by
    ruzsa.rdist_runs; and row r's entries order[bounds[r]:bounds[r + 1]],
    in input order."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    bounds = _runs(key)
    rows = key[bounds[:-1]]
    del key
    d, d1, d2 = rdist_runs(n, law[order], w[order], bounds, [ref.X01, ref.X02])
    return rows, ref.tau_of(d, d1, d2), d, order, bounds
