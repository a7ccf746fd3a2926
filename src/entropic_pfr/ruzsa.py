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
from typing import List, Sequence, Tuple, Union

import numpy as np

from .dists import (
    Dist,
    JointDist,
    _entropy_rows,
    conv_entropy,
    entropy,
    fwht,
    joint_product,
    xor_convolve,
)

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
# Batched distances hold dense (rows, 2^n) laws, products BATCH_ELEMS entries
# at a time; above BATCH_BITS laws stay sparse Dists and go pair by pair.
BATCH_BITS = 16
BATCH_ELEMS = 1 << 21

Slices = Sequence[Tuple[float, Dist]]
Laws = Union[np.ndarray, Sequence[Dist]]


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
    return entropy(xor_convolve(X, Y)) - 0.5 * X.entropy() - 0.5 * Y.entropy()


def one(X: Dist) -> List[Tuple[float, Dist]]:
    """A distribution as a trivial one-slice conditional."""
    return [(1.0, X)]


# -- batched distance evaluation -------------------------------------------

def rdist_pairs(laws: Laws, i, j) -> np.ndarray:
    """d[laws[i[k]]; laws[j[k]]] for every k, each unordered pair once.

    laws is a stack of dense rows or a list of Dists, stacked up to BATCH_BITS
    and scored pair by pair by rdist above. Each row is transformed once, and
    products are formed in place, BATCH_ELEMS entries at a time.
    """
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise ValueError("length mismatch")
    if not len(i):
        return np.zeros(0)
    pairs, inv = np.unique(np.minimum(i, j) * len(laws) + np.maximum(i, j),
                           return_inverse=True)
    a, b = np.divmod(pairs, len(laws))
    if not isinstance(laws, np.ndarray):
        if any(d.n != laws[0].n for d in laws):
            raise ValueError("dimension mismatch")
        if laws[0].n > BATCH_BITS:
            return np.array([rdist(laws[x], laws[y]) for x, y in zip(a, b)])[inv]
        laws = np.stack([d.dense() for d in laws])
    h, S = _entropy_rows(laws), fwht(laws)
    del laws
    return _product_entropies(S, a, S, b)[inv] - 0.5 * h[i] - 0.5 * h[j]


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
        return (rdist(X1, X2)
                + self.eta * rdist(self.X01, X1)
                + self.eta * rdist(self.X02, X2))

    def taus(self, laws: Laws, i, j) -> np.ndarray:
        """tau[laws[i[k]]; laws[j[k]]] for every k, each law transformed
        once. A dense stack is scored against the reference spectra, taken
        apart from it so that it is not copied; a list of Dists goes through
        one rdist_pairs call with the references first."""
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        if isinstance(laws, np.ndarray):
            refs = np.stack([self.X01.dense(), self.X02.dense()])
            hr, R, h, S = _entropy_rows(refs), fwht(refs), _entropy_rows(laws), fwht(laws)
            zero, one = np.zeros_like(i), np.ones_like(j)
            d = _product_entropies(S, i, S, j) - 0.5 * h[i] - 0.5 * h[j]
            d1 = _product_entropies(R, zero, S, i) - 0.5 * hr[0] - 0.5 * h[i]
            d2 = _product_entropies(R, one, S, j) - 0.5 * hr[1] - 0.5 * h[j]
        else:
            d, d1, d2 = rdist_pairs([self.X01, self.X02, *laws],
                                    np.r_[i + 2, np.zeros_like(i), np.ones_like(j)],
                                    np.r_[j, i, j] + 2).reshape(3, -1)
        return d + self.eta * d1 + self.eta * d2

    def tau_parts(self, X1: Dist, X2: Dist) -> Tuple[float, float, float]:
        return rdist(X1, X2), rdist(self.X01, X1), rdist(self.X02, X2)


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
    """d[X; Y|Y+Z] - d[X;Y] <= (H[Y+Z] - H[Z])/2 for independent Y, Z."""
    J = JointDist.independent_product([Y, Z], ["Y", "Z"])
    YS = J.pushforward([["Y"], ["Y", "Z"]], ["Y", "S"])
    lhs = cond_rdist(one(X), slices_of(YS, "Y", "S")) - rdist(X, Y)
    rhs = 0.5 * (YS.entropy("S") - Z.entropy())
    return IneqReport("sum-shift-cond", lhs, rhs)


def check_double_shift(X: Dist, Y: Dist, Z: Dist, Zp: Dist) -> IneqReport:
    """d[X; Y+Z | Y+Z+Z'] - d[X;Y] <= (H[Y+Z+Z'] + H[Y+Z] - H[Y] - H[Z'])/2.

    Y, Z, Z' independent.
    """
    J = JointDist.independent_product([Y, Z, Zp], ["Y", "Z", "Zp"])
    TU = J.pushforward([["Y", "Z"], ["Y", "Z", "Zp"]], ["T", "U"])
    lhs = cond_rdist(one(X), slices_of(TU, "T", "U")) - rdist(X, Y)
    rhs = 0.5 * (TU.entropy("U") + TU.entropy("T") - Y.entropy() - Zp.entropy())
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
