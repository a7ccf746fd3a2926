"""Exact fibring decomposition of the Ruzsa distance along a linear map.

For a GF(2)-linear pi and independent Z1, Z2:

    d[Z1; Z2] = d[pi Z1; pi Z2]
              + d[Z1 | pi Z1; Z2 | pi Z2]
              + I[Z1^Z2 : (pi Z1, pi Z2) | pi Z1 ^ pi Z2]

holds with equality; fibring_decompose evaluates all four pieces separately
and reports the residual, which must vanish to numerical precision. The
conditional fibre distance is the probability-weighted average over fibre
pairs, never a joint-entropy shortcut.

cor_sum_pair is the workhorse instance on pairs: projecting (Y1,Y3), (Y2,Y4)
along (x, y) -> x^y splits d[Y1;Y2] + d[Y3;Y4] into a sum distance, a
conditioned distance and an information term.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dists import (DENSE_BITS, PRODUCT_SUPPORT_CAP, CostGuardExceeded, Dist, _entropy_weights,
                    _fibres, _group)
from .groups import LinearMap
from .ruzsa import cond_rdist, rdist

__all__ = ["FibringReport", "fibring_decompose", "cor_sum_pair", "pair_dist"]


@dataclass(frozen=True)
class FibringReport:
    d_total: float
    d_projected: float
    d_fibre: float
    info_term: float
    residual: float

    def pieces(self) -> Tuple[float, float, float]:
        return self.d_projected, self.d_fibre, self.info_term


def fibring_decompose(Z1: Dist, Z2: Dist, pi: LinearMap) -> FibringReport:
    if Z1.n != Z2.n or pi.in_dim != Z1.n:
        raise ValueError("dimension mismatch")
    n, m = Z1.n, pi.out_dim
    i1, w1 = Z1.items()
    i2, w2 = Z2.items()
    # the information term enumerates the support pairs on n + 2m key bits
    size = len(i1) * len(i2)
    if size > PRODUCT_SUPPORT_CAP:
        raise CostGuardExceeded("PRODUCT_SUPPORT_CAP", size,
                                "support product too large for the information term")
    if n + 2 * m > 62:
        raise CostGuardExceeded("fibring key bits", n + 2 * m,
                                "packed (A, C) key would overflow 62 bits")
    tab = pi.table()

    d_total = rdist(Z1, Z2)
    d_projected = rdist(Dist(m, idx=tab[i1], w=w1), Dist(m, idx=tab[i2], w=w2))
    d_fibre = cond_rdist(n, _fibres(tab[i1], i1, w1), _fibres(tab[i2], i2, w2))

    # I[A : C | B] with A = Z1^Z2, C = (pi Z1, pi Z2), B = pi A. B is a
    # function of A and of C, so the term collapses to H[A] + H[C] - H[A,C]
    # - H[B]; H[A,C] comes from the joint law over independent support pairs.
    a = (i1[:, None] ^ i2[None, :]).ravel()
    c = (tab[i1][:, None] | (tab[i2][None, :] << m)).ravel()
    wprod = np.outer(w1, w2).ravel()
    _, w_ac = _group(a | (c << n), wprod, n + 2 * m)
    _, w_c = _group(c, wprod, 2 * m)
    _, w_a = _group(a, wprod, n)
    _, w_b = _group((tab[i1][:, None] ^ tab[i2][None, :]).ravel(), wprod, m)
    info_term = (_entropy_weights(w_a) + _entropy_weights(w_c)
                 - _entropy_weights(w_ac) - _entropy_weights(w_b))

    residual = d_total - d_projected - d_fibre - info_term
    return FibringReport(d_total, d_projected, d_fibre, info_term, residual)


def pair_dist(X: Dist, Y: Dist) -> Dist:
    """Law of the independent pair (X, Y) on 2n bits, X in the low half."""
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    n = X.n
    if 2 * n > DENSE_BITS:
        raise CostGuardExceeded("pair_dist bits", 2 * n,
                                "pair would exceed the dense/key budget")
    ix, wx = X.items()
    iy, wy = Y.items()
    keys = (ix[:, None] | (iy[None, :] << n)).ravel()
    return Dist(2 * n, idx=keys, w=np.outer(wx, wy).ravel())


def cor_sum_pair(Y1: Dist, Y2: Dist, Y3: Dist, Y4: Dist) -> FibringReport:
    """Fibring of the pairs (Y1,Y3), (Y2,Y4) along (x, y) -> x ^ y.

    Yields d[Y1^Y3; Y2^Y4] + d[Y1|Y1^Y3; Y2|Y2^Y4] + info = d[Y1;Y2] +
    d[Y3;Y4]; the report's d_total equals that right-hand side because the
    pairs are independent.
    """
    n = Y1.n
    Z1 = pair_dist(Y1, Y3)
    Z2 = pair_dist(Y2, Y4)
    return fibring_decompose(Z1, Z2, LinearMap.pair_sum(n))
