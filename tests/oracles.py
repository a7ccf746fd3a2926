"""Second implementations the tests compare the package against.

The library reads the endgame informations, the diagnostics and the
sum-conditioned checks off two-fold sums and pairs of their fibres. The
paths here build the joint laws instead (the (U, V, S) law by an 8^n cube
or by the four-fold support product, its pushforwards, a 4-axis
(U, V, W, S) joint, product joints) and cut them with JointDist.slices, and
their conditional distances take one scalar rdist a pair of slices
(slice_rdist), not the batched kernel the package scores them with.
Also here are constructions only the tests use: conditionally independent
trials, a bound on the abstract endgame's psi, and the pick over a list of
moves.
"""
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from entropic_pfr.descent import Move, _reduce
from entropic_pfr.dists import Dist, JointDist, _clean_wht_output, fwht, xor_convolve
from entropic_pfr.ruzsa import IneqReport, RefPair, _first_least, rdist, rdist_matrix

Slices = List[Tuple[Tuple[int, ...], float, Dist]]


# -- the (U, V, S) law and its informations ------------------------------------

def uvs_spectral(X1: Dist, X2: Dist) -> JointDist:
    """The (U, V, S) law of a pair through one transform of the 8^n cube."""
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


def uvs_sparse(X1: Dist, X2: Dist) -> JointDist:
    """The (U, V, S) law of a pair from the four-fold support product."""
    n = X1.n
    i1, w1 = X1.items()
    i2, w2 = X2.items()
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


def uvs_spectral_wins(X1: Dist, X2: Dist) -> bool:
    """Whether the 8^n cube is the cheaper (U, V, S) builder: up to n = 7,
    where the four-fold support product outnumbers it."""
    return 3 * X1.n <= 21 and (X1.support_size() * X2.support_size()) ** 2 > 8 ** X1.n


def uvs_table(X1: Dist, X2: Dist) -> JointDist:
    """The (U, V, S) law of a pair by the cheaper builder."""
    return (uvs_spectral if uvs_spectral_wins(X1, X2) else uvs_sparse)(X1, X2)


def table_informations(X1: Dist, X2: Dist) -> Dict[str, float]:
    """k, I1, I2, I3 and H_S of a pair read off its (U, V, S) table."""
    J = uvs_table(X1, X2)
    return dict(zip(["I1", "I2", "I3"], endgame_informations(J)),
                k=rdist(X1, X2), H_S=J.entropy("S"))


# -- the endgame informations and diagnostics through pushforwards ------------

def endgame_informations(J: JointDist) -> Tuple[float, float, float]:
    """I[U : V | S], I[W : U | S] and I[V : W | S] of the (U, V, S) law J,
    each a conditional mutual information of a pushforward."""
    I1 = J.cond_mutual_info("U", "V", "S")
    JW = J.pushforward([["U", "V"], ["U"], ["S"]], ["W", "U", "S"])
    I2 = JW.cond_mutual_info("W", "U", "S")
    JW = J.pushforward([["V"], ["U", "V"], ["S"]], ["V", "W", "S"])
    I3 = JW.cond_mutual_info("V", "W", "S")
    return I1, I2, I3


def slice_rdist(xs: Slices, ys: Slices) -> float:
    """d[X|Z; Y|W] over two JointDist.slices lists: the sum of p p' rdist,
    one scalar rdist a pair of slices."""
    return sum(p * q * rdist(X, Y) for _, p, X in xs for _, q, Y in ys)


def one(X: Dist) -> Slices:
    """A law as the one slice of a trivial conditioning."""
    return [((), 1.0, X)]


def product_fibres(A: Dist, B: Dist) -> Slices:
    """The slices of A given A ^ B~ = g, cut from the product joint of A and B."""
    J = JointDist.independent_product([A, B], ["A", "B"])
    return J.pushforward([["A"], ["A", "B"]], ["A", "G"]).slices("A", "G")


def diagnostics_via_joints(ref: RefPair, X1: Dist, X2: Dist) -> Dict[str, object]:
    """descent.diagnostics with every law cut from a joint: I1-I3 from
    endgame_informations, the sum fibres from product joints and the
    distance increments from slices of the 4-axis (U, V, W, S) pushforward,
    which packs 4r key bits and so needs r <= 15."""
    laws = (ref.X01, ref.X02, X1, X2)
    _, (Y01, Y02, X1, X2) = _reduce(laws, [int(X.support()[0]) for X in laws])
    eta = ref.eta
    J = uvs_table(X1, X2)
    k = rdist(X1, X2)
    I1, I2, I3 = endgame_informations(J)
    H_S = J.entropy("S")
    H1, H2 = X1.entropy(), X2.entropy()
    C12 = xor_convolve(X1, X2)
    d_sums = rdist(C12, C12)
    d_cond = slice_rdist(product_fibres(X1, X2), product_fibres(X2, X1))
    entries: Dict[str, object] = {
        "k": k, "I1": I1, "I2": I2, "I3": I3, "H_S": H_S,
        "sum_dist": d_sums, "cond_sum_dist": d_cond,
    }
    bounds = {
        "sum_split_identity": (d_sums + d_cond + I1, 2.0 * k),
        "sum_entropy_bound": (H_S, 0.5 * H1 + 0.5 * H2 + (2.0 + eta) * k - I1),
        "first_info_bound": (I1, 2.0 * eta * k),
        "self_info_bound": (I2, eta * (rdist(X1, X1) + rdist(X2, X2))),
        "info_total_bound": (I1 + I2 + I3,
                             6.0 * eta * k - ((1.0 - 5.0 * eta) / (1.0 - eta))
                             * (2.0 * eta * k - I1)),
    }
    JW = J.pushforward([["U"], ["V"], ["U", "V"], ["S"]], ["U", "V", "W", "S"])
    slices = [JW.slices(A, "S") for A in ("U", "V", "W")]
    inc_total = 0.0
    for X0, Xi in ((Y01, X1), (Y02, X2)):
        base = rdist(X0, Xi)
        for sl in slices:
            inc_total += slice_rdist(one(X0), sl) - base
    bounds["cond_dist_increment_bound"] = (inc_total, 3.0 * H_S - 1.5 * (H1 + H2))
    bounds["increment_vs_k_bound"] = (
        3.0 * H_S - 1.5 * (H1 + H2),
        (6.0 - 3.0 * eta) * k + 3.0 * (2.0 * eta * k - I1))
    entries["bounds"] = {
        name: {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "holds": rhs - lhs >= -1e-9}
        for name, (lhs, rhs) in bounds.items()
    }
    return entries


def diagnostics_gap(got: Dict[str, object], want: Dict[str, object]) -> float:
    """The largest deviation of any entry and any bound's lhs, rhs and slack;
    the two reports must name the same entries and bounds."""
    assert set(got) == set(want)
    assert set(got["bounds"]) == set(want["bounds"])
    gap = max(abs(got[key] - want[key]) for key in want if key != "bounds")
    for name, b in want["bounds"].items():
        gap = max(gap, *(abs(got["bounds"][name][part] - b[part])
                         for part in ("lhs", "rhs", "slack")))
    return gap


# -- the sum-conditioned checks through product joints -----------------------

def sum_shift_cond_via_joint(X: Dist, Y: Dist, Z: Dist) -> IneqReport:
    """ruzsa.check_sum_shift_cond on the product joint of (Y, Z)."""
    J = JointDist.independent_product([Y, Z], ["Y", "Z"])
    YS = J.pushforward([["Y"], ["Y", "Z"]], ["Y", "S"])
    lhs = slice_rdist(one(X), YS.slices("Y", "S")) - rdist(X, Y)
    rhs = 0.5 * (YS.entropy("S") - Z.entropy())
    return IneqReport("sum-shift-cond", lhs, rhs)


def double_shift_via_joint(X: Dist, Y: Dist, Z: Dist, Zp: Dist) -> IneqReport:
    """ruzsa.check_double_shift on the product joint of (Y, Z, Z')."""
    J = JointDist.independent_product([Y, Z, Zp], ["Y", "Z", "Zp"])
    TU = J.pushforward([["Y", "Z"], ["Y", "Z", "Zp"]], ["T", "U"])
    lhs = slice_rdist(one(X), TU.slices("T", "U")) - rdist(X, Y)
    rhs = 0.5 * (TU.entropy("U") + TU.entropy("T") - Y.entropy() - Zp.entropy())
    return IneqReport("double-shift", lhs, rhs)


# -- constructions only the tests use ----------------------------------------

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


# -- descent's pick over the oracle's move list --------------------------------

def best_move(moves: Sequence[Move]) -> Optional[Move]:
    """The first move within ruzsa.TIE_TOL of the least tau, in input order:
    descent's pick over generate_candidates' list."""
    if not moves:
        return None
    return moves[_first_least(np.array([mv.tau for mv in moves]), np.array([0, len(moves)]))[0]]
