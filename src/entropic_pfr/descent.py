"""Greedy tau descent to an approximating subgroup.

The functional tau[X1; X2] = d[X1; X2] + eta d[X01; X1] + eta d[X02; X2]
is driven downhill by five families of moves: replacing the pair by sums
(cross or self), by fibre conditionings of those sums, or by the endgame
choice made inside a slice of the four-fold sum S. A pair with d[X1; X2]
close enough to zero is essentially a coset pair, and the subgroup it spans
certifies small distance from both reference distributions.

Each iteration scores the full candidate list, all five classes at once,
and accepts the single best strict decrease; RefPair.taus scores them all,
each distinct law built and transformed once per class. The endgame class
scores all of its slices of S in one batched pass (bsg.endgame_choices).
A class whose table construction trips a cost guard (CostGuardExceeded
only) is skipped for that iteration and the skip is recorded in the
trace, next to each class's wall time and candidate count. Candidates are
compared by tau, values within TIE_TOL counting as ties, with ties resolved
by class order (sum-self, fibre-cross, sum-cross, fibre-self, endgame),
then by parameter order.

descend works in its inputs' own coordinates. entropic_pfr first carries
both inputs, by one common shift and the coordinates of their span, into
F_2^r, r the dimension of their affine span: every law descent builds lies
there, and each table then has 2^r entries per coordinate, not 2^n.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bsg import EndgameChoice, endgame_choices, endgame_tables
from .dists import (CostGuardExceeded, Dist, _conditionals, uniform_on_subgroup,
                    xor_convolve)
from .groups import SubgroupBasis, span
from .ruzsa import RefPair, cond_rdist, one, rdist, slices_of

__all__ = [
    "MoveKind",
    "Move",
    "DescentState",
    "SubgroupCertificate",
    "generate_candidates",
    "descend",
    "extract_subgroup",
    "entropic_pfr",
    "diagnostics",
]

EPS_STEP = 1e-9
EPS_D = 1e-4
BUDGET = 64
MAX_ITER = 200
PRUNE_FLOOR = 1e-13
SNAPSHOT_CAP = 16
# A later candidate displaces the incumbent only when lower by more than
# this, so round-off in one class's arithmetic cannot reorder the classes.
TIE_TOL = 1e-12


class MoveKind(str, Enum):
    SUM_SELF = "sum-self"
    FIBRE_CROSS = "fibre-cross"
    SUM_CROSS = "sum-cross"
    FIBRE_SELF = "fibre-self"
    ENDGAME = "endgame"


# Tie order: earlier kinds win equal tau. Sums of a pair with itself head the
# list because they are the canonical smoothing move; the endgame is last so
# that it is chosen only when strictly better than every cheap class.
CLASS_ORDER = [MoveKind.SUM_SELF, MoveKind.FIBRE_CROSS, MoveKind.SUM_CROSS,
               MoveKind.FIBRE_SELF, MoveKind.ENDGAME]


@dataclass(frozen=True)
class Move:
    """A scored candidate: the pair (X1p, X2p) it moves to, and its tau.

    An endgame move holds its EndgameChoice in place of the pair, and that
    builds the laws only when they are read: descent reads them only for
    the move it accepts.
    """
    kind: MoveKind
    params: Tuple[int, ...]
    pair: Union[Tuple[Dist, Dist], EndgameChoice]
    tau: float

    @property
    def X1p(self) -> Dist:
        return self.pair.T1p if isinstance(self.pair, EndgameChoice) else self.pair[0]

    @property
    def X2p(self) -> Dist:
        return self.pair.T2p if isinstance(self.pair, EndgameChoice) else self.pair[1]


@dataclass
class DescentState:
    ref: RefPair
    X1: Dist
    X2: Dist
    k: float
    tau: float
    trace: List[dict] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    # most recent pairs along the trace, initial state included, oldest
    # dropped past SNAPSHOT_CAP; consumers fall back on these when the
    # terminal pair fails to yield a usable subgroup
    snapshots: List[Tuple[Dist, Dist]] = field(default_factory=list)
    # dimension of the affine span of the inputs, which entropic_pfr
    # descends in; None for a state built by descend itself
    intrinsic_dim: Optional[int] = None


@dataclass(frozen=True)
class SubgroupCertificate:
    H: SubgroupBasis
    d1: float
    d2: float
    k0: float
    bound_check: bool


def _top_support(X: Dist, count: int) -> List[int]:
    """Support points by descending mass, index ascending on ties."""
    idx, w = X.items()
    order = np.lexsort((idx, -w))
    return [int(g) for g in idx[order][:count]]


def _fibre_law(base: Dist, shift: Dist, g: int) -> Optional[Dist]:
    """Law proportional to base(x) * shift(x ^ g); None when disjoint."""
    idx, w = base.items()
    sidx, sw = shift.items()
    # shift's weight at each x ^ g, zero where x ^ g is off its support
    at = idx ^ g
    pos = sidx.searchsorted(at)
    w = w * np.where(sidx.take(pos, mode="clip") == at, sw.take(pos, mode="clip"), 0.0)
    if not w.any():
        return None
    return Dist(base.n, idx=idx, w=w)


def generate_candidates(ref: RefPair, X1: Dist, X2: Dist,
                        budget: int = BUDGET,
                        kinds: Optional[Sequence[MoveKind]] = None) -> List[Move]:
    """Scored moves for the requested classes, in class-then-parameter order.

    Fibre classes take the top sqrt(budget) conditioning values per side by
    probability mass and pair each fibre law of X1 with each of X2; the
    endgame conditions on the heaviest budget values of the four-fold sum S
    and scores all of those slices at once. Every class scores its pairs by
    ref.taus.
    """
    if kinds is None:
        kinds = CLASS_ORDER
    m = max(1, int(np.sqrt(budget)))
    out: List[Move] = []
    for kind in CLASS_ORDER:
        if kind not in kinds:
            continue
        if kind == MoveKind.SUM_SELF:
            params, laws = [()], [xor_convolve(X1, X1), xor_convolve(X2, X2)]
            i, j = [0], [1]
        elif kind == MoveKind.SUM_CROSS:
            params, laws, i, j = [()], [xor_convolve(X1, X2)], [0], [0]
        elif kind in (MoveKind.FIBRE_CROSS, MoveKind.FIBRE_SELF):
            # fibres of X1 over X1 ^ Y1 = g and of X2 over X2 ^ Y2 = g'
            cross = kind == MoveKind.FIBRE_CROSS
            Y1, Y2 = (X2, X1) if cross else (X1, X2)
            tops1 = _top_support(xor_convolve(X1, Y1), m)
            tops2 = tops1 if cross else _top_support(xor_convolve(X2, Y2), m)
            A = {g: a for g in tops1 if (a := _fibre_law(X1, Y1, g)) is not None}
            B = {g: b for g in tops2 if (b := _fibre_law(X2, Y2, g)) is not None}
            params, laws = [(g, gp) for g in A for gp in B], [*A.values(), *B.values()]
            i, j = np.indices((len(A), len(B))).reshape(2, -1) + [[0], [len(A)]]
        else:
            J = endgame_tables(X1, X2).joint_UVS
            values = _top_support(J.marginal_dist("S"), budget)
            out.extend(Move(kind, (s,) + ch.choice, ch, ch.tau)
                       for s, ch in zip(values, endgame_choices(ref, J, values)))
            continue
        out.extend(Move(kind, prm, (laws[a], laws[b]), float(t))
                   for prm, a, b, t in zip(params, i, j, ref.taus(laws, i, j)))
    return out


def _best(moves: Sequence[Move]) -> Optional[Move]:
    best = None
    for mv in moves:       # input order implements the tie-break
        if best is None or mv.tau < best.tau - TIE_TOL:
            best = mv
    return best


def _k_tau(ref: RefPair, X1: Dist, X2: Dist) -> Tuple[float, float]:
    """d[X1; X2] computed once, and tau in RefPair.tau's order."""
    k, d1, d2 = ref.tau_parts(X1, X2)
    return k, k + ref.eta * d1 + ref.eta * d2


def descend(ref: RefPair, X1: Dist, X2: Dist, *,
            eps_step: float = EPS_STEP, eps_d: float = EPS_D,
            budget: int = BUDGET, max_iter: int = MAX_ITER) -> DescentState:
    """Greedy tau minimization from the given pair.

    Each iteration scores every class and takes the single move that lowers
    tau the most, provided the drop exceeds eps_step; it stops when
    d[X1; X2] <= eps_d (converged), no move helps, or max_iter is hit.
    Each trace row records per class the best tau, the wall time
    (per_class_s) and the number of candidates (per_class_candidates; 0
    for a class the cost guard skipped), and for each skipped class the
    name and size of the guard that tripped (guard_trips).
    """
    state = DescentState(ref, X1, X2, *_k_tau(ref, X1, X2))
    state.snapshots.append((X1, X2))
    for it in range(max_iter):
        if state.k <= eps_d:
            state.converged = True
            state.stop_reason = "distance below eps_d"
            return state
        moves: List[Move] = []
        skipped: List[str] = []
        guard_trips: Dict[str, dict] = {}
        per_class: Dict[str, float] = {}
        per_class_s: Dict[str, float] = {}
        per_class_candidates: Dict[str, int] = {}
        for kind in CLASS_ORDER:
            t0 = perf_counter()
            try:
                got = generate_candidates(ref, state.X1, state.X2, budget, [kind])
            except CostGuardExceeded as exc:
                if kind is not MoveKind.ENDGAME:
                    raise
                got = []
                skipped.append(kind.value)
                guard_trips[kind.value] = {"guard": exc.guard, "size": exc.size}
            per_class_s[kind.value] = perf_counter() - t0
            per_class_candidates[kind.value] = len(got)
            if got:
                per_class[kind.value] = _best(got).tau
            moves += got
        chosen = _best(moves)
        if chosen is None or chosen.tau >= state.tau - eps_step:
            state.stop_reason = "no improving move"
            return state
        state.trace.append({
            "iter": it,
            "kind": chosen.kind.value,
            "params": list(chosen.params),
            "tau_before": state.tau,
            "tau_after": chosen.tau,
            "per_class_tau": per_class,
            "per_class_s": per_class_s,
            "per_class_candidates": per_class_candidates,
            "skipped_classes": skipped,
            "guard_trips": guard_trips,
        })
        state.X1 = chosen.X1p.prune(PRUNE_FLOOR)
        state.X2 = chosen.X2p.prune(PRUNE_FLOOR)
        state.k, state.tau = _k_tau(ref, state.X1, state.X2)
        state.trace[-1]["k_after"] = state.k
        state.snapshots.append((state.X1, state.X2))
        del state.snapshots[:-SNAPSHOT_CAP]
    state.stop_reason = "iteration limit"
    state.converged = state.k <= eps_d
    return state


def extract_subgroup(X: Dist, theta: float = 0.5) -> SubgroupCertificate:
    """Span of the heavy differences of X around its mode.

    Points within a factor theta of the maximum weight are taken as the
    approximate coset; their offsets from the mode span the subgroup. The
    certificate grades H against X itself, so both distances equal
    d[X; U_H] and the reference distance is d[X; X].
    """
    idx, w = X.items()
    x_star = idx[np.argmax(w)]
    heavy = idx[w >= theta * w.max()]
    H = span([int(x ^ x_star) for x in heavy], X.n)
    d = rdist(X, uniform_on_subgroup(H))
    k0 = rdist(X, X)
    return SubgroupCertificate(H, d, d, k0, 2.0 * d <= 11.0 * k0 + 1e-6)


# Positions of the group elements in each kind's trace params; the other
# entries are class indices.
_ELEMENT_PARAMS = {MoveKind.FIBRE_CROSS: (0, 1), MoveKind.FIBRE_SELF: (0, 1),
                   MoveKind.ENDGAME: (0, 4)}


def _to_coords(X: Dist, V: SubgroupBasis, a0: int) -> Dist:
    """X ^ a0 in V's coordinates."""
    idx, w = X.items()
    return Dist(V.rank, idx=V.coords(idx ^ a0), w=w)


def _reduce(laws: Sequence[Dist], shifts: Sequence[int]) -> Tuple[SubgroupBasis, List[Dist]]:
    """V, the span of the shifted supports X ^ a, and each X ^ a in V's
    coordinates."""
    V = span(np.concatenate([X.support() ^ a for X, a in zip(laws, shifts)]).tolist(),
             laws[0].n)
    return V, [_to_coords(X, V, a) for X, a in zip(laws, shifts)]


def _from_coords(X: Dist, V: SubgroupBasis, a0: int) -> Dist:
    """The law in V's coordinates embedded in F_2^n and shifted by a0."""
    idx, w = X.items()
    return Dist(V.ambient_dim, idx=V.from_coords(idx) ^ a0, w=w)


def entropic_pfr(X01: Dist, X02: Dist, *, eta: float = 1.0 / 9.0,
                 eps_d: float = EPS_D, budget: int = BUDGET,
                 max_iter: int = MAX_ITER) -> Tuple[DescentState, SubgroupCertificate]:
    """Locate a subgroup close to both inputs in Ruzsa distance.

    Descent starts from the swapped pair (X02, X01), whose tau is exactly
    (1 + 2 eta) d[X01; X02]. An endpoint with vanishing distance is a coset
    pair; the subgroup spanned by its differences satisfies
    d[X01; U_H] + d[X02; U_H] <= 11 d[X01; X02] at eta = 1/9, and each
    summand alone is at most 6 d[X01; X02]. The certificate records both
    distances and the outcome of those two checks. Descent takes a move
    only if it lowers tau by more than EPS_STEP, and the subgroup is read
    off its endpoint by extract_subgroup at its default theta.

    Descent runs in the intrinsic dimension r: with a0 the smallest support
    point of X01, both inputs are shifted by a0 into V, the span of the
    shifted supports, and carried to F_2^r by V's coordinates. Every law
    descent builds stays there, and entropy, d and tau are unchanged by the
    shift and the injective map, so the taus are the ambient run's up to
    round-off. The returned state is in the caller's coordinates: ref is
    the caller's pair, and X1, X2 and the snapshots are embedded and
    shifted back by a0, so they may differ from an ambient descent's laws by
    a translation. The group elements in the trace params (fibre g and g',
    endgame s and t) are sums of an even number of draws, so they are
    embedded without the shift. state.intrinsic_dim is r.
    """
    ref = RefPair(X01, X02, eta)
    a0 = int(X01.support()[0])
    V, (Y01, Y02) = _reduce((X01, X02), (a0, a0))
    inner = descend(RefPair(Y01, Y02, eta), Y02, Y01, eps_d=eps_d,
                    budget=budget, max_iter=max_iter)
    Hr = extract_subgroup(inner.X1).H
    UH = uniform_on_subgroup(Hr)
    d1 = rdist(Y01, UH)
    d2 = rdist(Y02, UH)
    k0 = rdist(Y01, Y02)
    ok = (d1 + d2 <= 11.0 * k0 + 1e-6
          and d1 <= 6.0 * k0 + 1e-6 and d2 <= 6.0 * k0 + 1e-6)
    H = span([V.from_coords(h) for h in Hr.rows], X01.n)

    def up(X: Dist) -> Dist:
        return _from_coords(X, V, a0)

    trace = []
    for row in inner.trace:
        at = _ELEMENT_PARAMS.get(MoveKind(row["kind"]), ())
        params = [V.from_coords(p) if pos in at else p
                  for pos, p in enumerate(row["params"])]
        trace.append({**row, "params": params})
    state = replace(inner, ref=ref, X1=up(inner.X1), X2=up(inner.X2),
                    trace=trace, intrinsic_dim=V.rank,
                    snapshots=[(up(A), up(B)) for A, B in inner.snapshots])
    return state, SubgroupCertificate(H, d1, d2, k0, ok)


def diagnostics(ref: RefPair, X1: Dist, X2: Dist) -> Dict[str, object]:
    """Endgame informations and the estimate chain at the current pair.

    The named bounds hold at a tau minimizer; away from one they are
    reported with their slacks but not enforced. Every reported quantity is
    unchanged by translating any of the four laws and by an injective linear
    map, so each law is shifted by its own smallest support point and all
    four are carried into F_2^r, V the span of the shifted supports and r
    its rank. The distance increments need a 4-axis joint over F_2^r, so
    r >= 16 raises CostGuardExceeded.
    """
    laws = (ref.X01, ref.X02, X1, X2)
    V, (Y01, Y02, X1, X2) = _reduce(laws, [int(X.support()[0]) for X in laws])
    if 4 * V.rank > 62:
        raise CostGuardExceeded("diagnostics key bits", 4 * V.rank,
                                "diagnostics keys need 4r <= 62")
    ref = RefPair(Y01, Y02, ref.eta)
    eta = ref.eta
    tabs = endgame_tables(X1, X2)
    k = tabs.k
    I1, I2, I3 = tabs.I1, tabs.I2, tabs.I3
    H1 = X1.entropy()
    H2 = X2.entropy()

    J = tabs.joint_UVS
    # d[X1 + X~2; X2 + X~1] and its conditioned partner, from the pair
    # fibring identity: the two sums plus I1 recover 2k exactly.
    C12 = xor_convolve(X1, X2)
    d_sums = rdist(C12, C12)
    d_cond = cond_rdist(_cross_fibres(X1, X2), _cross_fibres(X2, X1))
    entries: Dict[str, object] = {
        "k": k, "I1": I1, "I2": I2, "I3": I3, "H_S": tabs.H_S,
        "sum_dist": d_sums, "cond_sum_dist": d_cond,
    }
    bounds = {
        "sum_split_identity": (d_sums + d_cond + I1, 2.0 * k),
        "sum_entropy_bound": (tabs.H_S, 0.5 * H1 + 0.5 * H2 + (2.0 + eta) * k - I1),
        "first_info_bound": (I1, 2.0 * eta * k),
        "self_info_bound": (I2, eta * (rdist(X1, X1) + rdist(X2, X2))),
        "info_total_bound": (I1 + I2 + I3,
                             6.0 * eta * k - ((1.0 - 5.0 * eta) / (1.0 - eta))
                             * (2.0 * eta * k - I1)),
    }
    # distance increments d[X0_i; A | S] - d[X0_i; X_i] for A in {U, V, W}
    JW = J.pushforward([["U"], ["V"], ["U", "V"], ["S"]], ["U", "V", "W", "S"])
    slices = [slices_of(JW, A, "S") for A in ("U", "V", "W")]
    inc_total = 0.0
    for X0, Xi in ((ref.X01, X1), (ref.X02, X2)):
        base = rdist(X0, Xi)
        for sl in slices:
            inc_total += cond_rdist(one(X0), sl) - base
    bounds["cond_dist_increment_bound"] = (
        inc_total, 3.0 * tabs.H_S - 1.5 * (H1 + H2))
    bounds["increment_vs_k_bound"] = (
        3.0 * tabs.H_S - 1.5 * (H1 + H2),
        (6.0 - 3.0 * eta) * k + 3.0 * (2.0 * eta * k - I1))
    entries["bounds"] = {
        name: {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "holds": rhs - lhs >= -1e-9}
        for name, (lhs, rhs) in bounds.items()
    }
    return entries


def _cross_fibres(A: Dist, B: Dist) -> List[Tuple[float, Dist]]:
    """Slices (mass, law of A | A ^ B~ = g) cut from the enumerated pairs,
    |A| |B| <= 2^14 once diagnostics' endgame_tables has passed its guard."""
    (ia, wa), (ib, wb) = A.items(), B.items()
    g = (ia[:, None] ^ ib[None, :]).ravel()
    order = np.argsort(g, kind="stable")
    x = np.repeat(ia, len(ib))[order]
    w = np.outer(wa, wb).ravel()[order]
    return [(mass, law) for _, mass, law in _conditionals(g[order], x, w, A.n)]
