"""Greedy tau descent to an approximating subgroup.

The functional tau[X1; X2] = d[X1; X2] + eta d[X01; X1] + eta d[X02; X2]
is driven downhill by five families of moves: replacing the pair by sums
(cross or self), by fibre conditionings of those sums, or by the endgame
choice made inside a slice of the four-fold sum S. A pair with d[X1; X2]
close enough to zero is essentially a coset pair, and the subgroup it spans
certifies small distance from both reference distributions.

Each iteration scores the full candidate list, all five classes at once,
and accepts the single best strict decrease. The laws of the sum and fibre
classes are built first, a side's fibre laws cut in one pass over its top
values, and one RefPair.parts call scores them all, each distinct law
transformed once per iteration; it returns each candidate's d beside its
tau, and the state's k and tau after a move are the accepted move's. The
endgame reads the law of S as C * C, C = X1 + X2, and scores all of its
slices of S in one pass from fibres of the two-fold sums
(bsg.endgame_choices), with no (U, V, S) table. It is skipped where
(|X1| |X2|)^2 passes ENDGAME_SUPPORT_CAP (bsg._endgame_guard, checked
before C * C is taken); only a CostGuardExceeded counts as a skip, which the
trace records next to each class's wall time and candidate count. The
pick is the first candidate within ruzsa.TIE_TOL of the least tau, in
class order (sum-self, fibre-cross, sum-cross, fibre-self, endgame), then
parameter order: the tie rule the endgame applies inside its slices.
Parameter order follows _top_support, which takes masses within TIE_TOL
as tied and orders them by value, so round-off in a law of conditioning
values, such as C * C for S, cannot change the pick.

A pair of byte-equal laws is held as one object, and so is the reference
pair. While X1 is X2, X1 + X2 is X1 + X1 and the self fibres are the cross
fibres, whatever the references: descent scores sum-self and fibre-cross
alone, and sum-cross and fibre-self, which would repeat them later in tie
order and so could never be picked, are not built. Its endgame scores only
the gamma = U rows of each slice of S: with four i.i.d. summands, the
gamma = V and gamma = W rows repeat them (bsg.endgame_choices). For one law,
entropic_pfr's k0 is descent's starting d[X1; X2] (state.k_start).

Each sum of the pair's laws is taken once per iteration: a sum is kept,
by the identity of its operands, for the sum classes, the fibre classes'
top values and the endgame's C, and dropped with the pair at the next
move. While X1 is X2, the one self sum X1 + X1 serves sum-self,
fibre-cross and the endgame.

descend works in its inputs' own coordinates. entropic_pfr first carries
both inputs, by one common shift and the coordinates of their span, into
F_2^r, r the dimension of their affine span: every law descent builds lies
there, and each table then has 2^r entries per coordinate, not 2^n.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .bsg import EndgameChoice, _endgame_guard, _slice_choices, endgame_tables
from .dists import CostGuardExceeded, Dist, _cross_family, _entropy_weights, xor_convolve
from .groups import SubgroupBasis, span
from .ruzsa import (ETA_DEFAULT, TIE_TOL, RefPair, _first_least, _law_key,
                    _law_runs, _rdist_of, cond_rdist, rdist)

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
SNAPSHOT_CAP = 16


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


class Move(NamedTuple):
    """A scored candidate: the pair (X1p, X2p) it moves to, its tau, and
    the d[X1p; X2p] that tau was scored with.

    An endgame move holds its EndgameChoice in place of the pair, and that
    builds the laws only when they are read. Descent picks from the scored
    taus and builds a Move for its pick alone; generate_candidates builds
    one for every candidate.
    """
    kind: MoveKind
    params: Tuple[int, ...]
    pair: Union[Tuple[Dist, Dist], EndgameChoice]
    tau: float
    d: float

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
    # d[X1; X2] of the starting pair, scored as the candidates are; k is
    # overwritten by each move
    k_start: Optional[float] = None


@dataclass(frozen=True)
class SubgroupCertificate:
    H: SubgroupBasis
    d1: float
    d2: float
    k0: float
    bound_check: bool


def _top_support(X: Dist, count: int) -> List[int]:
    """Support points by descending mass, index ascending among masses that
    tie: each within ruzsa.TIE_TOL of the one before. Round-off, which
    differs between ways of computing a law, cannot reorder tied masses."""
    idx, w = X.items()
    order = np.lexsort((idx, -w))
    # the first count points and those tied with the last of them
    ws = w[order]
    gap = ws[:-1] - ws[1:] > TIE_TOL
    end = count + int(np.argmax(gap[count - 1:])) if gap[count - 1:].any() else len(ws)
    head = order[:end]
    tied = np.cumsum(np.concatenate(([0], gap[:end - 1])))     # one id per run of ties
    return [int(g) for g in idx[head[np.lexsort((idx[head], tied))]][:count]]


def _fibre_laws(base: Dist, shift: Dist, tops: Sequence[int]) -> Dict[int, Dist]:
    """The law proportional to base(x) * shift(x ^ g) for each g of tops,
    cut in one pass over tops: a g whose fibre is empty gets no law, and
    byte-equal fibres share one Dist."""
    idx, w = base.items()
    sidx, sw = shift.items()
    # shift's weight at each x ^ g, zero where x ^ g is off its support
    at = idx ^ np.array(tops, dtype=np.int64)[:, None]
    pos = sidx.searchsorted(at)
    rows = w * np.where(sidx.take(pos, mode="clip") == at, sw.take(pos, mode="clip"), 0.0)
    laws: Dict[bytes, Dist] = {}
    out: Dict[int, Dist] = {}
    for g, row, live in zip(tops, rows, rows.any(axis=1)):
        if live:
            key = row.tobytes()
            if key not in laws:
                laws[key] = Dist(base.n, idx=idx, w=row)
            out[g] = laws[key]
    return out


# xor_convolve(A, B) by the ids of A and B, holding both operands
_Sums = Dict[Tuple[int, int], Tuple[Dist, Dist, Dist]]
# a sum or fibre class before scoring: each candidate's params, the laws
# the class reads, and each candidate's pair as indices into them
_Built = Tuple[List[Tuple[int, ...]], List[Dist], np.ndarray, np.ndarray]
# the classes scored: each class's span of the candidates, their taus, and
# the candidate at an index built as a Move
_Scored = Tuple[Dict[MoveKind, slice], np.ndarray, Callable[[int], Move]]


def generate_candidates(ref: RefPair, X1: Dist, X2: Dist,
                        budget: int = BUDGET,
                        kinds: Optional[Sequence[MoveKind]] = None) -> List[Move]:
    """Scored moves for the requested classes, in class-then-parameter order.

    Fibre classes take the top sqrt(budget) conditioning values per side by
    probability mass and pair each fibre law of X1 with each of X2; the
    endgame conditions on the heaviest budget values of the four-fold sum S
    and scores all of those slices at once. The sum and fibre classes are
    built first and scored together by one RefPair.parts call, as descend
    scores them. Each sum of the pair is taken once across the classes,
    and when X2 is X1 one family of fibre laws serves as both sides.
    """
    sums: _Sums = {}
    asked = [kind for kind in CLASS_ORDER if kinds is None or kind in kinds]
    _, tau, move = _scored(ref, {kind: _class_laws(X1, X2, budget, kind, sums)
                                 for kind in asked if kind is not MoveKind.ENDGAME})
    moves = [move(k) for k in range(len(tau))]
    if MoveKind.ENDGAME in asked:
        moves += [_endgame_move(*sc) for sc in _endgame_choices(ref, X1, X2, budget, sums)]
    return moves


def _sum(sums: _Sums, A: Dist, B: Dist) -> Dist:
    """xor_convolve(A, B), taken once per sums; holding the operands keeps
    their ids from passing to new laws."""
    key = (id(A), id(B))
    if key not in sums:
        sums[key] = (A, B, xor_convolve(A, B))
    return sums[key][2]


def _class_laws(X1: Dist, X2: Dist, budget: int, kind: MoveKind,
                sums: _Sums) -> _Built:
    """The unscored candidates of a sum or fibre class, its sums of the
    pair from sums."""
    if kind == MoveKind.SUM_SELF:
        laws = [_sum(sums, X1, X1)]
        if X2 is not X1:
            laws.append(_sum(sums, X2, X2))
        return [()], laws, np.array([0]), np.array([len(laws) - 1])
    if kind == MoveKind.SUM_CROSS:
        return [()], [_sum(sums, X1, X2)], np.array([0]), np.array([0])
    # fibres of X1 over X1 ^ Y1 = g and of X2 over X2 ^ Y2 = g'
    m = max(1, int(np.sqrt(budget)))
    cross = kind == MoveKind.FIBRE_CROSS
    Y1, Y2 = (X2, X1) if cross else (X1, X2)
    tops1 = _top_support(_sum(sums, X1, Y1), m)
    A = B = _fibre_laws(X1, Y1, tops1)
    laws = [*A.values()]
    if X2 is not X1:
        tops2 = tops1 if cross else _top_support(_sum(sums, X2, Y2), m)
        B = _fibre_laws(X2, Y2, tops2)
        laws += B.values()
    i, j = np.indices((len(A), len(B))).reshape(2, -1)
    return [(g, gp) for g in A for gp in B], laws, i, j + len(laws) - len(B)


def _scored(ref: RefPair, built: Dict[MoveKind, _Built]) -> _Scored:
    """The built classes, in their order, every class scored by one
    RefPair.parts call on all of their laws: each class's span of the
    candidates, their taus, and move(k), candidate k built as a Move."""
    laws: List[Dist] = []
    spans: Dict[MoveKind, slice] = {}
    kinds: List[MoveKind] = []
    params: List[Tuple[int, ...]] = []
    i, j = [], []
    for kind, (prm, L, a, b) in built.items():
        spans[kind] = slice(len(kinds), len(kinds) + len(prm))
        kinds += [kind] * len(prm)
        params += prm
        i += (a + len(laws)).tolist()
        j += (b + len(laws)).tolist()
        laws += L
    d, d1, d2 = ref.parts(laws, i, j) if kinds else np.zeros((3, 0))
    tau = ref.tau_of(d, d1, d2)

    def move(k: int) -> Move:
        return Move(kinds[k], params[k], (laws[i[k]], laws[j[k]]), float(tau[k]), float(d[k]))
    return spans, tau, move


def _endgame_choices(ref: RefPair, X1: Dist, X2: Dist, budget: int,
                     sums: _Sums) -> List[Tuple[int, EndgameChoice]]:
    """The endgame class as (s, choice) per slice S = s, scored by its own
    kernel (bsg._slice_choices), its sums of the pair from sums."""
    _endgame_guard(X1, X2)
    C = _sum(sums, X1, X2)
    # the law of S; a value that C * C holds by round-off alone has no
    # slice and is dropped
    values = _top_support(_sum(sums, C, C), budget)
    return [(s, ch) for s, ch in zip(values, _slice_choices(ref, X1, X2, np.array(values)))
            if ch is not None]


def _endgame_move(s: int, ch: EndgameChoice) -> Move:
    return Move(MoveKind.ENDGAME, (s,) + ch.choice, ch, ch.tau, ch.d)


def _pair_score(ref: RefPair, X1: Dist, X2: Dist) -> Tuple[float, float]:
    """d[X1; X2] and tau, by the RefPair.parts call that scores the
    candidates; a pair of one law is one law."""
    laws = [X1] if X2 is X1 else [X1, X2]
    d, d1, d2 = ref.parts(laws, [0], [len(laws) - 1])[:, 0]
    return float(d), float(ref.tau_of(d, d1, d2))


def _shared(X1: Dist, X2: Dist) -> Dist:
    """X1 when X2 is byte-equal to it (the merge test of ruzsa._law_ids), else X2."""
    return X1 if X2 is X1 or _law_key(X2) == _law_key(X1) else X2


def descend(ref: RefPair, X1: Dist, X2: Dist, *,
            eps_step: float = EPS_STEP, eps_d: float = EPS_D,
            budget: int = BUDGET, max_iter: int = MAX_ITER) -> DescentState:
    """Greedy tau minimization from the given pair.

    Each iteration scores every class, picks by the tie rule
    (ruzsa._first_least over the taus in class order) and, if the pick
    lowers tau by more than eps_step, builds its Move, the only one it
    builds, and takes it. It stops when d[X1; X2] <= eps_d (converged), no
    move helps, or max_iter is hit. Each trace row records
    per class the least tau, the wall time (per_class_s) and the number of
    candidates (per_class_candidates; 0 for a class the cost guard
    skipped), and for each skipped class the name and size of the guard
    that tripped (guard_trips).

    The sum and fibre classes are built, then scored together by one
    RefPair.parts call, whose time is the row's scoring_s; their
    per_class_s is the time to build their laws, and the endgame's is its
    whole time. The state's k and tau after a move are the d and tau the
    accepted move was scored with; where prune() drops mass from its laws,
    the pruned pair is scored again by the same call, as is the starting
    pair (state.k_start).

    A byte-equal pair, at the start or after a move, is held as one object
    (X2 is X1), and so are byte-equal references; state.ref stays the
    caller's. While X2 is X1, the sum-cross and fibre-self candidates would
    repeat the sum-self and fibre-cross ones and are not built: the trace
    reads their least tau and count from that twin, the ones scoring would
    give, and their per_class_s is 0.0; the endgame scores the gamma = U
    rows of each slice alone.

    Each sum of the pair is taken once per iteration, by the first class
    that reads it, and its time falls in that class's per_class_s.
    """
    X2 = _shared(X1, X2)
    scoring_ref = replace(ref, X02=_shared(ref.X01, ref.X02))
    k, tau = _pair_score(scoring_ref, X1, X2)
    state = DescentState(ref, X1, X2, k, tau, k_start=k)
    state.snapshots.append((X1, X2))
    # with X2 == X1, X1 + X2 is X1 + X1 and X1 | X1 + X1 is X1 | X1 + X2
    twin = {MoveKind.SUM_CROSS: MoveKind.SUM_SELF,
            MoveKind.FIBRE_SELF: MoveKind.FIBRE_CROSS}
    for it in range(max_iter):
        if state.k <= eps_d:
            state.converged = True
            state.stop_reason = "distance below eps_d"
            return state
        X1, X2 = state.X1, state.X2
        mirrored = twin if X2 is X1 else {}
        sums: _Sums = {}
        seconds: Dict[MoveKind, float] = {}
        built: Dict[MoveKind, _Built] = {}
        for kind in CLASS_ORDER[:-1]:
            if kind not in mirrored:
                t0 = perf_counter()
                built[kind] = _class_laws(X1, X2, budget, kind, sums)
                seconds[kind] = perf_counter() - t0
        t0 = perf_counter()
        spans, taus, move = _scored(scoring_ref, built)
        scoring_s = perf_counter() - t0
        skipped: List[str] = []
        guard_trips: Dict[str, dict] = {}
        endgame: List[Tuple[int, EndgameChoice]] = []
        t0 = perf_counter()
        try:
            endgame = _endgame_choices(scoring_ref, X1, X2, budget, sums)
        except CostGuardExceeded as exc:
            skipped.append(MoveKind.ENDGAME.value)
            guard_trips[MoveKind.ENDGAME.value] = {"guard": exc.guard, "size": exc.size}
        seconds[MoveKind.ENDGAME] = perf_counter() - t0
        # each class's taus; a mirrored class reads its twin's, which come
        # first in tie order, so the pick is never one of its candidates
        by_class = {kind: taus[spans[mirrored.get(kind, kind)]] for kind in CLASS_ORDER[:-1]}
        by_class[MoveKind.ENDGAME] = np.array([ch.tau for _, ch in endgame])
        picked = np.r_[taus, by_class[MoveKind.ENDGAME]]
        pick = int(_first_least(picked, np.array([0, len(picked)]))[0]) if len(picked) else -1
        if pick < 0 or picked[pick] >= state.tau - eps_step:
            state.stop_reason = "no improving move"
            return state
        chosen = move(pick) if pick < len(taus) else _endgame_move(*endgame[pick - len(taus)])
        state.trace.append({
            "iter": it,
            "kind": chosen.kind.value,
            "params": list(chosen.params),
            "tau_before": state.tau,
            "tau_after": chosen.tau,
            "per_class_tau": {kind.value: float(t.min())
                              for kind, t in by_class.items() if len(t)},
            "per_class_s": {kind.value: seconds.get(kind, 0.0) for kind in CLASS_ORDER},
            "scoring_s": scoring_s,
            "per_class_candidates": {kind.value: len(t) for kind, t in by_class.items()},
            "skipped_classes": skipped,
            "guard_trips": guard_trips,
        })
        X1p, X2p = chosen.X1p, chosen.X2p
        P1 = X1p.prune()
        P2 = P1 if X2p is X1p else X2p.prune()
        state.X1, state.X2 = P1, _shared(P1, P2)
        if P1 is X1p and P2 is X2p:
            state.k, state.tau = chosen.d, chosen.tau
        else:
            # prune() dropped mass: the pair it left has its own d and tau
            state.k, state.tau = _pair_score(scoring_ref, state.X1, state.X2)
        state.trace[-1]["k_after"] = state.k
        state.snapshots.append((state.X1, state.X2))
        del state.snapshots[:-SNAPSHOT_CAP]
    state.stop_reason = "iteration limit"
    state.converged = state.k <= eps_d
    return state


def _heavy_span(X: Dist, theta: float = 0.5) -> SubgroupBasis:
    """extract_subgroup's H: the span of the offsets from the mode of the
    points within a factor theta of the maximum weight."""
    idx, w = X.items()
    return span(idx[w >= theta * w.max()] ^ idx[np.argmax(w)], X.n)


def extract_subgroup(X: Dist, theta: float = 0.5) -> SubgroupCertificate:
    """Span of the heavy differences of X around its mode.

    Points within a factor theta of the maximum weight are taken as the
    approximate coset; their offsets from the mode span the subgroup. The
    certificate grades H against X itself, so both distances equal
    d[X; U_H] and the reference distance is d[X; X].
    """
    H = _heavy_span(X, theta)
    d = _rdist_uniform(X, H)
    k0 = rdist(X, X)
    return SubgroupCertificate(H, d, d, k0, 2.0 * d <= 11.0 * k0 + 1e-6)


def _rdist_uniform(X: Dist, H: SubgroupBasis) -> float:
    """d[X; U_H] in closed form: X ^ U_H is uniform on each coset of H, with
    the coset's mass under X, so d = H[X mod H] + (rank H / 2) log 2 - H[X]/2.
    The coset masses are summed over H.reduce of X's support."""
    coset = np.unique(H.reduce(X.items()[0]), return_inverse=True)[1]
    return float(_entropy_weights(np.bincount(coset, weights=X.items()[1]))
                 + 0.5 * H.rank * np.log(2.0) - 0.5 * X.entropy())


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
    V = span(np.concatenate([X.support() ^ a for X, a in zip(laws, shifts)]), laws[0].n)
    return V, [_to_coords(X, V, a) for X, a in zip(laws, shifts)]


def _from_coords(X: Dist, V: SubgroupBasis, a0: int) -> Dist:
    """The law in V's coordinates embedded in F_2^n and shifted by a0."""
    idx, w = X.items()
    return Dist(V.ambient_dim, idx=V.from_coords(idx) ^ a0, w=w)


def entropic_pfr(X01: Dist, X02: Dist, *, eta: float = ETA_DEFAULT,
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
    laws = (X01,) if _shared(X01, X02) is X01 else (X01, X02)
    V, Y = _reduce(laws, [a0] * len(laws))
    Y01, Y02 = Y[0], Y[-1]
    inner = descend(RefPair(Y01, Y02, eta), Y02, Y01, eps_d=eps_d,
                    budget=budget, max_iter=max_iter)
    Hr = _heavy_span(inner.X1)
    d1 = _rdist_uniform(Y01, Hr)
    d2 = d1 if Y02 is Y01 else _rdist_uniform(Y02, Hr)
    # for one law descent scored its start (Y02, Y01) by RefPair.parts
    k0 = inner.k_start if Y02 is Y01 else rdist(Y01, Y02)
    ok = bool(d1 + d2 <= 11.0 * k0 + 1e-6
              and d1 <= 6.0 * k0 + 1e-6 and d2 <= 6.0 * k0 + 1e-6)
    H = span([V.from_coords(h) for h in Hr.rows], X01.n)

    def up(A: Dist, B: Dist) -> Tuple[Dist, Dist]:
        """The pair in F_2^n, a pair of one law embedded once."""
        A_up = _from_coords(A, V, a0)
        return A_up, A_up if B is A else _from_coords(B, V, a0)

    trace = []
    for row in inner.trace:
        at = _ELEMENT_PARAMS.get(MoveKind(row["kind"]), ())
        params = [V.from_coords(p) if pos in at else p
                  for pos, p in enumerate(row["params"])]
        trace.append({**row, "params": params})
    snapshots = [up(A, B) for A, B in inner.snapshots]
    # descend's last snapshot is its final pair
    X1, X2 = snapshots[-1]
    state = replace(inner, ref=ref, X1=X1, X2=X2, trace=trace,
                    intrinsic_dim=V.rank, snapshots=snapshots)
    return state, SubgroupCertificate(H, d1, d2, k0, ok)


def diagnostics(ref: RefPair, X1: Dist, X2: Dist) -> Dict[str, object]:
    """Endgame informations and the estimate chain at the current pair.

    The named bounds hold at a tau minimizer; away from one they are
    reported with their slacks but not enforced. Every reported quantity is
    unchanged by translating any of the four laws and by an injective linear
    map, so each law is shifted by its own smallest support point and all
    four are carried into F_2^r, V the span of the shifted supports and r
    its rank. Every law read is a two-fold sum or a fibre of one: I1-I3
    read pairs of fibres of C (endgame_tables, under its cost guard), and
    given S = s, U and V have the law proportional to C(u) C(u ^ s), and W
    the law proportional to D1(w) D2(w ^ s) (EndgameTables.C and .D).
    """
    laws = (ref.X01, ref.X02, X1, X2)
    _, (Y01, Y02, X1, X2) = _reduce(laws, [int(X.support()[0]) for X in laws])
    eta = ref.eta
    tabs = endgame_tables(X1, X2)
    k, I1, I2, I3, H_S = tabs.k, tabs.I1, tabs.I2, tabs.I3, tabs.H_S
    H1 = X1.entropy()
    H2 = X2.entropy()
    (D1, D2), C = tabs.D, tabs.C

    # d[X1 + X~2; X2 + X~1] and its conditioned partner, from the pair
    # fibring identity: the two sums plus I1 recover 2k exactly.
    d_sums = H_S - C.entropy()
    d_cond = cond_rdist(X1.n, _cross_family(X1, X2), _cross_family(X2, X1))
    entries: Dict[str, object] = {
        "k": k, "I1": I1, "I2": I2, "I3": I3, "H_S": H_S,
        "sum_dist": d_sums, "cond_sum_dist": d_cond,
    }
    bounds = {
        "sum_split_identity": (d_sums + d_cond + I1, 2.0 * k),
        "sum_entropy_bound": (H_S, 0.5 * H1 + 0.5 * H2 + (2.0 + eta) * k - I1),
        "first_info_bound": (I1, 2.0 * eta * k),
        "self_info_bound": (I2, eta * (_rdist_of(D1, X1, X1) + _rdist_of(D2, X2, X2))),
        "info_total_bound": (I1 + I2 + I3,
                             6.0 * eta * k - ((1.0 - 5.0 * eta) / (1.0 - eta))
                             * (2.0 * eta * k - I1)),
    }
    # distance increments d[X0_i; A | S] - d[X0_i; X_i] for A in {U, V, W};
    # V | S has the law of U | S, so its increments are U's, counted twice.
    # The two references are one family of two runs, each of mass 1/2, so
    # twice its distance from A | S is the sum of theirs
    refs = _law_runs(Y01, Y02)
    inc_total = -3.0 * (rdist(Y01, X1) + rdist(Y02, X2))
    for A, B, times in ((C, C, 2.0), (D1, D2, 1.0)):
        inc_total += 2.0 * times * cond_rdist(X1.n, refs, _cross_family(A, B))
    bounds["cond_dist_increment_bound"] = (
        inc_total, 3.0 * H_S - 1.5 * (H1 + H2))
    bounds["increment_vs_k_bound"] = (
        3.0 * H_S - 1.5 * (H1 + H2),
        (6.0 - 3.0 * eta) * k + 3.0 * (2.0 * eta * k - I1))
    entries["bounds"] = {
        name: {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "holds": rhs - lhs >= -1e-9}
        for name, (lhs, rhs) in bounds.items()
    }
    return entries
