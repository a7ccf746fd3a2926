"""Candidate generation, the descent loop, and subgroup extraction."""
from dataclasses import replace

import numpy as np
import pytest

from entropic_pfr import bsg, descent, ruzsa
from entropic_pfr.bsg import endgame_tables
from entropic_pfr.descent import (CLASS_ORDER, SNAPSHOT_CAP, Move, MoveKind,
                                  _from_coords, _to_coords, descend,
                                  diagnostics, entropic_pfr, extract_subgroup,
                                  generate_candidates)
from entropic_pfr.dists import (CostGuardExceeded, Dist, fwht, uniform_on,
                                uniform_on_subgroup, xor_convolve)
from entropic_pfr.fixtures import demo_pair
from entropic_pfr.groups import LinearMap, span
from entropic_pfr.randgen import make_rng, random_coset_union, random_dist
from entropic_pfr.ruzsa import ETA_DEFAULT, RefPair, _law_key, rdist
from oracles import (best_move, diagnostics_gap, diagnostics_via_joints, table_informations,
                     uvs_table)


def random_ref(rng, n: int) -> RefPair:
    return RefPair(random_dist(rng, n), random_dist(rng, n))


def big_pair(seed: int):
    # 80-point supports on 8 bits: (80*80)^2 clears descent's endgame cost
    # guard by a wide margin, while sums and fibres stay cheap
    rng = make_rng(seed)
    pts1 = rng.choice(256, size=80, replace=False)
    pts2 = rng.choice(256, size=80, replace=False)
    return uniform_on(pts1, 8), uniform_on(pts2, 8)


def test_class_order_covers_every_kind():
    assert [k.value for k in CLASS_ORDER] == [
        "sum-self", "fibre-cross", "sum-cross", "fibre-self", "endgame"]
    assert set(CLASS_ORDER) == set(MoveKind)


def test_class_order_wins_ties_within_rounding():
    # the later class is lower only by round-off: the earlier class stays
    # (d[X; X] = 0 on a subgroup; the pick reads only tau)
    X = uniform_on([0, 1], 2)
    early = Move(MoveKind.FIBRE_CROSS, (), (X, X), 0.12206803207423446, 0.0)
    late = Move(MoveKind.ENDGAME, (), (X, X), 0.12206803207423446 - 1e-16, 0.0)
    assert late.tau < early.tau
    assert best_move([early, late]) is early
    clear = Move(MoveKind.ENDGAME, (), (X, X), early.tau - 1e-9, 0.0)
    assert best_move([early, clear]) is clear
    # a chain of steps under TIE_TOL: the pick is the first move within
    # TIE_TOL of the least, not the last one lower than an incumbent by
    # more than TIE_TOL
    chain = [Move(kind, (), (X, X), early.tau - k * 0.6e-12, 0.0)
             for k, kind in enumerate(CLASS_ORDER[:3])]
    assert best_move(chain) is chain[1]
    assert best_move([]) is None


def coset_law_maker(rng, n):
    # 8-point laws on two cosets of one 4-element subgroup: sums and fibres
    # collide, so no class is blind to the pair it scores
    u, v = (int(z) for z in rng.integers(1, 1 << n, 2))
    H = np.array([0, u, v, u ^ v])
    return lambda: Dist.from_sparse(
        np.r_[H ^ int(rng.integers(1 << n)), H ^ int(rng.integers(1 << n))],
        rng.random(8), n=n)


def test_candidate_laws_and_tau_consistency():
    rng = make_rng(4)
    cases = [(random_dist(rng, 4), random_dist(rng, 4), random_ref(rng, 4))
             for _ in range(5)]
    # at n = 17 every class scores its 8-point laws by listed sums
    mk = coset_law_maker(rng, 17)
    cases.append((mk(), mk(), RefPair(mk(), mk())))
    for X1, X2, ref in cases:
        moves = generate_candidates(ref, X1, X2, budget=16)
        by_kind = {}
        for mv in moves:
            by_kind.setdefault(mv.kind, []).append(mv)
            # every move's tau is the functional of its own output pair
            assert mv.tau == pytest.approx(ref.tau(mv.X1p, mv.X2p), abs=1e-12)
            assert len(by_kind[mv.kind]) <= 16

        (ss,) = by_kind[MoveKind.SUM_SELF]
        assert ss.params == ()
        assert np.allclose(ss.X1p.dense(), xor_convolve(X1, X1).dense())
        assert np.allclose(ss.X2p.dense(), xor_convolve(X2, X2).dense())

        (sc,) = by_kind[MoveKind.SUM_CROSS]
        cross = xor_convolve(X1, X2).dense()
        assert np.allclose(sc.X1p.dense(), cross)
        assert np.allclose(sc.X2p.dense(), cross)

        # conditioning values come from the relevant sum's support
        supp11 = set(xor_convolve(X1, X1).items()[0].tolist())
        supp22 = set(xor_convolve(X2, X2).items()[0].tolist())
        supp12 = set(xor_convolve(X1, X2).items()[0].tolist())
        for mv in by_kind[MoveKind.FIBRE_SELF]:
            g1, g2 = mv.params
            assert g1 in supp11 and g2 in supp22
        for mv in by_kind[MoveKind.FIBRE_CROSS]:
            g1, g2 = mv.params
            assert g1 in supp12 and g2 in supp12


def test_endgame_candidates_build_their_laws_only_when_read(monkeypatch):
    # descent accepts one move per iteration: scoring the endgame's slices of
    # S builds no Dist per slice, and a move builds its pair on first read
    rng = make_rng(12)
    X1, X2, ref = random_dist(rng, 4), random_dist(rng, 4), random_ref(rng, 4)
    built = []
    init = Dist.__init__
    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Dist, "__init__", counting_init)
    count = {}
    for budget in (4, 64):
        built.clear()
        moves = generate_candidates(ref, X1, X2, budget, [MoveKind.ENDGAME])
        count[len(moves)] = len(built)
    assert sorted(count) == [4, 16]        # four slices, then every slice
    assert count[4] == count[16]
    mv = moves[-1]
    built.clear()
    X1p, X2p = mv.X1p, mv.X2p
    assert built == [X1p, X2p]
    assert mv.X1p is X1p and mv.X2p is X2p and len(built) == 2
    assert mv.tau == pytest.approx(ref.tau(X1p, X2p), abs=1e-12)


def test_fibre_moves_are_conditioned_translates():
    # fibre law at g is proportional to base(x) * base(x ^ g)
    rng = make_rng(11)
    X1, X2 = random_dist(rng, 3), random_dist(rng, 3)
    ref = random_ref(rng, 3)
    moves = generate_candidates(ref, X1, X2, budget=9,
                                kinds=[MoveKind.FIBRE_SELF])
    assert moves and all(mv.kind is MoveKind.FIBRE_SELF for mv in moves)
    p1, p2 = X1.dense(), X2.dense()
    for mv in moves:
        g1, g2 = mv.params
        for out, p, g in ((mv.X1p, p1, g1), (mv.X2p, p2, g2)):
            raw = p * p[np.arange(8) ^ g]
            assert raw.sum() > 0
            assert np.allclose(out.dense(), raw / raw.sum(), atol=1e-12)


def test_fibre_law_matches_the_dense_product():
    # descent._fibre_laws cuts a side's fibres in one pass over its top values
    n = 17
    rng = make_rng(17)
    X, Y = random_dist(rng, n, 3000), random_dist(rng, n, 3000)
    p, q = X.dense(), Y.dense()
    for base, shift, dense in ((X, X, p), (X, Y, q)):
        gs = [int(g) for g in X.support()[:4] ^ shift.support()[7]]
        laws = descent._fibre_laws(base, shift, gs)
        assert list(laws) == gs
        for g, law in laws.items():
            raw = p * dense[np.arange(1 << n) ^ g]
            assert np.array_equal(law.support(), np.flatnonzero(raw))
            np.testing.assert_allclose(law.dense(), raw / raw.sum(),
                                       rtol=1e-15, atol=0)
    # a law on the lower half of F_2^n meets none of its top-bit translates:
    # that g gets no law, and g = 0 in the same pass keeps its own
    low = Dist(n, idx=X.support() % (1 << (n - 1)), w=X.items()[1])
    laws = descent._fibre_laws(low, low, [1 << (n - 1), 0])
    assert list(laws) == [0]
    raw = low.dense() ** 2
    np.testing.assert_allclose(laws[0].dense(), raw / raw.sum(), rtol=1e-15, atol=0)
    # on a subgroup every fibre over one of its elements is the uniform law:
    # byte-equal fibres are one Dist
    U = uniform_on_subgroup(span([3, 5, 16], 6))
    laws = descent._fibre_laws(U, U, [int(h) for h in U.support()])
    assert len(laws) == 8 and len({id(L) for L in laws.values()}) == 1
    assert _law_key(laws[0]) == _law_key(U)


def test_kinds_filter_restricts_classes():
    rng = make_rng(2)
    X1, X2 = random_dist(rng, 4), random_dist(rng, 4)
    ref = random_ref(rng, 4)
    only = [MoveKind.SUM_SELF, MoveKind.ENDGAME]
    moves = generate_candidates(ref, X1, X2, budget=16, kinds=only)
    assert {mv.kind for mv in moves} <= set(only)
    assert any(mv.kind is MoveKind.ENDGAME for mv in moves)


def test_descend_on_coset_pair_is_immediate():
    H = span([1, 2, 4], 6)
    U = uniform_on_subgroup(H)
    st = descend(RefPair(U, U), U, U)
    assert st.converged
    assert st.stop_reason == "distance below eps_d"
    assert st.trace == []
    assert st.snapshots == [(U, U)]
    assert st.k <= 1e-12


def test_descend_dense_subset_reaches_subgroup():
    # half-density subset of a rank-5 subgroup; the first accepted sum
    # already lands back on the subgroup for this draw
    from entropic_pfr.fixtures import dense_subgroup_subset
    rng = np.random.default_rng(1)
    pts, H = dense_subgroup_subset(rng, 6, density=0.5)
    U = uniform_on(pts, 6)
    st = descend(RefPair(U, U), U, U, eps_d=1e-6)
    assert st.converged and st.k <= 1e-6
    assert rdist(st.X1, uniform_on_subgroup(H)) <= 1e-3


def test_trace_rows_record_strict_progress():
    X01, X02 = demo_pair(1)
    ref = RefPair(X01, X02)
    st = descend(ref, X02, X01)
    assert st.converged
    assert len(st.trace) >= 1
    tau_prev = ref.tau(X02, X01)
    for row in st.trace:
        assert row["tau_before"] == pytest.approx(tau_prev, abs=1e-12)
        assert row["tau_after"] < row["tau_before"] - 1e-9
        assert row["kind"] in {k.value for k in MoveKind}
        assert "k_after" in row and "params" in row
        # the chosen class's own best matches the accepted tau
        assert row["per_class_tau"][row["kind"]] == pytest.approx(
            row["tau_after"], abs=1e-12)
        tau_prev = row["tau_after"]
    assert st.snapshots[-1] == (st.X1, st.X2)
    assert len(st.snapshots) == min(len(st.trace) + 1, SNAPSHOT_CAP)


def test_iteration_limit_reported():
    X01, X02 = demo_pair(1)
    st = descend(RefPair(X01, X02), X02, X01, max_iter=1)
    assert not st.converged
    assert st.stop_reason == "iteration limit"
    assert len(st.trace) == 1


def test_no_improving_move_when_threshold_huge():
    rng = make_rng(8)
    X1, X2 = random_dist(rng, 4), random_dist(rng, 4)
    st = descend(random_ref(rng, 4), X1, X2, eps_step=1e9)
    assert not st.converged
    assert st.stop_reason == "no improving move"
    assert st.trace == []


def test_oversized_supports_skip_endgame_only():
    X1, X2 = big_pair(7)
    st = descend(RefPair(X1, X2), X1, X2, max_iter=1)
    row = st.trace[0]
    assert row["skipped_classes"] == ["endgame"]
    assert row["guard_trips"] == {
        "endgame": {"guard": "ENDGAME_SUPPORT_CAP", "size": (80 * 80) ** 2}}
    assert set(row["per_class_tau"]) == {
        "sum-self", "fibre-cross", "sum-cross", "fibre-self"}


def test_trace_reports_time_and_candidates_per_class():
    rng = make_rng(13)
    ref = random_ref(rng, 4)
    X1, X2 = random_dist(rng, 4), random_dist(rng, 4)
    st = descend(ref, X1, X2, budget=16, max_iter=1)
    row = st.trace[0]
    classes = [k.value for k in CLASS_ORDER]
    assert list(row["per_class_s"]) == classes
    assert all(t >= 0.0 for t in row["per_class_s"].values())
    assert row["scoring_s"] >= 0.0
    assert row["per_class_candidates"] == {
        k.value: len(generate_candidates(ref, X1, X2, 16, [k])) for k in CLASS_ORDER}
    assert row["per_class_candidates"]["endgame"] > 0


def test_guard_skipped_class_counts_no_candidates():
    X1, X2 = big_pair(7)
    row = descend(RefPair(X1, X2), X1, X2, max_iter=1).trace[0]
    assert row["skipped_classes"] == ["endgame"]
    assert row["per_class_candidates"]["endgame"] == 0
    assert set(row["per_class_s"]) == {k.value for k in CLASS_ORDER}
    for k in CLASS_ORDER[:-1]:
        assert row["per_class_candidates"][k.value] == len(
            generate_candidates(RefPair(X1, X2), X1, X2, descent.BUDGET, [k]))


def test_descend_raises_endgame_errors_that_are_not_guards(monkeypatch):
    # only CostGuardExceeded marks the endgame as skipped; any other error
    # is a fault and must reach the caller
    def broken(ref, X1, X2, values):
        raise ValueError("not a cost guard")
    monkeypatch.setattr(descent, "_slice_choices", broken)
    rng = make_rng(12)
    X1, X2 = random_dist(rng, 3), random_dist(rng, 3)
    with pytest.raises(ValueError, match="not a cost guard"):
        descend(random_ref(rng, 3), X1, X2, max_iter=1)


def test_descend_takes_the_endgame_move_without_the_endgame_tables(monkeypatch):
    # demo 3's first move is an endgame move (acceptance 7); descent scores
    # it from fibres of the two-fold sums and never builds the (U, V, S) law
    def refused(X1, X2):
        raise AssertionError("descent built the endgame tables")
    monkeypatch.setattr(bsg, "endgame_tables", refused)
    monkeypatch.setattr(descent, "endgame_tables", refused)
    X01, X02 = demo_pair(3)
    st = descend(RefPair(X01, X02), X02, X01, max_iter=1)
    assert st.trace[0]["kind"] == "endgame"
    assert st.trace[0]["per_class_candidates"]["endgame"] == descent.BUDGET


def _trip(f):
    """(guard, size) of the CostGuardExceeded f() raises, or None."""
    try:
        f()
    except CostGuardExceeded as exc:
        return exc.guard, exc.size
    return None


def test_the_endgame_guard_trips_past_the_support_cap(monkeypatch):
    # pairs on both sides of ENDGAME_SUPPORT_CAP at n = 8 (lowered to
    # (8 * 8)^2 for the first two), one past the real cap, and two below
    # it: 20-point laws at n = 5 and 2-point laws at n = 21. Descent's
    # endgame trips the guard, name and size, on (|X1| |X2|)^2 alone, and
    # trips it before it takes X1 * X2 * X1 * X2. The endgame tables bound
    # their own work: at n = 21, where a (U, V, S) key would need 63 bits,
    # they match the table oracle on the pair carried into its span.
    rng = make_rng(40)

    def mk(n, m):
        return Dist.from_sparse(rng.choice(1 << n, m, replace=False), rng.random(m), n=n)
    cap = bsg.ENDGAME_SUPPORT_CAP
    cases = [((mk(8, 8), mk(8, 8)), 64 ** 2), ((mk(8, 9), mk(8, 8)), 64 ** 2),
             ((mk(8, 65), mk(8, 64)), cap), ((mk(5, 20), mk(5, 20)), cap),
             ((mk(21, 2), mk(21, 2)), cap)]
    seen = []
    for (X1, X2), at in cases:
        monkeypatch.setattr(bsg, "ENDGAME_SUPPORT_CAP", at)
        sums = {}
        got = _trip(lambda: descent._endgame_choices(RefPair(X1, X2), X1, X2, 4, sums))
        assert (not sums) == (got is not None)
        seen.append(got)
    assert seen == [None, ("ENDGAME_SUPPORT_CAP", 72 ** 2),
                    ("ENDGAME_SUPPORT_CAP", (65 * 64) ** 2), None, None]
    X1, X2 = cases[-1][0]
    _, (Y1, Y2) = descent._reduce([X1, X2], [int(X.support()[0]) for X in (X1, X2)])
    tabs, want = endgame_tables(X1, X2), table_informations(Y1, Y2)
    for key, value in want.items():
        assert getattr(tabs, key) == pytest.approx(value, rel=0, abs=1e-12), key


def test_top_support_orders_tied_masses_by_value():
    # masses within TIE_TOL of the one before tie and go by value, so
    # round-off cannot reorder them; a gap past TIE_TOL orders by mass
    X = Dist.from_sparse([7, 5, 2, 6, 1, 0, 3],
                         [0.1, 0.3, 0.3 + 4e-16, 0.3 - 4e-16, 0.2, 0.2 - 5e-12, 1e-3], n=3)
    assert descent._top_support(X, 8) == [2, 5, 6, 1, 0, 7, 3]
    assert descent._top_support(X, 2) == [2, 5]


def test_the_endgame_slices_do_not_depend_on_how_the_law_of_s_is_taken():
    # on a uniform set P(S = s) ties exactly across many s, and C * C and
    # the (U, V, S) marginal split those ties by different round-off; the
    # endgame conditions on the same values in the same order from either,
    # where an order by exact mass differs
    split = 0
    for seed, n in ((21, 6), (22, 7), (23, 8)):
        UA = uniform_on(random_coset_union(make_rng(seed), n, 3, 3, 0.5), n)
        C = xor_convolve(UA, UA)
        laws = [xor_convolve(C, C), uvs_table(UA, UA).marginal_dist("S")]
        assert np.array_equal(laws[0].support(), laws[1].support())
        assert descent._top_support(laws[0], 64) == descent._top_support(laws[1], 64)
        exact = [np.lexsort((X.items()[0], -X.items()[1])) for X in laws]
        split += not np.array_equal(*exact)
        ref = RefPair(UA, UA)
        moves = generate_candidates(ref, UA, UA, 64, [MoveKind.ENDGAME])
        values = descent._top_support(laws[1], 64)
        assert [mv.params for mv in moves] == [
            (s,) + ch.choice for s, ch in zip(values, bsg.endgame_choices(ref, UA, UA, values))]
    assert split


def test_the_endgame_drops_a_value_that_c_c_holds_by_round_off(monkeypatch):
    # X1 and X2 on the two cosets of an index-2 subgroup H at n = 6: S lies
    # in H, and C * C, C = X1 + X2, goes through the transform. A value off
    # H that round-off left in C * C has no slice: descent drops it and
    # scores the other values as before, where endgame_choices refuses it
    rng = make_rng(41)
    n = 6
    H = np.array([x for x in range(1 << n) if bin(x & 0b100001).count("1") % 2 == 0])
    X1 = Dist.from_sparse(rng.choice(H, 20, replace=False), rng.random(20), n=n)
    X2 = Dist.from_sparse(rng.choice(H, 20, replace=False) ^ 1, rng.random(20), n=n)
    assert xor_convolve(X1, X2).support_size() ** 2 >= n << n
    ref = RefPair(X1, X2)
    moves = generate_candidates(ref, X1, X2, 8, [MoveKind.ENDGAME])
    assert len(moves) == 8 and np.isin([mv.params[0] for mv in moves], H).all()
    top = descent._top_support
    monkeypatch.setattr(descent, "_top_support", lambda X, count: [1] + top(X, count - 1))
    got = generate_candidates(ref, X1, X2, 8, [MoveKind.ENDGAME])
    assert [mv.params for mv in got] == [mv.params for mv in moves[:7]]
    assert np.allclose([mv.tau for mv in got], [mv.tau for mv in moves[:7]], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="S=1 has zero mass"):
        bsg.endgame_choices(ref, X1, X2, [1] + top(xor_convolve(*[xor_convolve(X1, X2)] * 2), 7))


# -- symmetric pairs ----------------------------------------------------------

def rebuilt(X):
    """A copy of X read back from its arrays: another object, byte-equal."""
    idx, w = X.items()
    Y = Dist(X.n, idx=idx.copy(), w=w.copy())
    assert _law_key(Y) == _law_key(X)
    return Y


def dyadic_dist(rng, n):
    # weights in multiples of 1/64 read back without round-off, so a copy
    # rebuilt from the arrays is byte-equal
    return Dist(n, idx=np.arange(1 << n), w=rng.multinomial(64, np.full(1 << n, 0.5 ** n)))


def symmetric_cases():
    """(ref, X1, X2) with X1 and X2 byte-equal but distinct objects: U_A of
    two coset unions against itself, as the set pipeline starts (the larger
    one past the endgame's support cap, so it descends by sums), and a
    random law under random references. Last, byte-equal references over a
    pair that is not, where mirroring the classes would be wrong."""
    rng = make_rng(21)
    cases = []
    for n, rank, cosets in ((6, 2, 3), (10, 5, 3)):
        UA = uniform_on(random_coset_union(rng, n, rank, cosets), n)
        cases.append((RefPair(UA, rebuilt(UA)), rebuilt(UA), UA))
    X, R = dyadic_dist(rng, 4), dyadic_dist(rng, 4)
    return cases + [(random_ref(rng, 4), X, rebuilt(X)),
                    (RefPair(R, rebuilt(R)), random_dist(rng, 4), random_dist(rng, 4))]


def scored_alone(ref, X1, X2, kind):
    try:
        return generate_candidates(ref, X1, X2, descent.BUDGET, [kind])
    except CostGuardExceeded:
        assert kind is MoveKind.ENDGAME
        return []


def test_mirrored_classes_score_what_each_class_scores_alone():
    for ref, X1, X2 in symmetric_cases():
        st = descend(ref, X1, X2, max_iter=1)
        assert st.ref is ref
        row = st.trace[0]
        got = {k: scored_alone(ref, X1, X2, k) for k in CLASS_ORDER}
        assert row["per_class_tau"] == {k.value: min(m.tau for m in mv)
                                        for k, mv in got.items() if mv}
        assert row["per_class_candidates"] == {k.value: len(mv)
                                               for k, mv in got.items()}
        chosen = best_move([mv for k in CLASS_ORDER for mv in got[k]])
        assert (row["kind"], row["params"], row["tau_after"]) == (
            chosen.kind.value, list(chosen.params), chosen.tau)
        # the start is scored by the call that scores the candidates
        assert row["tau_before"] == descent._pair_score(ref, X1, descent._shared(X1, X2))[1]
        assert row["tau_before"] == pytest.approx(ref.tau(X1, X2), abs=1e-12)
        # after the move, k is the d the move was scored with (no law of
        # these moves loses mass to prune)
        assert chosen.X1p.prune() is chosen.X1p and chosen.X2p.prune() is chosen.X2p
        assert row["k_after"] == chosen.d == st.k
        assert row["k_after"] == pytest.approx(rdist(chosen.X1p, chosen.X2p), abs=1e-12)
        # a symmetric pair's cross sum ties its self sum exactly
        tau = row["per_class_tau"]
        mirrored = _law_key(X1) == _law_key(X2)
        assert (tau["sum-cross"] == tau["sum-self"]) == mirrored
        assert (tau["fibre-self"] == tau["fibre-cross"]) == mirrored


def test_a_byte_equal_pair_is_held_as_one_law():
    for ref, X1, X2 in symmetric_cases():
        st = descend(ref, X1, X2)
        assert st.ref is ref
        assert [A is B for A, B in st.snapshots] == [
            _law_key(A) == _law_key(B) for A, B in st.snapshots]
        assert (st.X2 is st.X1) == (_law_key(st.X1) == _law_key(st.X2))
    # the coset union past the support cap stays one law across its moves
    st = descend(*symmetric_cases()[1])
    assert len(st.trace) >= 2
    assert all(A is B for A, B in st.snapshots)


def test_a_symmetric_iteration_builds_two_classes_for_one_scoring_call(monkeypatch):
    built = []
    class_laws = descent._class_laws
    def counting(X1, X2, *args):
        built.append((X1, X2))
        return class_laws(X1, X2, *args)
    monkeypatch.setattr(descent, "_class_laws", counting)
    seen = set()
    for ref, X1, X2 in symmetric_cases():
        built.clear()
        st = descend(ref, X1, X2)
        # each scored pair is the snapshot before its row, and the last
        # one too when no move improved it
        scored = st.snapshots[:len(st.trace) + (st.stop_reason == "no improving move")]
        per_iter = [2 if A is B else 4 for A, B in scored]
        assert built == [(A, B) for (A, B), m in zip(scored, per_iter) for _ in range(m)]
        seen.update(per_iter)
    assert seen == {2, 4}


def test_the_pair_score_is_rdist_and_ref_tau():
    rng = make_rng(37)
    cases = symmetric_cases() + [(random_ref(rng, 4), random_dist(rng, 4),
                                  random_dist(rng, 4))]
    for ref, X1, X2 in cases:
        X2 = descent._shared(X1, X2)
        k, tau = descent._pair_score(replace(ref, X02=descent._shared(ref.X01, ref.X02)),
                                     X1, X2)
        assert k == pytest.approx(rdist(X1, X2), abs=1e-12)
        assert tau == pytest.approx(ref.tau(X1, X2), abs=1e-12)
        # bit for bit the parts RefPair.parts gives the pair
        d, d1, d2 = ref.parts([X1, X2], [0], [1])[:, 0]
        assert (k, tau) == (d, ref.tau_of(d, d1, d2))
    # at the swapped start tau collapses to (1 + 2 eta) d
    ref = random_ref(rng, 4)
    k, tau = descent._pair_score(ref, ref.X02, ref.X01)
    assert tau == pytest.approx((1 + 2 * ref.eta) * k, abs=1e-14)


def _record_scoring(monkeypatch):
    """Each iteration's scores, as descent takes them: the sum and fibre
    classes from _scored, and the endgame's (s, choice) pairs, [] where
    its guard trips."""
    seen = {"scores": [], "endgame": []}
    scored, choices = descent._scored, descent._endgame_choices
    def scoring(*args):
        seen["scores"].append(scored(*args))
        return seen["scores"][-1]
    def choosing(*args):
        seen["endgame"].append([])
        seen["endgame"][-1] = choices(*args)
        return seen["endgame"][-1]
    monkeypatch.setattr(descent, "_scored", scoring)
    monkeypatch.setattr(descent, "_endgame_choices", choosing)
    return seen


def _record_moves(monkeypatch):
    """Every Move descent builds."""
    built = []
    def building(*args):
        built.append(Move(*args))
        return built[-1]
    monkeypatch.setattr(descent, "Move", building)
    return built


# with X2 is X1 these classes are not built; their twin stands for them
TWIN = {MoveKind.SUM_CROSS: MoveKind.SUM_SELF, MoveKind.FIBRE_SELF: MoveKind.FIBRE_CROSS}


def test_the_one_pass_scores_every_candidate_as_its_class_alone(monkeypatch):
    # every tau and d of one iteration's one scoring call, bit for bit the
    # numbers RefPair.parts gives each class's laws alone; for one law the
    # twin of a class that is not built scores what that class's own laws do
    seen = _record_scoring(monkeypatch)
    rng = make_rng(41)
    cases = symmetric_cases() + [(random_ref(rng, 5), random_dist(rng, 5), random_dist(rng, 5))]
    shapes = set()
    for ref, X1, X2 in cases:
        seen["scores"].clear()
        seen["endgame"].clear()
        st = descend(ref, X1, X2, max_iter=3)
        # copies: the oracle calls below are recorded too
        taken = list(zip(seen["scores"], seen["endgame"], st.snapshots))
        assert taken and len(seen["scores"]) == len(seen["endgame"])
        for (spans, taus, move), endgame, (A, B) in taken:
            shapes.add(A is B)
            assert set(spans) == set(CLASS_ORDER[:-1]) - (set(TWIN) if A is B else set())
            sums = {}
            for kind in CLASS_ORDER[:-1]:
                params, laws, i, j = descent._class_laws(A, B, descent.BUDGET, kind, sums)
                d, d1, d2 = ref.parts(laws, i, j)
                at = spans[TWIN[kind] if A is B and kind in TWIN else kind]
                got = [move(k) for k in range(at.start, at.stop)]
                assert taus[at].tolist() == [mv.tau for mv in got]
                assert [mv.params for mv in got] == params
                assert [mv.tau for mv in got] == ref.tau_of(d, d1, d2).tolist()
                assert [mv.d for mv in got] == d.tolist()
                assert [_law_key(mv.X1p) + _law_key(mv.X2p) for mv in got] == [
                    _law_key(laws[x]) + _law_key(laws[y]) for x, y in zip(i, j)]
            assert [((s,) + ch.choice, ch.tau, ch.d) for s, ch in endgame] == [
                (mv.params, mv.tau, mv.d) for mv in scored_alone(ref, A, B, MoveKind.ENDGAME)]
    assert shapes == {True, False}


def test_one_scoring_call_per_iteration_transforms_each_distinct_law_once(monkeypatch):
    events, rows = [], []
    parts, pair_score, first_least = RefPair.parts, descent._pair_score, descent._first_least
    def counting_parts(self, laws, i, j):
        rows.clear()
        out = parts(self, laws, i, j)
        # at most one stack: each distinct law of a pair whose support
        # sizes multiply to 2^n or more, references included, once
        pairs = [(laws[a], laws[b]) for a, b in zip(i, j)] + [
            (R, laws[a]) for R, side in ((self.X01, i), (self.X02, j)) for a in side]
        keys = {_law_key(L) for A, B in pairs
                if A.support_size() * B.support_size() >= 1 << A.n for L in (A, B)}
        assert len(rows) == (1 if keys else 0)
        assert not keys or len(rows[0]) == len(set(rows[0])) == len(keys)
        events.append("parts" if keys else "listed parts")
        return out
    def counting_pair(*args):
        events.append("pair")
        return pair_score(*args)
    def picking(taus, cut):
        events.append("pick")
        return first_least(taus, cut)
    def transform(a):
        rows.append([r.tobytes() for r in np.atleast_2d(a)])
        return fwht(a)
    monkeypatch.setattr(RefPair, "parts", counting_parts)
    monkeypatch.setattr(descent, "_pair_score", counting_pair)
    monkeypatch.setattr(descent, "_first_least", picking)
    monkeypatch.setattr(ruzsa, "fwht", transform)
    chosen = _record_moves(monkeypatch)
    rng = make_rng(42)
    cases = symmetric_cases() + [(random_ref(rng, 5), random_dist(rng, 5), random_dist(rng, 5)),
                                 tiny_weight_case(9)]
    rescored = stacked = 0
    for ref, X1, X2 in cases:
        events.clear()
        chosen.clear()
        st = descend(ref, X1, X2)
        assert st.trace and len(chosen) == len(st.trace)
        # the start is scored; then each iteration makes one scoring call
        # before its pick, and a move whose laws prune() changed is scored
        # again after it
        pruned = [mv.X1p.prune() is not mv.X1p or mv.X2p.prune() is not mv.X2p
                  for mv in chosen]
        stacked += events.count("parts")
        want = ["pair", "parts"] + [e for p in pruned
                                    for e in ["parts", "pick"] + ["pair", "parts"] * p]
        if st.stop_reason == "no improving move":
            want += ["parts", "pick"]
        assert [e.split()[-1] for e in events] == want
        rescored += sum(pruned)
    assert rescored and stacked


def every_candidate(ref, X1, X2):
    """generate_candidates' moves of every class, none for an endgame whose
    guard trips."""
    return (generate_candidates(ref, X1, X2, kinds=CLASS_ORDER[:-1])
            + scored_alone(ref, X1, X2, MoveKind.ENDGAME))


def test_each_accepted_move_is_the_oracle_pick(monkeypatch):
    # each iteration's move and its trace's least taus and counts, bit for
    # bit those of the pick over generate_candidates' list, for one law and
    # for two, with and without an endgame, and with an endgame pick
    chosen = _record_moves(monkeypatch)
    rng = make_rng(43)
    X01, X02 = demo_pair(3)
    cases = symmetric_cases() + [(random_ref(rng, 5), random_dist(rng, 5), random_dist(rng, 5)),
                                 (RefPair(X01, X02), X02, X01)]
    shapes, kinds = set(), set()
    for ref, X1, X2 in cases:
        chosen.clear()
        st = descend(ref, X1, X2, max_iter=4)
        assert st.trace and len(chosen) == len(st.trace)
        for row, mv, (A, B) in zip(st.trace, chosen, st.snapshots):
            shapes.add(A is B)
            kinds.add(mv.kind)
            moves = every_candidate(ref, A, B)
            want = best_move(moves)
            assert (mv.kind, mv.params, mv.tau, mv.d) == (want.kind, want.params, want.tau, want.d)
            assert (row["kind"], row["params"], row["tau_after"]) == (
                want.kind.value, list(want.params), want.tau)
            got = {k: [m for m in moves if m.kind is k] for k in CLASS_ORDER}
            assert row["per_class_tau"] == {k.value: min(m.tau for m in mvs)
                                            for k, mvs in got.items() if mvs}
            assert row["per_class_candidates"] == {k.value: len(mvs) for k, mvs in got.items()}
            if A is B:
                assert all(row["per_class_s"][k.value] == 0.0 for k in TWIN)
    assert shapes == {True, False} and MoveKind.ENDGAME in kinds


def test_descent_builds_one_move_per_iteration(monkeypatch):
    # the accepted move alone, not one per candidate: on a coset union past
    # the endgame's support cap, on a pair of two laws whose endgame is
    # scored, and on the demo pair whose first move is the endgame's
    built = _record_moves(monkeypatch)
    X01, X02 = demo_pair(3)
    rng = make_rng(44)
    rows = []
    for ref, X1, X2 in (symmetric_cases()[1], (RefPair(X01, X02), X02, X01),
                        (random_ref(rng, 5), random_dist(rng, 5), random_dist(rng, 5))):
        built.clear()
        st = descend(ref, X1, X2)
        assert [(mv.kind.value, list(mv.params)) for mv in built] == [
            (row["kind"], row["params"]) for row in st.trace]
        rows += st.trace
    assert len(rows) > 3 and {row["kind"] for row in rows} >= {"sum-self", "endgame"}
    assert any(row["per_class_candidates"]["endgame"] for row in rows)
    assert any(row["skipped_classes"] for row in rows)


def test_a_converged_start_builds_no_candidate(monkeypatch):
    # a pair already within eps_d returns before its first iteration: no
    # class is built and the trace is empty
    def refused(*args):
        raise AssertionError("descent built a class")
    monkeypatch.setattr(descent, "_class_laws", refused)
    monkeypatch.setattr(descent, "_endgame_choices", refused)
    UH = uniform_on_subgroup(span([3, 5, 9], 6))
    for X1, X2 in ((UH, UH), (UH, rebuilt(UH)), (UH, Dist(6, idx=UH.support() ^ 6, w=UH.items()[1]))):
        st = descend(RefPair(UH, UH), X1, X2)
        assert st.trace == [] and st.converged
        assert st.stop_reason == "distance below eps_d" and st.k == st.k_start <= descent.EPS_D


def tiny_weight_case(seed: int):
    """(ref, X1, X2) on F_2^4, X1 and X2 5-point laws with one weight 1e-7:
    products of that point with itself fall below prune()'s floor of 1e-13
    of the largest weight. The first move prunes at seeds 2 (an endgame
    move) and 9 (fibre-cross)."""
    rng = make_rng(seed)
    n = 4
    def tiny():
        idx = rng.choice(1 << n, 5, replace=False)
        w = rng.random(5)
        w[0] = 1e-7
        return Dist(n, idx=idx, w=w)
    ref = RefPair(random_dist(rng, n), random_dist(rng, n))
    return ref, tiny(), tiny()


def test_a_move_whose_laws_prune_drops_is_scored_again():
    for seed, kind in ((2, MoveKind.ENDGAME), (9, MoveKind.FIBRE_CROSS)):
        ref, X1, X2 = tiny_weight_case(seed)
        st = descend(ref, X1, X2, max_iter=1)
        row = st.trace[0]
        assert row["kind"] == kind.value
        chosen = [mv for mv in generate_candidates(ref, X1, X2)
                  if mv.kind is kind and list(mv.params) == row["params"]][0]
        assert chosen.X1p.prune() is not chosen.X1p or chosen.X2p.prune() is not chosen.X2p
        assert st.k == row["k_after"] != chosen.d
        assert st.k == pytest.approx(rdist(st.X1, st.X2), abs=1e-12)
        assert st.tau == pytest.approx(ref.tau(st.X1, st.X2), abs=1e-12)


def test_each_sum_of_the_pair_is_taken_once_per_iteration(monkeypatch):
    calls = []
    def counting(A, B):
        calls.append((A, B))   # held, so no id passes to a later law
        return xor_convolve(A, B)
    monkeypatch.setattr(descent, "xor_convolve", counting)
    rng = make_rng(38)
    unequal = (random_ref(rng, 5), random_dist(rng, 5), random_dist(rng, 5))
    for ref, X1, X2 in symmetric_cases() + [unequal]:
        calls.clear()
        st = descend(ref, X1, X2)
        assert st.trace
        assert not any(A is C and B is D
                       for k, (A, B) in enumerate(calls) for C, D in calls[:k])
    # the first iteration of a symmetric pair: sum-self and the fibre-cross
    # top values read one X1 * X1
    ref, X1, X2 = symmetric_cases()[1]
    calls.clear()
    st = descend(ref, X1, X2, max_iter=1)
    assert st.X2 is st.X1 and len(st.trace) == 1
    assert sum(A is X1 and B is X1 for A, B in calls) == 1


def test_one_call_for_all_classes_scores_what_each_class_scores_alone():
    rng = make_rng(39)
    kinds = CLASS_ORDER[:-1]   # the endgame guard trips on one case
    for ref, X1, X2 in symmetric_cases() + [(random_ref(rng, 4), random_dist(rng, 4),
                                             random_dist(rng, 4))]:
        for X2 in (X2, descent._shared(X1, X2)):
            alone = [mv for k in kinds for mv in scored_alone(ref, X1, X2, k)]
            together = generate_candidates(ref, X1, X2, kinds=kinds)
            assert [(mv.kind, mv.params, mv.tau) for mv in together] == [
                (mv.kind, mv.params, mv.tau) for mv in alone]
            assert [_law_key(mv.X1p) + _law_key(mv.X2p) for mv in together] == [
                _law_key(mv.X1p) + _law_key(mv.X2p) for mv in alone]


def test_entropic_pfr_takes_only_the_distances_it_reads(monkeypatch):
    calls, closed = [], descent._rdist_uniform
    def counting(X, Y):
        calls.append((X, Y))
        return rdist(X, Y)
    def counting_closed(X, H):
        calls.append((X, H))
        return closed(X, H)
    monkeypatch.setattr(descent, "rdist", counting)
    monkeypatch.setattr(descent, "_rdist_uniform", counting_closed)
    UA = uniform_on(random_coset_union(make_rng(21), 6, 2, 3), 6)
    X01, X02 = demo_pair(2)
    for inputs, taken in (((UA, UA), 1), ((X01, X02), 3)):
        calls.clear()
        st, cert = entropic_pfr(*inputs)
        # d1 (and d2) against U_H, in closed form, and k0 for two laws;
        # not extract_subgroup's d[X; U_H] and d[X; X] at the endpoint
        assert len(calls) == taken
        assert cert.H == extract_subgroup(st.X1).H
    # for one law k0 is descent's starting d, scored as its candidates are:
    # bit for bit the d of RefPair.parts in the span, rdist's within 1e-12
    a0 = int(UA.support()[0])
    _, (Y,) = descent._reduce([UA], [a0])
    st, cert = entropic_pfr(UA, UA)
    assert cert.k0 == st.k_start == RefPair(Y, Y).parts([Y], [0], [0])[0, 0]
    assert cert.k0 == pytest.approx(rdist(Y, Y), abs=1e-12)


def test_entropic_pfr_carries_byte_equal_inputs_once():
    UA = uniform_on(random_coset_union(make_rng(21), 6, 2, 3), 6)
    st, cert = entropic_pfr(UA, UA)
    st_c, cert_c = entropic_pfr(UA, rebuilt(UA))
    assert cert_c.d2 == cert_c.d1
    assert (cert_c.H.rows, cert_c.d1, cert_c.k0) == (cert.H.rows, cert.d1, cert.k0)
    assert tau_path(st_c).tolist() == tau_path(st).tolist()
    assert all(A is B for A, B in st_c.snapshots)
    assert st_c.X2 is st_c.X1


def test_extract_subgroup_recovers_coset():
    H = span([3, 5, 16], 6)
    X = uniform_on([p ^ 42 for p in H.enumerate()], 6)
    for theta in (0.1, 0.5, 0.9):
        cert = extract_subgroup(X, theta)
        assert cert.H.rows == H.rows
        assert cert.d1 == pytest.approx(0.0, abs=1e-12)
        assert cert.d1 == cert.d2
        assert cert.k0 == pytest.approx(0.0, abs=1e-12)
        assert cert.bound_check


def test_extract_subgroup_partial_coset():
    # six of eight points keep enough offsets from the mode to span H
    H = span([1, 2, 4], 6)
    kept = [p ^ 9 for p in H.enumerate()][:6]
    cert = extract_subgroup(uniform_on(kept, 6))
    assert cert.H.rows == H.rows
    assert cert.k0 == pytest.approx(rdist(uniform_on(kept, 6),
                                          uniform_on(kept, 6)), abs=1e-12)


def test_extract_subgroup_point_mass():
    cert = extract_subgroup(uniform_on([13], 6))
    assert cert.H.rank == 0
    assert cert.d1 == 0.0 and cert.k0 == 0.0 and cert.bound_check


def test_certificate_distance_in_closed_form_matches_rdist():
    # d[X; U_H] = H[X mod H] + (rank H / 2) log 2 - H[X]/2 against rdist on
    # the uniform law of H, from rank 0 to the full group, for point masses,
    # uniform laws, random laws and cosets of H
    rng = make_rng(101)
    for n in range(1, 8):
        for rank in sorted({0, n // 2, n}):
            H = span(rng.choice(1 << n, rank, replace=False) if rank < n
                     else [1 << b for b in range(n)], n)
            UH = uniform_on_subgroup(H)
            laws = [random_dist(rng, n), uniform_on([int(rng.integers(1 << n))], n),
                    uniform_on(rng.choice(1 << n, 1 + (1 << n) // 2, replace=False), n),
                    UH.translate(int(rng.integers(1 << n)))]
            for X in laws:
                d = descent._rdist_uniform(X, H)
                assert type(d) is float
                assert d == pytest.approx(rdist(X, UH), abs=1e-12)


def test_entropic_pfr_certificates():
    H = span([1, 2], 6)
    U = uniform_on_subgroup(H)
    st, cert = entropic_pfr(U, U)
    assert st.converged and cert.H.rows == H.rows and cert.bound_check

    X01, X02 = demo_pair(2)
    st, cert = entropic_pfr(X01, X02)
    assert st.converged
    assert cert.H.rank == 2
    assert cert.bound_check
    assert cert.d1 + cert.d2 <= 11.0 * cert.k0 + 1e-6


def test_diagnostics_structure_and_identity():
    rng = make_rng(99)
    for _ in range(5):
        X1, X2 = random_dist(rng, 4), random_dist(rng, 4)
        d = diagnostics(random_ref(rng, 4), X1, X2)
        assert set(d) == {"k", "I1", "I2", "I3", "H_S", "sum_dist",
                          "cond_sum_dist", "bounds"}
        for b in d["bounds"].values():
            assert set(b) == {"lhs", "rhs", "slack", "holds"}
            assert b["slack"] == pytest.approx(b["rhs"] - b["lhs"], abs=1e-12)
            assert b["holds"] == (b["slack"] >= -1e-9)
        # the split of 2k into the two sums plus I1 is exact at any state
        ident = d["bounds"]["sum_split_identity"]
        assert abs(ident["slack"]) <= 1e-9


def test_diagnostics_raises_past_cost_guard():
    # 1024 generic points of F_2^12: the endgame tables would transform
    # nearly every pair of 4096 fibres of about 256 points
    X = uniform_on(np.random.default_rng(5).choice(1 << 12, 1024, replace=False), 12)
    with pytest.raises(CostGuardExceeded) as exc:
        diagnostics(RefPair(X, X), X, X)
    assert exc.value.guard == "PRODUCT_SUPPORT_CAP"


def test_diagnostics_report_every_bound_past_the_old_endgame_cap():
    # a stalled 76-point union of four subsampled cosets: its (U, V, S)
    # law would have (76 * 76)^2 entries, past ENDGAME_SUPPORT_CAP, which
    # once refused these diagnostics
    X = uniform_on(random_coset_union(make_rng(1), 12, 5, 4, 0.6), 12)
    assert (X.support_size() ** 2) ** 2 > bsg.ENDGAME_SUPPORT_CAP
    d = diagnostics(RefPair(X, X), X, X)
    assert len(d["bounds"]) == 7 and "error" not in d


def test_converged_state_satisfies_minimizer_bounds():
    eta = ETA_DEFAULT
    for which in (1, 2):
        X01, X02 = demo_pair(which)
        ref = RefPair(X01, X02)
        st = descend(ref, X02, X01, eps_d=1e-6)
        assert st.converged
        d = diagnostics(ref, st.X1, st.X2)
        for name, b in d["bounds"].items():
            assert b["holds"], f"demo {which}: {name} slack {b['slack']}"
        assert d["I1"] <= 2.0 * eta * d["k"] + 1e-6
        assert d["I2"] <= (2.0 * eta * d["k"]
                           + 2.0 * eta * (2.0 * eta * d["k"] - d["I1"])
                           / (1.0 - eta) + 1e-6)


def test_diagnostics_run_on_a_span_of_sixteen_dimensions():
    # references on 0 and the 16 unit vectors span all of F_2^16, where the
    # 4-axis (U, V, W, S) joint of the pushforward path would need 64 key
    # bits; the fibres of the two-fold sums need no packed keys
    ref = RefPair(*[uniform_on([0] + [1 << b for b in range(16)], 16)] * 2)
    X1, X2 = uniform_on([0, 1, 6, 40], 16), uniform_on([3, 5, 9], 16)
    d = diagnostics(ref, X1, X2)
    assert set(d) == {"k", "I1", "I2", "I3", "H_S", "sum_dist",
                      "cond_sum_dist", "bounds"}
    assert set(d["bounds"]) == {
        "sum_split_identity", "sum_entropy_bound", "first_info_bound",
        "self_info_bound", "info_total_bound", "cond_dist_increment_bound",
        "increment_vs_k_bound"}
    for b in d["bounds"].values():
        assert set(b) == {"lhs", "rhs", "slack", "holds"}
        assert all(np.isfinite(b[part]) for part in ("lhs", "rhs", "slack"))
    assert d["I3"] == d["I2"]
    assert abs(d["bounds"]["sum_split_identity"]["slack"]) <= 1e-9
    # sparse laws at n = 16 on small cosets span few dimensions and run
    mk = coset_law_maker(make_rng(13), 16)
    X1, X2 = mk(), mk()
    assert diagnostics(RefPair(X1, X2), X1, X2)["bounds"]


def test_diagnostics_match_the_pushforward_oracle():
    # random pairs and references at n = 3-6; every fourth pair is one law
    # twice, held as one object or as two
    rng = make_rng(98)
    worst = 0.0
    for i in range(48):
        n = 3 + i % 4
        X1 = random_dist(rng, n)
        X2 = random_dist(rng, n) if i % 4 else (X1 if i % 8 else Dist(n, dense=X1.dense()))
        ref = random_ref(rng, n) if i % 3 else RefPair(X1, X1)
        worst = max(worst, diagnostics_gap(diagnostics(ref, X1, X2),
                                           diagnostics_via_joints(ref, X1, X2)))
    assert worst <= 1e-12


# -- descent in the intrinsic dimension ---------------------------------------

def reduction_inputs():
    """The acceptance certificate corpus as (U_A, U_A), then the demo pairs,
    then demo 2 with X02 translated so that the two inputs' smallest points
    differ, which a shift per input would carry into the state."""
    from test_acceptance import certificate_corpus
    X01, X02 = demo_pair(2)
    return ([(A.uniform(), A.uniform()) for A in certificate_corpus()]
            + [demo_pair(which) for which in (1, 2, 3)]
            + [(X01, X02.translate(0b010101))])


def tau_path(st):
    return np.array([t for row in st.trace
                     for t in (row["tau_before"], row["tau_after"])] + [st.tau])


def assert_same_descent(st, other):
    """Same move kinds, taus within 1e-12 and outcome. Move params are not
    compared: they may differ on exact ties (the endgame's alpha and beta
    swapped, or another slice of equal tau), which are broken by element
    order, and the reduction relabels the elements."""
    assert [r["kind"] for r in st.trace] == [r["kind"] for r in other.trace]
    assert np.allclose(tau_path(st), tau_path(other), rtol=0, atol=1e-12)
    assert (st.converged, st.stop_reason) == (other.converged, other.stop_reason)


def translation_between(A, B):
    """Some g with A.translate(g) equal to B, or None."""
    a0 = int(A.support()[0])
    for b in B.support():
        g = a0 ^ int(b)
        if np.allclose(A.translate(g).dense(), B.dense(), rtol=0, atol=1e-12):
            return g
    return None


def random_embedding(rng, n, N):
    """A random injective linear map F_2^n -> F_2^N and a random shift."""
    cols = []
    while len(cols) < n:
        c = int(rng.integers(1, 1 << N))
        if span(cols + [c], N).rank == len(cols) + 1:
            cols.append(c)
    f, shift = LinearMap(n, N, tuple(cols)), int(rng.integers(1 << N))
    return lambda x: f.apply(int(x)) ^ shift


def embed_law(X, f, N):
    idx, w = X.items()
    return Dist(N, idx=np.array([f(x) for x in idx], dtype=np.int64), w=w)


def assert_params_name_ambient_moves(st):
    """Each trace row's params, embedded in F_2^n, name a move of the pair
    before it (the snapshot, in F_2^n) with the row's tau. The budget
    covers every conditioning value, so ties at the cut of the heaviest
    values do not matter. Inside an endgame slice a tie may pick another
    permutation; t must then still lie in the support of T_gamma."""
    assert len(st.trace) < SNAPSHOT_CAP
    for row, (X1, X2) in zip(st.trace, st.snapshots):
        kind = MoveKind(row["kind"])
        moves = generate_candidates(st.ref, X1, X2, 1 << (2 * X1.n), [kind])
        if kind is MoveKind.ENDGAME:
            s, gamma, _, _, t = row["params"]
            (mv,) = [mv for mv in moves if mv.params[0] == s]
            T = xor_convolve(X1, X1 if gamma == 2 else X2)
            assert t in T.support()
        else:
            (mv,) = [mv for mv in moves if list(mv.params) == row["params"]]
        assert mv.tau == pytest.approx(row["tau_after"], abs=1e-12)


def test_entropic_pfr_matches_the_ambient_descent():
    # descend in the inputs' own coordinates is the oracle
    same_params = 0
    for X01, X02 in reduction_inputs():
        st, cert = entropic_pfr(X01, X02)
        amb = descend(RefPair(X01, X02), X02, X01)
        assert_same_descent(st, amb)
        assert cert.H.rank == extract_subgroup(amb.X1).H.rank
        pts = np.r_[X01.support(), X02.support()]
        assert st.intrinsic_dim == span((pts ^ pts[-1]).tolist(), 6).rank
        # H, its distances and the state come back in the caller's group
        assert st.ref.X01 is X01 and st.ref.X02 is X02
        UH = uniform_on_subgroup(cert.H)
        assert cert.d1 == pytest.approx(rdist(X01, UH), abs=1e-12)
        assert cert.d2 == pytest.approx(rdist(X02, UH), abs=1e-12)
        assert cert.k0 == pytest.approx(rdist(X01, X02), abs=1e-12)
        assert len(st.snapshots) == len(amb.snapshots)
        assert all(Y.n == 6 for pair in st.snapshots for Y in pair)
        # the first snapshot is the input pair itself, so the params that
        # the moves below name are in the caller's coordinates
        for Y, X in zip(st.snapshots[0], (X02, X01)):
            assert np.allclose(Y.dense(), X.dense(), rtol=0, atol=1e-15)
        assert_params_name_ambient_moves(st)
        if [r["params"] for r in st.trace] == [r["params"] for r in amb.trace]:
            # no tie was broken differently: the laws agree up to one shift
            same_params += 1
            g = translation_between(amb.X1, st.X1)
            assert g is not None
            assert np.allclose(amb.X2.translate(g).dense(), st.X2.dense(),
                               rtol=0, atol=1e-12)
    assert same_params >= 10


@pytest.mark.parametrize("N", [16, 24])
def test_entropic_pfr_is_blind_to_injective_affine_embeddings(N):
    rng = make_rng(N)
    for X01, X02 in reduction_inputs():
        f = random_embedding(rng, 6, N)
        st, cert = entropic_pfr(X01, X02)
        st_N, cert_N = entropic_pfr(embed_law(X01, f, N), embed_law(X02, f, N))
        assert_same_descent(st_N, st)
        assert st_N.intrinsic_dim == st.intrinsic_dim
        assert cert_N.H.ambient_dim == N and cert_N.H.rank == cert.H.rank
        assert cert_N.bound_check == cert.bound_check


def test_entropic_pfr_at_rank_zero_and_full_rank():
    X = Dist.point_mass(37, 6)
    st, cert = entropic_pfr(X, X)
    assert st.intrinsic_dim == 0 and st.converged and st.trace == []
    assert cert.H.rank == 0 and cert.bound_check
    assert st.X1.items()[0].tolist() == [37]

    rng = make_rng(14)
    X01, X02 = random_dist(rng, 4, 16), random_dist(rng, 4, 16)
    st, cert = entropic_pfr(X01, X02)
    assert st.intrinsic_dim == 4
    assert_same_descent(st, descend(RefPair(X01, X02), X02, X01))


def test_laws_in_coordinates_keep_member_order_and_round_trip():
    V = span([0b000110, 0b101000], 6)
    a0 = 0b010001
    members = V.enumerate_array()
    w = np.array([1.0, 2.0, 3.0, 4.0])
    table = np.zeros(64)
    table[members ^ a0] = w
    for X in (Dist(6, dense=table), Dist(6, idx=members ^ a0, w=w)):
        Y = _to_coords(X, V, a0)
        assert Y.n == 2
        # coordinates keep the order of the members
        assert np.allclose(Y.dense(), w / w.sum(), rtol=0, atol=1e-15)
        back = _from_coords(Y, V, a0)
        assert back.n == 6
        assert np.allclose(back.dense(), X.dense(), rtol=0, atol=1e-15)
