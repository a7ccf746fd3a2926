"""Endgame tables against 16^n enumeration, BSG, and the conditioned choice.

The spectral (U, V, S) construction is the one piece of the package with no
second implementation inside the library, so the tests rebuild the joint by
direct enumeration over all four source variables and compare entry-wise.
"""
import numpy as np
import pytest

from entropic_pfr import ruzsa
from entropic_pfr.bsg import (ENDGAME_DENSE_BITS, EndgameChoice,
                              abstract_endgame, bsg_check, cond_indep_trials,
                              endgame_bound, endgame_choices, endgame_tables,
                              trials_entropy_gap, _UVS_TRIPLES, _choices,
                              _row_taus, _uvs_sparse, _uvs_spectral)
from entropic_pfr.descent import _top_support
from entropic_pfr.dists import CostGuardExceeded, Dist, JointDist, uniform_on
from entropic_pfr.randgen import make_rng, random_dist, random_joint
from entropic_pfr.ruzsa import RefPair, rdist


def brute_uvs_table(X1, X2):
    """The (U, V, S) joint by looping over (x1, x2, x~1, x~2)."""
    n = X1.n
    N = 1 << n
    p1, p2 = X1.dense(), X2.dense()
    out = np.zeros(1 << (3 * n))
    for x1 in range(N):
        for x2 in range(N):
            for t1 in range(N):
                w3 = p1[x1] * p2[x2] * p1[t1]
                if w3 == 0:
                    continue
                for t2 in range(N):
                    u = x1 ^ x2
                    v = t1 ^ x2
                    s = u ^ t1 ^ t2
                    out[u | (v << n) | (s << (2 * n))] += w3 * p2[t2]
    return out


def test_endgame_joint_matches_brute_enumeration():
    rng = make_rng(50)
    for _ in range(5):
        X1 = random_dist(rng, 3)
        X2 = random_dist(rng, 3)
        tabs = endgame_tables(X1, X2)
        assert np.allclose(tabs.joint_UVS.dense(), brute_uvs_table(X1, X2),
                           atol=1e-12)


def test_endgame_informations_and_symmetry():
    rng = make_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        X1 = random_dist(rng, n)
        X2 = random_dist(rng, n)
        t = endgame_tables(X1, X2)
        # swapping X1 with its fresh copy exchanges U and V, fixing S
        assert t.I2 == pytest.approx(t.I3, abs=1e-10)
        assert t.I1 >= -1e-10 and t.I2 >= -1e-10
        assert t.k == pytest.approx(rdist(X1, X2), abs=1e-12)
        assert t.H_S == pytest.approx(t.joint_UVS.entropy("S"), abs=1e-12)
        # I1 recomputed from the joint directly
        J = t.joint_UVS
        assert t.I1 == pytest.approx(J.cond_mutual_info("U", "V", "S"),
                                     abs=1e-12)


def test_spectral_and_sparse_constructions_agree():
    rng = make_rng(52)
    for n in (2, 3, 4):
        X1 = random_dist(rng, n)
        X2 = random_dist(rng, n)
        A = _uvs_spectral(X1, X2)
        B = _uvs_sparse(X1, X2)
        assert np.allclose(A.dense(), B.dense(), atol=1e-12)


def test_endgame_support_guard_trips():
    rng = make_rng(53)
    # 3n > 21 forces the sparse path; support product squared over the cap
    X1 = Dist.from_sparse(rng.choice(1 << 8, 80, replace=False),
                          rng.random(80), n=8)
    X2 = Dist.from_sparse(rng.choice(1 << 8, 80, replace=False),
                          rng.random(80), n=8)
    with pytest.raises(CostGuardExceeded,
                       match="^endgame support enumeration too large$") as exc:
        endgame_tables(X1, X2)
    assert (exc.value.guard, exc.value.size) == ("ENDGAME_SUPPORT_CAP", 6400 ** 2)
    with pytest.raises(ValueError) as exc:
        endgame_tables(X1, random_dist(rng, 4))
    assert not isinstance(exc.value, CostGuardExceeded)
    # past n = 20 the packed (U, V, S) key would not fit: a guard, not a crash
    P = Dist.from_sparse([1, 2], [0.5, 0.5], n=21)
    with pytest.raises(CostGuardExceeded) as exc:
        endgame_tables(P, P)
    assert (exc.value.guard, exc.value.size) == ("endgame key bits", 63)


def test_uniform_coset_pair_has_vanishing_informations():
    U = uniform_on([0, 1, 2, 3], 4)
    t = endgame_tables(U, U)
    assert t.k == pytest.approx(0.0, abs=1e-12)
    assert t.I1 == pytest.approx(0.0, abs=1e-10)
    assert t.I2 == pytest.approx(0.0, abs=1e-10)


def test_bsg_inequality_holds_on_random_joints():
    rng = make_rng(54)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        rep = bsg_check(random_joint(rng, n, 2, ["A", "B"]))
        assert rep.holds, rep
        assert rep.lhs >= -1e-10


def test_bsg_check_refuses_keys_past_62_bits():
    # the (A, B, A^B) pushforward needs 3n key bits: 66 at n = 22
    J = random_joint(make_rng(57), 22, 2, ["A", "B"], support_size=50)
    with pytest.raises(ValueError, match="n\\*arity <= 62"):
        bsg_check(J)


def test_bsg_on_independent_pair():
    rng = make_rng(55)
    X = random_dist(rng, 4)
    Y = random_dist(rng, 4)
    rep = bsg_check(JointDist.independent_product([X, Y], ["A", "B"]))
    assert rep.i_AB == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_cond_indep_trials_structure():
    rng = make_rng(56)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        J = random_joint(rng, n, 2, ["X", "Y"])
        T = cond_indep_trials(J)
        # each trial carries the original (X, Y) law
        ref = J.marginal([0, 1]).dense()
        assert np.allclose(T.marginal(["X1", "Y"]).dense(), ref, atol=1e-12)
        assert np.allclose(T.marginal(["X2", "Y"]).dense(), ref, atol=1e-12)
        # and the trials decouple given Y
        assert T.cond_mutual_info("X1", "X2", "Y") == pytest.approx(
            0.0, abs=1e-10)
        assert trials_entropy_gap(J) == pytest.approx(0.0, abs=1e-10)


def brute_endgame_choice(ref, J):
    """Exhaustive tau minimization in the implementation's tie order.

    Every permutation (gamma, alpha, beta) is scored. Given T_gamma = t,
    T_beta is T_alpha translated by t, so each pair of twins must agree;
    the first least row is returned as its alpha < beta twin, the one the
    library reports.
    """
    n = J.n
    keys, w = J.items()
    mask = (1 << n) - 1
    trips = [((int(k) & mask), (int(k) >> n) & mask,
              (int(k) & mask) ^ ((int(k) >> n) & mask)) for k in keys]
    rows = []
    for gamma in range(3):
        others = [i for i in range(3) if i != gamma]
        by_t = {}
        for trip, p in zip(trips, w):
            by_t.setdefault(trip[gamma], []).append((trip, p))
        for alpha in others:
            for beta in others:
                if beta == alpha:
                    continue
                for t in sorted(by_t):
                    entries = by_t[t]
                    A = Dist.from_sparse([e[0][alpha] for e in entries],
                                         [e[1] for e in entries], n=n)
                    B = Dist.from_sparse([e[0][beta] for e in entries],
                                         [e[1] for e in entries], n=n)
                    tau = (rdist(A, B) + ref.eta * rdist(ref.X01, A)
                           + ref.eta * rdist(ref.X02, B))
                    rows.append((tau, (gamma, alpha, beta, t), A, B))
    by_key = {r[1]: r for r in rows}
    for (gamma, alpha, beta, t), r in by_key.items():
        assert r[0] == pytest.approx(by_key[gamma, beta, alpha, t][0], abs=1e-12)
    best = min(rows, key=lambda r: r[0])
    # first strict minimum in generation order, as the library breaks ties
    for r in rows:
        if r[0] <= best[0] + 1e-15:
            gamma, t = r[1][0], r[1][3]
            return by_key[(gamma, *(i for i in range(3) if i != gamma), t)], rows
    raise AssertionError


def _compare_with_oracle(ref, J, ch):
    """ch against the exhaustive search: tau always; choice and both laws
    when no other (gamma, t) comes within 1e-9. Returns whether they ran."""
    (tau, key, A, B), rows = brute_endgame_choice(ref, J)
    assert ch.tau == pytest.approx(tau, abs=1e-9)
    # the gap to the best row of another (gamma, t): twins always tie
    other = [r[0] for r in rows if (r[1][0], r[1][3]) != (key[0], key[3])]
    if min(other, default=np.inf) - tau <= 1e-9:
        return False
    assert ch.choice == key
    assert np.allclose(ch.T1p.dense(), A.dense(), atol=1e-9)
    assert np.allclose(ch.T2p.dense(), B.dense(), atol=1e-9)
    return True


def test_abstract_endgame_matches_exhaustive_search():
    rng = make_rng(57)
    compared = 0
    for trial in range(8):
        n = 3 if trial % 2 else 2
        J = random_joint(rng, n, 2, ["T1", "T2"])
        X1 = random_dist(rng, n)
        X2 = random_dist(rng, n)
        ref = RefPair(random_dist(rng, n), random_dist(rng, n))
        ch = abstract_endgame(ref, J)
        compared += _compare_with_oracle(ref, J, ch)
        assert_psi_within_bound(ref, J, X1, X2, ch)
    # in trials 0 and 2 another (gamma, t) ties exactly; the other six
    # have a distinct gap above 5e-4
    assert compared == 6


def assert_psi_within_bound(ref, J, X1, X2, ch):
    psi = ch.tau - ref.eta * (rdist(ref.X01, X1) + rdist(ref.X02, X2))
    assert psi <= endgame_bound(ref, J, X1, X2) + 1e-9


def _check_sparse_endgame_against_oracle(rng, J, mk):
    """The oracle checks on abstract_endgame(ref, J) with a random reference
    pair; returns whether the choice and the laws were compared."""
    X1, X2 = mk(), mk()
    ref = RefPair(mk(), mk())
    ch = abstract_endgame(ref, J)
    compared = _compare_with_oracle(ref, J, ch)
    assert_psi_within_bound(ref, J, X1, X2, ch)
    return compared


def test_abstract_endgame_sparse_input_at_n13_matches_oracle():
    # a sparse (T1, T2) law past the dense JointDist limit: rows are built
    # over the conditioning supports, not over 2^13 values. As at n = 18,
    # every law sits on a coset of H = {0, u, v, u ^ v}, so the rows do not
    # all tie and the choice and the laws are compared too.
    rng = make_rng(58)
    n = 13
    x, y, u, v = (int(z) for z in rng.integers(0, 1 << n, 4))
    H = np.array([0, u, v, u ^ v])
    keys = ((x ^ H[:3])[:, None] | ((y ^ H[:3])[None, :] << n)).ravel()
    J = JointDist(n, 2, ["T1", "T2"], keys=keys, w=rng.random(9))
    mk = lambda: Dist.from_sparse(x ^ H, rng.random(4), n=n)
    assert _check_sparse_endgame_against_oracle(rng, J, mk)


def test_abstract_endgame_sparse_input_at_n18_matches_oracle():
    # past BATCH_BITS the conditional laws stay sparse and are scored pair
    # by pair; dense rows would take |supp T_gamma| * 2^18 floats each.
    # Every law sits on a coset of H = {0, u, v, u ^ v}: generic points
    # would add without collisions and make tau blind to the reference pair.
    rng = make_rng(60)
    n = 18
    x, y, u, v = (int(z) for z in rng.integers(0, 1 << n, 4))
    H = np.array([0, u, v, u ^ v])
    keys = ((x ^ H[:3])[:, None] | ((y ^ H[:3])[None, :] << n)).ravel()
    J = JointDist(n, 2, ["T1", "T2"], keys=keys, w=rng.random(9))
    mk = lambda: Dist.from_sparse(x ^ H, rng.random(4), n=n)
    assert _check_sparse_endgame_against_oracle(rng, J, mk)


def test_abstract_endgame_row_chunks_do_not_change_the_choice(monkeypatch):
    # chunks of eight rows of 2^6 (eight conditioning values) instead of
    # all rows in one
    rng = make_rng(61)
    n = 6
    J = random_joint(rng, n, 2, ["T1", "T2"], support_size=300)
    X1, X2 = random_dist(rng, n), random_dist(rng, n)
    ref = RefPair(random_dist(rng, n), random_dist(rng, n))
    whole = abstract_endgame(ref, J)
    monkeypatch.setattr(ruzsa, "BATCH_ELEMS", 8 << n)
    chunked = abstract_endgame(ref, J)
    assert chunked.choice == whole.choice
    assert chunked.tau == whole.tau


def test_abstract_endgame_same_under_dense_and_sparse_input():
    rng = make_rng(59)
    n = 4
    Js = random_joint(rng, n, 2, ["T1", "T2"], support_size=40)
    Jd = JointDist(n, 2, ["T1", "T2"], dense=Js.dense())
    X1, X2 = random_dist(rng, n), random_dist(rng, n)
    ref = RefPair(random_dist(rng, n), random_dist(rng, n))
    a = abstract_endgame(ref, Jd)
    b = abstract_endgame(ref, Js)
    assert a.choice == b.choice
    assert a.tau == pytest.approx(b.tau, abs=1e-12)
    assert endgame_bound(ref, Jd, X1, X2) == pytest.approx(
        endgame_bound(ref, Js, X1, X2), abs=1e-12)


def test_abstract_endgame_prefers_earlier_choice_on_exact_tie():
    # a product of uniforms is symmetric in every axis: all tau values tie,
    # so the winner must be the first key in (gamma, alpha, beta, t) order
    U = uniform_on([0, 1, 2, 3], 2)
    J = JointDist.independent_product([U, U], ["T1", "T2"])
    ref = RefPair(U, U)
    ch = abstract_endgame(ref, J)
    assert ch.choice == (0, 1, 2, 0)


def _bits(ch):
    """Everything an EndgameChoice holds, as exact bytes and ints."""
    laws = [(idx.tobytes(), w.tobytes()) for idx, w in (ch.T1p.items(), ch.T2p.items())]
    return ch.choice, ch.tau.hex(), laws


def _one_slice(ref, Js, triples):
    """_choices on the single (U, V) slice Js."""
    keys, w = Js.items()
    return _choices(ref, Js.n, keys, w, np.array([0, len(keys)]), triples)[0]


def _assert_choices_match_slices(ref, J, budget):
    """endgame_choices is bit for bit the one-slice choice among the same two
    triples, and abstract_endgame's up to a gamma = V win by round-off,
    which maps to its gamma = U twin."""
    values = _top_support(J.marginal_dist("S"), budget)
    batched = endgame_choices(ref, J, values)
    assert len(batched) == len(values)
    for s, ch in zip(values, batched):
        Js = J.condition("S", s)
        assert _bits(ch) == _bits(_one_slice(ref, Js, _UVS_TRIPLES))
        full = abstract_endgame(ref, Js)
        gamma, _, _, t = full.choice
        assert ch.choice == ((0, 1, 2, t) if gamma == 1 else full.choice)
        assert ch.tau == pytest.approx(full.tau, abs=1e-12)
        for a, b in ((ch.T1p, full.T1p), (ch.T2p, full.T2p)):
            assert np.allclose(a.dense(), b.dense(), rtol=0, atol=1e-12)


def _random_uvs_cases(seed):
    """(ref, (U, V, S) law, took the spectral cube) on random pairs, n = 3-6."""
    rng = make_rng(seed)
    for trial in range(12):
        n = 3 + trial % 4
        size = int(rng.integers(2, 1 + min(1 << n, 10)))
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, size, replace=False),
                                      rng.random(size), n=n)
        X1, X2 = mk(), mk()
        spectral = (3 * n <= ENDGAME_DENSE_BITS
                    and (X1.support_size() * X2.support_size()) ** 2 > 8 ** n)
        yield RefPair(mk(), mk()), endgame_tables(X1, X2).joint_UVS, spectral


@pytest.mark.parametrize("budget", [4, 64])
def test_endgame_choices_equal_the_per_slice_choices_bitwise(budget):
    paths = set()
    for ref, J, spectral in _random_uvs_cases(62):
        paths.add(spectral)
        _assert_choices_match_slices(ref, J, budget)
    assert paths == {True, False}   # the spectral cube and the enumeration


def test_gamma_v_rows_repeat_the_gamma_u_rows():
    # swapping X1 with its copy X~1 exchanges U and V and fixes S, so in
    # every slice U | V = t has the law, and the row the tau, of V | U = t
    rng = make_rng(65)
    for n in (3, 4, 5):
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, 6, replace=False),
                                      rng.random(6), n=n)
        X1, X2, ref = mk(), mk(), RefPair(mk(), mk())
        for J in (_uvs_spectral(X1, X2), _uvs_sparse(X1, X2)):
            for s in _top_support(J.marginal_dist("S"), 8):
                keys, w = J.condition("S", s).items()
                u, v, sl = keys & ((1 << n) - 1), keys >> n, 0 * keys
                rows_u, taus_u, order_u, bounds_u = _row_taus(ref, n, sl, u, v, w)
                rows_v, taus_v, order_v, bounds_v = _row_taus(ref, n, sl, v, u, w)
                assert np.array_equal(rows_v, rows_u)
                assert np.array_equal(bounds_v, bounds_u)
                for a, b in zip(bounds_u[:-1], bounds_u[1:]):
                    assert np.array_equal(v[order_u[a:b]], u[order_v[a:b]])
                assert np.allclose(taus_v, taus_u, rtol=0, atol=1e-12)


def test_endgame_choices_break_exact_ties_as_the_slices_do():
    # for U uniform on a subgroup H, U, V and S are independent and uniform
    # on H: in every slice all candidates tie, and the first one wins
    U = uniform_on([0, 3, 5, 6], 3)
    J = endgame_tables(U, U).joint_UVS
    _assert_choices_match_slices(RefPair(U, U), J, 64)
    chs = endgame_choices(RefPair(U, U), J, [6, 0, 5])
    assert [ch.choice for ch in chs] == [(0, 1, 2, 0)] * 3


def _count_taus(monkeypatch):
    """Record (dense, rows) for every RefPair.taus call from now on."""
    calls, taus = [], RefPair.taus

    def counted(self, laws, i, j):
        calls.append((isinstance(laws, np.ndarray), len(laws)))
        return taus(self, laws, i, j)
    monkeypatch.setattr(RefPair, "taus", counted)
    return calls


def _row_counts(J, values):
    """The number of (slice, t) rows of gamma = U and of gamma = W."""
    n, counts = J.n, np.zeros(2, dtype=int)
    for s in values:
        keys, _ = J.condition("S", s).items()
        u, v = keys & ((1 << n) - 1), keys >> n
        counts += len(np.unique(u)), len(np.unique(u ^ v))
    return counts


def test_endgame_choices_with_chunks_across_slice_boundaries(monkeypatch):
    # eight rows of 2^n per chunk: chunks end inside and between slices
    calls = _count_taus(monkeypatch)
    for ref, J, _ in _random_uvs_cases(63):
        monkeypatch.setattr(ruzsa, "BATCH_ELEMS", 8 << J.n)
        values = _top_support(J.marginal_dist("S"), 64)
        del calls[:]
        endgame_choices(ref, J, values)
        assert all(dense and rows <= 8 for dense, rows in calls)
        assert len(calls) == sum(-(-_row_counts(J, values) // 8)) > 2
        _assert_choices_match_slices(ref, J, 64)


def test_per_row_dists_score_as_the_dense_chunks(monkeypatch):
    # below BATCH_BITS the rows can also be cut one Dist each and scored
    # pair by pair, as they are past it. On (T1, T2) laws both cuts match
    # the exhaustive search; on (U, V, S) slices, whose translated rows tie
    # up to round-off, every row's tau agrees.
    calls, bits = _count_taus(monkeypatch), ruzsa.BATCH_BITS

    def both(n, f):
        out = []
        for b in (bits, n - 1):
            monkeypatch.setattr(ruzsa, "BATCH_BITS", b)
            del calls[:]
            out.append(f())
            assert calls and all(dense == (b >= n) for dense, _ in calls)
        return out

    rng = make_rng(66)
    compared = 0
    for n in (3, 4, 5):
        J = random_joint(rng, n, 2, ["T1", "T2"], support_size=4 << n)
        ref = RefPair(random_dist(rng, n), random_dist(rng, n))
        a, b = both(n, lambda: abstract_endgame(ref, J))
        assert a.tau == pytest.approx(b.tau, abs=1e-12)
        compared += all([_compare_with_oracle(ref, J, ch) for ch in (a, b)])
    # at n = 4 another (gamma, t) comes within 1e-9 of the least tau
    assert compared == 2
    for ref, J, _ in _random_uvs_cases(66):
        n = J.n
        if n > 5:
            continue
        keys, w = J.items()
        u, v, s = keys & ((1 << n) - 1), (keys >> n) & ((1 << n) - 1), keys >> (2 * n)
        for given, law in ((u, v), (u ^ v, u)):
            a, b = both(n, lambda: _row_taus(ref, n, s, given, law, w))
            for x, y in zip(a[:1] + a[2:], b[:1] + b[2:]):
                assert np.array_equal(x, y)     # rows, order, bounds
            assert np.allclose(a[1], b[1], rtol=0, atol=1e-12)


def test_endgame_choices_on_sparse_laws_past_batch_bits():
    # n = 17: conditional laws stay sparse Dists, scored pair by pair
    rng = make_rng(64)
    n = 17
    assert n > ruzsa.BATCH_BITS
    u, v = (int(z) for z in rng.integers(1, 1 << n, 2))
    H = np.array([0, u, v, u ^ v])
    mk = lambda: Dist.from_sparse(H ^ int(rng.integers(1 << n)), rng.random(4), n=n)
    J = endgame_tables(mk(), mk()).joint_UVS
    _assert_choices_match_slices(RefPair(mk(), mk()), J, 64)


def test_endgame_choices_reject_a_value_of_zero_mass():
    # S = X1 ^ X2 ^ X~1 ^ X~2 lies in the subgroup {0, 1}: S = 2 has no mass
    X = uniform_on([0, 1], 3)
    J = endgame_tables(X, X).joint_UVS
    with pytest.raises(ValueError, match="S=2 has zero mass"):
        endgame_choices(RefPair(X, X), J, [0, 2])
    with pytest.raises(ValueError, match="S=2 has zero mass"):
        J.condition("S", 2)
