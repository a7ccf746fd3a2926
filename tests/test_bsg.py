"""The endgame informations against the (U, V, S) table, the table against
16^n enumeration, BSG, and the conditioned choice.

The package reads H[U, V, S] from pairs of fibres and builds no (U, V, S)
law. The table oracle (tests/oracles.py) builds it by an 8^n cube and by
the four-fold support product, and the tests check both builders entry-wise
against direct enumeration over all four source variables.
"""
import numpy as np
import pytest

from entropic_pfr import bsg, dists, ruzsa
from entropic_pfr.bsg import (EndgameChoice, abstract_endgame, bsg_check, endgame_choices,
                              endgame_tables, _row_taus)
from entropic_pfr.descent import _top_support, diagnostics
from entropic_pfr.dists import CostGuardExceeded, Dist, JointDist, uniform_on
from entropic_pfr.groups import LinearMap, span
from entropic_pfr.randgen import make_rng, random_dist, random_joint
from entropic_pfr.ruzsa import RefPair, rdist, rdist_pairs
from oracles import (cond_indep_trials, endgame_bound, endgame_informations,
                     table_informations, trials_entropy_gap, uvs_sparse, uvs_spectral,
                     uvs_spectral_wins, uvs_table)


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
    # both builders of the table oracle
    rng = make_rng(50)
    for _ in range(5):
        X1 = random_dist(rng, 3)
        X2 = random_dist(rng, 3)
        for build in (uvs_spectral, uvs_sparse):
            assert np.allclose(build(X1, X2).dense(), brute_uvs_table(X1, X2), atol=1e-12)


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
        J = uvs_table(X1, X2)
        assert t.H_S == pytest.approx(J.entropy("S"), abs=1e-12)
        # I1 recomputed from the joint directly
        assert t.I1 == pytest.approx(J.cond_mutual_info("U", "V", "S"),
                                     abs=1e-12)
        # I2 and I3 from the pushforwards of the joint to (W, U, S) and
        # (V, W, S); the tables read them off the two-fold sums
        _, I2, I3 = endgame_informations(J)
        assert t.I2 == pytest.approx(I2, abs=1e-12)
        assert t.I3 == pytest.approx(I3, abs=1e-12)


def test_spectral_and_sparse_constructions_agree():
    rng = make_rng(52)
    for n in (2, 3, 4):
        X1 = random_dist(rng, n)
        X2 = random_dist(rng, n)
        A = uvs_spectral(X1, X2)
        B = uvs_sparse(X1, X2)
        assert np.allclose(A.dense(), B.dense(), atol=1e-12)


def _sum_work(n, p, q):
    """xor_convolve's work on supports of p and q points: p q entries
    enumerated below n 2^n, else one transform of 2^n."""
    return p * q if p * q < n << n else 1 << n


def _pair_work(n, p, q):
    """The batched kernel's work on a pair of laws of p and q points: p q
    entries listed below 2^n, else one transform of 2^n."""
    return min(p * q, 1 << n)


def _guarded_work(X1, X2):
    """The work endgame_tables bounds: over the unordered pairs of distinct
    laws of X2 given X1 ^ X2, the work of their sum, plus that of the sums
    X1 * X2, X1 * X1, X2 * X2 and C * C, C = X1 * X2."""
    n, laws = X1.n, {}
    for L in _fibre_laws(X2, X1).values():
        laws[L.support().tobytes(), np.round(L.items()[1], 12).tobytes()] = L.support_size()
    size = np.array(list(laws.values()))
    work = np.triu(np.vectorize(_pair_work)(n, size[:, None], size[None, :]))
    a, b = X1.support_size(), X2.support_size()
    c = len({x ^ y for x in X1.support().tolist() for y in X2.support().tolist()})
    return int(work.sum()) + sum(_sum_work(n, p, q) for p, q in ((a, b), (a, a), (b, b), (c, c)))


def test_endgame_support_guard_trips(monkeypatch):
    # the cap on the tables' own work, listed entries plus 2^n for each
    # transform, over the pairs of fibre laws and the sums the tables take,
    # trips past its value and not at it; at n = 6 the fibres of two
    # 20-point laws have 3 to 9 points, so pairs of both kinds are scored
    rng = make_rng(53)
    n = 6
    X1, X2 = (Dist.from_sparse(rng.choice(1 << n, 20, replace=False), rng.random(20), n=n)
              for _ in range(2))
    work = _guarded_work(X1, X2)
    g, _, _ = dists._cross_runs(X2, X1)
    sizes = np.diff(dists._runs(g))
    assert (sizes ** 2 < 1 << n).any() and (sizes ** 2 >= 1 << n).any()   # both kinds
    monkeypatch.setattr(ruzsa, "PRODUCT_SUPPORT_CAP", work)
    assert endgame_tables(X1, X2).I1 == pytest.approx(table_informations(X1, X2)["I1"],
                                                      abs=1e-12)
    monkeypatch.setattr(ruzsa, "PRODUCT_SUPPORT_CAP", work - 1)
    with pytest.raises(CostGuardExceeded, match="^fibre pair sums too large$") as exc:
        endgame_tables(X1, X2).I1
    assert (exc.value.guard, exc.value.size) == ("PRODUCT_SUPPORT_CAP", work)
    monkeypatch.undo()
    # a dense subset: 4096 fibres of about 256 points, nearly every pair
    # transformed
    X = uniform_on(np.random.default_rng(5).choice(1 << 12, 1024, replace=False), 12)
    with pytest.raises(CostGuardExceeded) as exc:
        endgame_tables(X, X).I1
    assert exc.value.guard == "PRODUCT_SUPPORT_CAP" and exc.value.size > dists.PRODUCT_SUPPORT_CAP
    with pytest.raises(ValueError) as exc:
        endgame_tables(X1, random_dist(rng, 4))
    assert not isinstance(exc.value, CostGuardExceeded)


def test_the_cost_guard_counts_the_sums_before_any_is_formed(monkeypatch):
    # generic laws of 100 and 110 points in F_2^24: their fibres are point
    # masses, about 6,000 pairs of one entry, but C * C would enumerate
    # 11,000^2 sums, below 24 * 2^24, past the cap; the guard trips before
    # xor_convolve forms C, D or C * C
    rng = np.random.default_rng(7)
    X1, X2 = (uniform_on(rng.choice(1 << 24, m, replace=False), 24) for m in (100, 110))

    def refused(*args):
        raise AssertionError("a sum was formed before the cost guard")
    monkeypatch.setattr(bsg, "xor_convolve", refused)
    with pytest.raises(CostGuardExceeded, match="^fibre pair sums too large$") as exc:
        endgame_tables(X1, X2).I1
    assert exc.value.guard == "PRODUCT_SUPPORT_CAP"
    assert exc.value.size == _guarded_work(X1, X2) > dists.PRODUCT_SUPPORT_CAP
    # the diagnostics of a stalled descent, in the span of rank 24 they
    # reduce to, trip the same guard first
    with pytest.raises(CostGuardExceeded, match="^fibre pair sums too large$"):
        diagnostics(RefPair(X1, X2), X1, X2)


def test_endgame_keys_fit_at_the_widest_dimension():
    # n = 24, the widest a Dist takes: a random two-law pair at n = 6
    # carried in by an injective linear map keeps its informations, with
    # every pair of its fibre laws keyed on n + log2(pairs) bits; past
    # DENSE_BITS no law is built, so no key can overflow
    rng = make_rng(76)
    X1, X2 = random_dist(rng, 6, 12), random_dist(rng, 6, 12)
    f = LinearMap(6, 24, tuple(int(c) << 18 | int(c) for c in (1, 2, 4, 8, 16, 32)))
    Y1, Y2 = (_relabelled(X, f, 0, 24) for X in (X1, X2))
    t, u = endgame_tables(X1, X2), endgame_tables(Y1, Y2)
    assert max(abs(getattr(t, key) - getattr(u, key)) for key in _INFORMATIONS) <= 1e-12
    with pytest.raises(CostGuardExceeded) as exc:
        Dist(57, idx=np.array([1, 2]), w=np.array([0.5, 0.5]))
    assert (exc.value.guard, exc.value.size) == ("DENSE_BITS", 57)


def test_uniform_coset_pair_has_vanishing_informations():
    U = uniform_on([0, 1, 2, 3], 4)
    t = endgame_tables(U, U)
    assert t.k == pytest.approx(0.0, abs=1e-12)
    assert t.I1 == pytest.approx(0.0, abs=1e-10)
    assert t.I2 == pytest.approx(0.0, abs=1e-10)


_INFORMATIONS = ("k", "I1", "I2", "I3", "H_S")


def _oracle_gap(X1, X2):
    """The largest gap between endgame_tables and the table oracle over k,
    I1, I2, I3 and H_S."""
    t, want = endgame_tables(X1, X2), table_informations(X1, X2)
    return max(abs(getattr(t, key) - want[key]) for key in _INFORMATIONS)


def test_endgame_tables_match_the_table_oracle():
    # pairs of two laws and of one law, n = 3-6, each table by the cheaper
    # builder; both builders serve the one-law pairs
    for _, X1, X2, _, _ in _random_uvs_cases(62):
        assert _oracle_gap(X1, X2) <= 1e-12
    for _, X, _, _ in _one_law_cases(71):
        assert _oracle_gap(X, X) <= 1e-12


def test_small_fibre_pairs_are_enumerated_not_transformed(monkeypatch):
    # generic (14, 15) as a one-law pair: fibres of one or two points and
    # one of 15, every pair far below 2^14 entries, so every pair is listed
    # and no dense 2^14-entry row is formed (a dense-only kernel took about
    # 13 s here)
    calls = _count_runs(monkeypatch)
    monkeypatch.setattr(ruzsa, "fwht", lambda a: calls.append((True, len(a))) or dists.fwht(a))
    X = uniform_on(np.random.default_rng(5).choice(2 ** 14, 15, replace=False), 14)
    assert _oracle_gap(X, X) <= 1e-12
    assert calls and not any(dense for dense, _ in calls)


def _relabelled(X, f, shift, n=None):
    idx, w = X.items()
    return Dist(n or X.n, idx=np.array([f.apply(int(x)) ^ shift for x in idx]), w=w)


def test_informations_are_blind_to_affine_relabelling():
    # an injective linear map of F_2^6 onto itself, then a translation of
    # each law: every information is unchanged
    rng = make_rng(75)
    n = 6
    for _ in range(4):
        X1, X2 = random_dist(rng, n), random_dist(rng, n)
        cols = []
        while len(cols) < n:
            c = int(rng.integers(1, 1 << n))
            if span(cols + [c], n).rank == len(cols) + 1:
                cols.append(c)
        f = LinearMap(n, n, tuple(cols))
        Y1, Y2 = (_relabelled(X, f, int(rng.integers(1 << n))) for X in (X1, X2))
        t, u = endgame_tables(X1, X2), endgame_tables(Y1, Y2)
        assert max(abs(getattr(t, key) - getattr(u, key)) for key in _INFORMATIONS) <= 1e-12


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
    the first row within TIE_TOL of the least is returned as its
    alpha < beta twin, the one the library reports.
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
    # the first row within TIE_TOL of the least in generation order, as the
    # library breaks ties
    for r in rows:
        if r[0] <= best[0] + ruzsa.TIE_TOL:
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


def test_abstract_endgame_sparse_input_at_n18_matches_oracle(monkeypatch):
    # the conditional laws and the references have at most four points, so
    # every sum is listed; dense rows would take 2^18 floats each.
    # Every law sits on a coset of H = {0, u, v, u ^ v}: generic points
    # would add without collisions and make tau blind to the reference pair.
    calls = _count_runs(monkeypatch)
    rng = make_rng(60)
    n = 18
    x, y, u, v = (int(z) for z in rng.integers(0, 1 << n, 4))
    H = np.array([0, u, v, u ^ v])
    keys = ((x ^ H[:3])[:, None] | ((y ^ H[:3])[None, :] << n)).ravel()
    J = JointDist(n, 2, ["T1", "T2"], keys=keys, w=rng.random(9))
    mk = lambda: Dist.from_sparse(x ^ H, rng.random(4), n=n)
    assert _check_sparse_endgame_against_oracle(rng, J, mk)
    assert calls and not any(dense for dense, _ in calls)


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


def _law_gap(A, B):
    """The largest weight gap of two laws of equal support, else inf."""
    (ia, wa), (ib, wb) = A.items(), B.items()
    return float(np.abs(wa - wb).max()) if np.array_equal(ia, ib) else np.inf


def _assert_choices_match_slices(ref, X1, X2, J, budget):
    """endgame_choices makes abstract_endgame's choice on each conditioned
    slice of J, the (U, V, S) law of (X1, X2): equal choice tuples, taus
    within 1e-12, and laws of equal support with weights within 1e-12. The
    arithmetic differs by design: endgame_choices scores each row as a
    product of two fibre spectra, and it drops the gamma = U rows at
    t ^ s > t, the gamma = V rows and, when X2 is X1, the gamma = W rows.
    Every dropped row ties, in exact arithmetic, a row scored before it in
    tie order, and the TIE_TOL pick does not split such ties by
    round-off."""
    values = _top_support(J.marginal_dist("S"), budget)
    batched = endgame_choices(ref, X1, X2, values)
    assert len(batched) == len(values)
    gap = 0.0
    for s, ch in zip(values, batched):
        one = abstract_endgame(ref, J.condition("S", s))
        assert ch.choice == one.choice
        gap = max(gap, abs(ch.tau - one.tau),
                  _law_gap(ch.T1p, one.T1p), _law_gap(ch.T2p, one.T2p))
    assert gap <= 1e-12


def _random_uvs_cases(seed):
    """(ref, X1, X2, the table oracle's (U, V, S) law, whether the spectral
    cube built it) on random pairs of two laws, n = 3-6."""
    rng = make_rng(seed)
    for trial in range(12):
        n = 3 + trial % 4
        size = int(rng.integers(2, 1 + min(1 << n, 10)))
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, size, replace=False),
                                      rng.random(size), n=n)
        X1, X2 = mk(), mk()
        yield RefPair(mk(), mk()), X1, X2, uvs_table(X1, X2), uvs_spectral_wins(X1, X2)


def _one_law_cases(seed):
    """(ref, X, X, the (U, V, S) law of (X, X) by uvs_spectral and by
    uvs_sparse), n = 3-6."""
    rng = make_rng(seed)
    for trial in range(8):
        n = 3 + trial % 4
        size = int(rng.integers(2, 1 + min(1 << n, 10)))
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, size, replace=False),
                                      rng.random(size), n=n)
        X, ref = mk(), RefPair(mk(), mk())
        for build in (uvs_spectral, uvs_sparse):
            yield ref, X, X, build(X, X)


@pytest.mark.parametrize("budget", [4, 64])
def test_endgame_choices_equal_the_per_slice_choices(budget):
    paths = set()
    for ref, X1, X2, J, spectral in _random_uvs_cases(62):
        paths.add(spectral)
        _assert_choices_match_slices(ref, X1, X2, J, budget)
    assert paths == {True, False}   # the spectral cube and the enumeration
    for ref, X1, X2, J in _one_law_cases(71):    # each law by both constructions
        _assert_choices_match_slices(ref, X1, X2, J, budget)


def test_gamma_v_rows_repeat_the_gamma_u_rows():
    # swapping X1 with its copy X~1 exchanges U and V and fixes S, so in
    # every slice U | V = t has the law, and the row the tau, of V | U = t
    rng = make_rng(65)
    for n in (3, 4, 5):
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, 6, replace=False),
                                      rng.random(6), n=n)
        X1, X2, ref = mk(), mk(), RefPair(mk(), mk())
        for J in (uvs_spectral(X1, X2), uvs_sparse(X1, X2)):
            for s in _top_support(J.marginal_dist("S"), 8):
                keys, w = J.condition("S", s).items()
                u, v = keys & ((1 << n) - 1), keys >> n
                rows_u, taus_u, _, order_u, bounds_u = _row_taus(ref, n, u, v, w)
                rows_v, taus_v, _, order_v, bounds_v = _row_taus(ref, n, v, u, w)
                assert np.array_equal(rows_v, rows_u)
                assert np.array_equal(bounds_v, bounds_u)
                for a, b in zip(bounds_u[:-1], bounds_u[1:]):
                    assert np.array_equal(v[order_u[a:b]], u[order_v[a:b]])
                assert np.allclose(taus_v, taus_u, rtol=0, atol=1e-12)


def test_gamma_w_rows_of_one_law_repeat_the_gamma_u_rows():
    # with X2 = X1 the four summands are i.i.d.; swapping X2 with X~1
    # exchanges U and W and fixes V and S, so in every slice U | W = t has
    # the law of W | U = t, a translate of V | U = t: the rows, and the
    # row taus, of gamma = W are those of gamma = U
    for ref, X, _, J in _one_law_cases(72):
        n = X.n
        for s in _top_support(J.marginal_dist("S"), 8):
            keys, w = J.condition("S", s).items()
            u, v = keys & ((1 << n) - 1), keys >> n
            rows_u, taus_u, *_ = _row_taus(ref, n, u, v, w)
            rows_w, taus_w, *_ = _row_taus(ref, n, u ^ v, u, w)
            assert np.array_equal(rows_w, rows_u)
            assert np.allclose(taus_w, taus_u, rtol=0, atol=1e-12)


def test_endgame_choices_break_exact_ties_as_the_slices_do():
    # for U uniform on a subgroup H, U, V and S are independent and uniform
    # on H: in every slice all candidates tie, and the first one wins
    U = uniform_on([0, 3, 5, 6], 3)
    _assert_choices_match_slices(RefPair(U, U), U, U, uvs_table(U, U), 64)
    chs = endgame_choices(RefPair(U, U), U, U, [6, 0, 5])
    assert [ch.choice for ch in chs] == [(0, 1, 2, 0)] * 3


def _count_runs(monkeypatch):
    """Record (dense, rows) for every batch the ruzsa kernels score from
    now on: (True, rows) per stack of dense spectra turned into entropies,
    (False, sums) per call that lists sums."""
    calls, lister, entropies = [], ruzsa._listed_sum_entropies, ruzsa.conv_entropy

    def counted_list(*args):
        out = lister(*args)
        calls.append((False, len(out)))
        return out

    def counted_entropies(spec):
        calls.append((True, len(spec)))
        return entropies(spec)
    monkeypatch.setattr(ruzsa, "_listed_sum_entropies", counted_list)
    monkeypatch.setattr(ruzsa, "conv_entropy", counted_entropies)
    return calls


def _row_counts(J, values):
    """The number of (slice, t) rows of gamma = U with t <= t ^ s, and of
    gamma = W, in the slices S = s of J."""
    n, counts = J.n, np.zeros(2, dtype=int)
    for s in values:
        keys, _ = J.condition("S", s).items()
        u, v = keys & ((1 << n) - 1), keys >> n
        t = np.unique(u)
        counts += np.count_nonzero(t <= t ^ s), len(np.unique(u ^ v))
    return counts


def test_endgame_choices_with_chunks_across_slice_boundaries(monkeypatch):
    # eight rows of 2^n per stack, references included: the dense sums of a
    # call are walked in chunks, which end inside and between slices; every
    # stack transformed and every block of products scored holds at most
    # eight rows, and each slice makes abstract_endgame's choice
    calls, stacks, transform = _count_runs(monkeypatch), [], ruzsa.fwht
    monkeypatch.setattr(ruzsa, "fwht", lambda a: stacks.append(len(a)) or transform(a))
    chunked = 0
    for ref, X1, X2, J, _ in _random_uvs_cases(63):
        monkeypatch.setattr(ruzsa, "BATCH_ELEMS", 8 << J.n)
        del calls[:], stacks[:]
        endgame_choices(ref, X1, X2, _top_support(J.marginal_dist("S"), 64))
        assert max(stacks, default=0) <= 8
        assert all(rows <= 8 for dense, rows in calls if dense)
        chunked += len(stacks) > 1
        _assert_choices_match_slices(ref, X1, X2, J, 64)
    assert chunked == 11   # every case but one, whose sums are all listed


def test_a_pair_of_one_law_scores_only_the_gamma_u_rows(monkeypatch):
    # the rows handed to the kernel: the gamma = U rows at t <= t ^ s (every
    # row of the slice S = 0), and for two laws every gamma = W row
    scored, kernel = [], bsg.rdist_runs

    def counted(n, col, w, cut, refs=(), sums=None):
        scored.append(len(sums[0]))
        return kernel(n, col, w, cut, refs, sums)
    monkeypatch.setattr(bsg, "rdist_runs", counted)
    rng = make_rng(73)
    halved = 0
    for n in (3, 4, 5):
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, 6, replace=False),
                                      rng.random(6), n=n)
        X, Y, ref = mk(), mk(), RefPair(mk(), mk())
        for X2, weights in ((Y, [1, 1]), (X, [1, 0])):
            J = uvs_table(X, X2)
            values = _top_support(J.marginal_dist("S"), 64)
            assert 0 in values
            del scored[:]
            endgame_choices(ref, X, X2, values)
            assert scored == [_row_counts(J, values) @ weights]
            every_u = sum(len(np.unique(J.condition("S", s).items()[0] & ((1 << n) - 1)))
                          for s in values)
            halved += _row_counts(J, values)[0] < every_u
    assert halved == 6


def test_slice_rows_are_sums_of_two_fibres():
    # given S = s, V | U = t is A_t * A_{t^s} translated by t ^ s, A_g the
    # law of X2 given X1 ^ X2 = g, and U | W = t is E_t * F_{t^s}, E and F
    # the fibres of X1 * X1 and X2 * X2: one law and two laws, n = 3-5
    rng = make_rng(74)
    for n in (3, 4, 5):
        mk = lambda: Dist.from_sparse(rng.choice(1 << n, 5, replace=False),
                                      rng.random(5), n=n)
        X, Y = mk(), mk()
        for X1, X2 in ((X, Y), (X, X)):
            A, E, F = (_fibre_laws(P, Q) for P, Q in ((X2, X1), (X1, X1), (X2, X2)))
            J = uvs_sparse(X1, X2)
            for s in _top_support(J.marginal_dist("S"), 64):
                keys, w = J.condition("S", s).items()
                u, v = keys & ((1 << n) - 1), keys >> n
                for given, law, fibres in ((u, v, (A, A)), (u ^ v, u, (E, F))):
                    for t in np.unique(given):
                        row = Dist(n, idx=law[given == t], w=w[given == t])
                        L = dists.xor_convolve(fibres[0][t], fibres[1][t ^ s])
                        if fibres[0] is A:
                            L = L.translate(t ^ s)
                        assert np.abs(row.dense() - L.dense()).max() <= 1e-14


def _fibre_laws(P, Q):
    """{g: the law of P | P ^ Q~ = g} for independent P and Q~ ~ Q."""
    g, col, w = dists._cross_runs(P, Q)
    cut = dists._runs(g)
    return {int(g[a]): Dist(P.n, idx=col[a:b], w=w[a:b]) for a, b in zip(cut[:-1], cut[1:])}


def test_listed_rows_score_as_the_dense_chunks(monkeypatch):
    # the rows can be listed sum by sum or formed from dense chunks, by the
    # bound of the one rule. On (T1, T2) laws both routes match the
    # exhaustive search; on (U, V, S) slices, whose translated rows tie up
    # to round-off, every row's tau agrees.
    calls = _count_runs(monkeypatch)

    def both(n, f):
        out = []
        for bound in (1 << 62, 0):
            monkeypatch.setattr(ruzsa, "_list_bound", lambda n, b=bound: b)
            del calls[:]
            out.append(f())
            assert calls and all(dense == (bound == 0) for dense, _ in calls)
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
    for ref, _, _, J, _ in _random_uvs_cases(66):
        n = J.n
        if n > 5:
            continue
        keys, w = J.items()
        u, v, s = keys & ((1 << n) - 1), (keys >> n) & ((1 << n) - 1), keys >> (2 * n)
        for given, law in ((u, v), (u ^ v, u)):
            a, b = both(n, lambda: _row_taus(ref, n, (s << n) | given, law, w))
            for x, y in zip(a[:1] + a[3:], b[:1] + b[3:]):
                assert np.array_equal(x, y)     # rows, order, bounds
            assert np.allclose(a[1:3], b[1:3], rtol=0, atol=1e-12)   # taus, d


@pytest.mark.parametrize("seed", [62, 66, 7, 71])
def test_endgame_picks_do_not_depend_on_the_scoring_path(monkeypatch, seed):
    # rows that tie in exact arithmetic (translated rows, the rows at t and
    # t ^ s, the U/V and U/W twins) differ by round-off, and the round-off
    # differs between the routing of the one rule, every sum listed, and
    # every sum formed from stacks of three dense rows, one sum's runs and
    # its partner (BATCH_ELEMS = 3 2^n); the TIE_TOL pick makes the same
    # choice on every path, from fibres or one slice at a time
    calls, bound, elems = _count_runs(monkeypatch), ruzsa._list_bound, ruzsa.BATCH_ELEMS
    cases = [c[:4] for c in _random_uvs_cases(seed)] + list(_one_law_cases(seed))
    for ref, X1, X2, J in cases:
        n = J.n
        values = _top_support(J.marginal_dist("S"), 64)
        picks = []
        for path, b, e in (("routed", bound, elems), ("listed", lambda n: 1 << 62, elems),
                           ("dense", lambda n: 0, 3 << n)):
            monkeypatch.setattr(ruzsa, "_list_bound", b)
            monkeypatch.setattr(ruzsa, "BATCH_ELEMS", e)
            del calls[:]
            picks.append(endgame_choices(ref, X1, X2, values))
            picks.append([abstract_endgame(ref, J.condition("S", s)) for s in values])
            assert calls and all(path == "routed" or dense == (path == "dense")
                                 and (e == elems or rows <= 3) for dense, rows in calls)
        for chs in zip(*picks):
            assert len({ch.choice for ch in chs}) == 1
            taus = [ch.tau for ch in chs]
            assert max(taus) - min(taus) <= 1e-12
            for ch in chs[1:]:
                assert _law_gap(ch.T1p, chs[0].T1p) <= 1e-12
                assert _law_gap(ch.T2p, chs[0].T2p) <= 1e-12


def test_endgame_choices_on_sparse_laws_at_n17(monkeypatch):
    # n = 17: the fibres and the references have four points, so every row
    # is listed and no dense row of 2^17 entries is formed
    calls = _count_runs(monkeypatch)
    rng = make_rng(64)
    n = 17
    u, v = (int(z) for z in rng.integers(1, 1 << n, 2))
    H = np.array([0, u, v, u ^ v])
    mk = lambda: Dist.from_sparse(H ^ int(rng.integers(1 << n)), rng.random(4), n=n)
    X1, X2 = mk(), mk()
    _assert_choices_match_slices(RefPair(mk(), mk()), X1, X2, uvs_table(X1, X2), 64)
    assert calls and not any(dense for dense, _ in calls)


def test_endgame_choices_reject_a_value_of_zero_mass():
    # S = X1 ^ X2 ^ X~1 ^ X~2 lies in the subgroup {0, 1}: S = 2 has no mass
    X = uniform_on([0, 1], 3)
    J = uvs_table(X, X)
    with pytest.raises(ValueError, match="S=2 has zero mass"):
        endgame_choices(RefPair(X, X), X, X, [0, 2])
    # a value past F_2^n would read another family's fibres as its rows
    Y = uniform_on([0, 3], 3)
    for X1, X2 in ((X, X), (X, Y)):
        for s in (1 << 3, -1):
            with pytest.raises(ValueError, match=f"S={s} lies outside F_2"):
                endgame_choices(RefPair(X1, X2), X1, X2, [0, s])
    with pytest.raises(ValueError, match="S=2 has zero mass"):
        J.condition("S", 2)


def _slice_lhs(J):
    """bsg_check's lhs as the mass-weighted self distances of the A | Z
    slices, scored by rdist_pairs on one Dist per slice."""
    sl = J.pushforward([[0], [1], [0, 1]], ["A", "B", "Z"]).slices("A", "Z")
    k = np.arange(len(sl))
    return float(np.array([p for _, p, _ in sl]) @ rdist_pairs([d for _, _, d in sl], k, k))


def test_bsg_check_lhs_matches_the_slice_dists():
    rng = make_rng(67)
    for n in (1, 2, 3, 4, 5, 6):
        J = random_joint(rng, n, 2, ["A", "B"])
        assert bsg_check(J).lhs == pytest.approx(_slice_lhs(J), abs=1e-12)


def test_bsg_check_transforms_at_most_batch_elems_entries(monkeypatch):
    # three rows of 2^6 per chunk: every dense stack bsg_check transforms,
    # slice rows and their products, stays within BATCH_ELEMS, and the
    # lhs is bitwise the unchunked one
    J = random_joint(make_rng(68), 6, 2, ["A", "B"], support_size=600)
    whole = bsg_check(J)
    sizes, fwht = [], dists.fwht

    def counted(a):
        sizes.append(np.size(a))
        return fwht(a)
    monkeypatch.setattr(ruzsa, "BATCH_ELEMS", 3 << J.n)
    monkeypatch.setattr(ruzsa, "fwht", counted)
    monkeypatch.setattr(dists, "fwht", counted)
    assert bsg_check(J).lhs == whole.lhs
    assert len(sizes) > 2 and max(sizes) <= ruzsa.BATCH_ELEMS


def test_bsg_check_at_n17_lists_its_slices(monkeypatch):
    # n = 17: A and B on cosets of H = {0, u, v, u ^ v}, so each of the
    # four slices of Z = A ^ B holds four points, and the four self sums
    # of 16 entries are listed in one call
    calls = _count_runs(monkeypatch)
    rng = make_rng(69)
    n = 17
    u, v = (int(z) for z in rng.integers(1, 1 << n, 2))
    H = np.array([0, u, v, u ^ v])
    a, b = (H ^ int(x) for x in rng.integers(0, 1 << n, 2))
    J = JointDist(n, 2, ["A", "B"], keys=(a[:, None] | (b[None, :] << n)).ravel(),
                  w=rng.random(16))
    rep = bsg_check(J)
    assert calls == [(False, 4)]
    assert rep.holds
    assert rep.lhs == pytest.approx(_slice_lhs(J), abs=1e-12)
