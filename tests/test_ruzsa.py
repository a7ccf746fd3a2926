"""Ruzsa distance, batched evaluation, conditional forms, inequality corpus."""
import math

import numpy as np
import pytest

from entropic_pfr import dists, ruzsa
from entropic_pfr.descent import BUDGET, MoveKind, generate_candidates
from entropic_pfr.dists import (Dist, JointDist, fwht, uniform_on,
                                uniform_on_subgroup, xor_convolve)
from entropic_pfr.groups import span
from entropic_pfr.randgen import (make_rng, random_coset_union, random_dist,
                                  random_joint)
from entropic_pfr.ruzsa import (ETA_MAX, IneqReport, RefPair,
                                check_cond_distance, check_double_shift,
                                check_madiman, check_ruzsa_diff,
                                check_submodularity, check_sum_shift,
                                check_sum_shift_cond, check_triangle,
                                check_xor_lower, cond_rdist,
                                cond_rdist_via_joint, rdist,
                                rdist_matrix, rdist_one_many, rdist_paired,
                                rdist_pairs, rdist_runs)
from oracles import double_shift_via_joint, sum_shift_cond_via_joint


def test_distance_of_three_point_uniform_with_itself():
    # uniform on {0, 1, 2} in F_2^2: the convolution puts 3/9 on 0 and 2/9
    # on each of 1, 2, 3, giving d = (2/3) log(3/2)
    U = uniform_on([0, 1, 2], 2)
    assert rdist(U, U) == pytest.approx((2.0 / 3.0) * math.log(1.5), abs=1e-12)


def test_distance_symmetry_and_nonnegativity():
    rng = make_rng(30)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        X = random_dist(rng, n)
        Y = random_dist(rng, n)
        d = rdist(X, Y)
        assert d >= -1e-12
        assert d == pytest.approx(rdist(Y, X), abs=1e-12)


def test_distance_vanishes_exactly_on_coset_pairs():
    H = span([0b011, 0b100], 5)
    A = uniform_on_subgroup(H).translate(0b01000)
    B = uniform_on_subgroup(H).translate(0b10001)
    assert rdist(A, B) == pytest.approx(0.0, abs=1e-12)
    assert rdist(Dist.point_mass(7, 5), Dist.point_mass(21, 5)) == 0.0


def test_distance_invariant_under_translation():
    rng = make_rng(31)
    X = random_dist(rng, 5)
    Y = random_dist(rng, 5)
    assert rdist(X.translate(9), Y.translate(17)) == pytest.approx(
        rdist(X, Y), abs=1e-12)


def _coset_laws(rng, n, count):
    # 8-point laws on two cosets of one 4-element subgroup: their sums
    # collide, so the distances differ from (H[X] + H[Y]) / 2
    u, v = (int(z) for z in rng.integers(1, 1 << n, 2))
    H = np.array([0, u, v, u ^ v])
    return [Dist.from_sparse(np.r_[H ^ int(x), H ^ int(y)], rng.random(8), n=n)
            for x, y in rng.integers(0, 1 << n, (count, 2))]


def test_batched_distances_match_pairwise_loop(monkeypatch):
    rng = make_rng(32)
    xs = [random_dist(rng, 5) for _ in range(7)]
    ys = [random_dist(rng, 5) for _ in range(5)]
    M = rdist_matrix(xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert M[i, j] == pytest.approx(rdist(x, y), abs=1e-11)
    row = rdist_one_many(xs[0], ys)
    assert np.allclose(row, M[0], atol=1e-12)
    diag = rdist_paired(xs[:5], ys)
    assert np.allclose(diag, np.diag(M[:5]), atol=1e-12)
    assert rdist_matrix([], ys).shape == (0, 5)
    with pytest.raises(ValueError):
        rdist_paired(xs, ys)
    # rdist_pairs on repeated and reversed index pairs, and the parts of tau
    # on the same pairs: at n = 5 most pairs are formed from dense rows, at
    # n = 17 every pair of these 8-point laws is listed
    i = np.array([0, 1, 1, 2, 5, 3, 3, 0, 4])
    j = np.array([1, 0, 1, 4, 2, 3, 0, 5, 4])
    for n in (5, 17):
        laws = (_coset_laws(rng, n, 8) if n == 17
                else [random_dist(rng, n) for _ in range(8)])
        ref = RefPair(laws.pop(), laws.pop())
        D = rdist_pairs(laws, i, j)
        P = ref.parts(laws, i, j)
        assert np.array_equal(P[0], D)
        T = ref.tau_of(*P)
        for k in range(len(i)):
            X, Y = laws[i[k]], laws[j[k]]
            assert D[k] == pytest.approx(rdist(X, Y), abs=1e-11)
            assert T[k] == pytest.approx(ref.tau(X, Y), abs=1e-11)
        # the same laws as runs of one family, weights rescaled: each run's
        # self distance and its distances from the references
        col = np.concatenate([d.items()[0] for d in laws])
        w = 3.0 * np.concatenate([d.items()[1] for d in laws])
        cut = np.r_[0, np.cumsum([d.support_size() for d in laws])]
        refs, k = [ref.X01, ref.X02], np.arange(len(laws))
        runs = rdist_runs(n, col, w, cut, refs)
        assert np.allclose(runs, np.vstack([rdist_pairs(laws, k, k), rdist_matrix(refs, laws)]),
                           rtol=0, atol=1e-12)
        # rows and products two at a time: the same numbers, bit for bit
        with monkeypatch.context() as mp:
            mp.setattr(ruzsa, "BATCH_ELEMS", 2 << n)
            assert np.array_equal(rdist_pairs(laws, i, j), D)
            assert np.array_equal(ref.parts(laws, i, j), P)
            assert np.array_equal(rdist_runs(n, col, w, cut, refs), runs)
    assert rdist_pairs(laws, [], []).shape == (0,)
    with pytest.raises(ValueError):
        rdist_pairs(laws, [0, 1], [1])


def test_batched_distances_route_each_pair_at_n18(monkeypatch):
    # past 2^16 as below it, a pair whose support sizes multiply below 2^n
    # is listed and any other is formed from one stack of dense rows
    rng = make_rng(33)
    n = 18
    xs = [Dist.from_sparse(rng.integers(0, 1 << n, 4), rng.random(4), n=n) for _ in range(2)]
    xs.append(Dist.from_sparse(rng.choice(1 << n, 1 << 16, replace=False),
                               rng.random(1 << 16), n=n))
    rows, listed = _forward_rows(monkeypatch), _listed_items(monkeypatch)
    M = rdist_matrix(xs, xs)
    # pairs among the two small laws are listed, the large law's pairs dense
    assert (rows, listed) == ([3], [3])
    for a in range(3):
        for b in range(3):
            assert M[a, b] == pytest.approx(rdist(xs[a], xs[b]), abs=1e-9 if 2 in (a, b) else 1e-11)


def _forward_rows(monkeypatch):
    # rows of every stack the batched kernels transform (their own forward
    # transforms; conv_entropy's inverse ones run in dists)
    rows = []

    def counted(a):
        rows.append(len(a))
        return fwht(a)
    monkeypatch.setattr(ruzsa, "fwht", counted)
    return rows


def _listed_items(monkeypatch):
    # sums of every call that lists them
    items, lister = [], ruzsa._listed_sum_entropies

    def counted(*args):
        out = lister(*args)
        items.append(len(out))
        return out
    monkeypatch.setattr(ruzsa, "_listed_sum_entropies", counted)
    return items


def _routed(monkeypatch, path, n):
    # force every sum onto one path by the bound of the one rule: listed
    # below it, formed from dense rows at or above it; "chunked" stacks one
    # row of 2^n at a time
    if path == "listed":
        monkeypatch.setattr(ruzsa, "_list_bound", lambda n: 1 << 62)
    elif path in ("dense", "chunked"):
        monkeypatch.setattr(ruzsa, "_list_bound", lambda n: 0)
    if path == "chunked":
        monkeypatch.setattr(ruzsa, "BATCH_ELEMS", 1 << n)


@pytest.mark.parametrize("n", [5, 17])
def test_rdist_pairs_scores_repeated_laws_once(n, monkeypatch):
    rng = make_rng(35)
    supports = [np.unique(rng.integers(0, 1 << n, 6)) for _ in range(4)]
    # law 4 has law 0's support and other weights
    raw = [(idx, rng.random(len(idx))) for idx in supports + supports[:1]]
    base = [Dist(n, idx=idx, w=w) for idx, w in raw]
    # the same objects again, and an equal copy of law 2 built from its arrays
    laws = base + [base[1], Dist(n, idx=raw[2][0], w=raw[2][1]), base[0]]
    of = np.array([0, 1, 2, 3, 4, 1, 2, 0])
    i, j = np.indices((8, 8)).reshape(2, -1)
    want = rdist_pairs(base, of[i], of[j])
    ref = RefPair(base[3], base[0])
    want_p = ref.parts(base, of[i], of[j])
    rows, listed = _forward_rows(monkeypatch), _listed_items(monkeypatch)
    assert np.array_equal(rdist_pairs(laws, i, j), want)
    assert np.array_equal(ref.parts(laws, i, j), want_p)
    # the references are laws 3 and 0 again: each call sees 5 distinct laws,
    # 15 unordered pairs, each listed or formed once; at n = 17 all are
    # listed, at n = 5 only the pairs whose sizes multiply below 32, and
    # each law of a dense pair is one row of the one stack
    size = [len(idx) for idx in supports + supports[:1]]
    pairs = [(a, b) for a in range(5) for b in range(a, 5)]
    dense = {x for a, b in pairs if size[a] * size[b] >= 1 << n for x in (a, b)}
    assert sum(listed) == 2 * (15 - sum(size[a] * size[b] >= 1 << n for a, b in pairs))
    assert rows == ([len(dense)] * 2 if dense else [])
    assert 0 < len(dense) < 5 if n == 5 else not dense


@pytest.mark.parametrize("rows_per_chunk", [None, 3])
def test_rdist_runs_scores_repeated_runs_once(rows_per_chunk, monkeypatch):
    rng = make_rng(36)
    n = 5
    runs = [(rng.integers(0, 1 << n, 5), rng.random(5)) for _ in range(4)]
    order = [0, 1, 0, 2, 2, 3, 1, 0]
    refs = [random_dist(rng, n), random_dist(rng, n)]

    def scored(which):
        col = np.concatenate([runs[r][0] for r in which])
        w = np.concatenate([runs[r][1] for r in which])
        cut = np.arange(len(which) + 1) * 5
        return rdist_runs(n, col, w, cut, refs)
    if rows_per_chunk:
        monkeypatch.setattr(ruzsa, "BATCH_ELEMS", rows_per_chunk << n)
    want = scored(range(4))[:, order]
    rows = _forward_rows(monkeypatch)
    assert np.array_equal(scored(order), want)
    # a run's self sum (at most 25 entries) is listed; its sums with the
    # 22- and 31-point references are formed from one stack of the
    # references and the distinct runs, or from chunks of three rows,
    # references included: each the two references and one run
    assert [R.support_size() for R in refs] == [22, 31]
    assert rows == ([6] if rows_per_chunk is None else [3, 3, 3, 3])
    # equal references: one row, its distances copied, bit for bit
    one = scored(order)[[0, 1, 1]]
    refs[1] = refs[0]
    del rows[:]
    assert np.array_equal(scored(order), one)
    assert rows == ([5] if rows_per_chunk is None else [3, 3])


@pytest.mark.parametrize("bits", [None, 4])
def test_rdist_runs_scores_each_distinct_sum_once(bits, monkeypatch):
    # against rdist on the sums built by xor_convolve, with sums listed
    # below 2^n and, with the rule's bound moved to 2^bits, more of them
    # formed from dense rows. Run 3 is byte-equal to run 1, so the pairs
    # (0, 1), (1, 0) and (0, 3) are one sum, bit for bit
    rng = make_rng(38)
    n = 5
    runs = [(np.sort(rng.choice(1 << n, 4, replace=False)), rng.random(4))
            for _ in range(3)]
    runs.append(runs[1])
    col, w = (np.concatenate(z) for z in zip(*runs))
    cut = np.arange(len(runs) + 1) * 4
    i, j = [0, 1, 0, 2, 3, 2], [1, 0, 3, 2, 2, 0]
    refs = [random_dist(rng, n), random_dist(rng, n)]
    if bits:
        monkeypatch.setattr(ruzsa, "_list_bound", lambda n: 1 << bits)
    rows, listed = _forward_rows(monkeypatch), _listed_items(monkeypatch)
    got = rdist_runs(n, col, w, cut, refs, (i, j))
    laws = [Dist(n, idx=c, w=x) for c, x in runs]
    sums = [xor_convolve(laws[a], laws[b]) for a, b in zip(i, j)]
    want = [[rdist(L, L) for L in sums]] + [[rdist(R, L) for L in sums] for R in refs]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got[:, [0, 0]], got[:, [1, 2]])
    # four distinct sums of 16 entries: each sum's own entropy listed
    # below 2^5 and formed from the runs' rows at 2^4; its self sum and
    # its sums with the references formed from the one stack of the two
    # references and the three distinct runs
    assert rows == [5]
    assert listed == ([] if bits else [4])
    assert rdist_runs(n, col, w, cut, sums=(i, j)).shape == (1, 6)


def test_rdist_runs_of_sums_holds_at_most_batch_elems_entries(monkeypatch):
    # 40 pairs over 12 runs. At BATCH_ELEMS = 8 << n every stack the kernel
    # transforms or scores has at most 8 rows of 2^n, references included,
    # and the distances are, bit for bit, those of the one stack at the
    # default BATCH_ELEMS
    rng = make_rng(39)
    n = 5
    runs = [(np.sort(rng.choice(1 << n, 3, replace=False)), rng.random(3))
            for _ in range(12)]
    col, w = (np.concatenate(z) for z in zip(*runs))
    cut = np.arange(len(runs) + 1) * 3
    i, j = rng.integers(0, len(runs), (2, 40))
    refs = [random_dist(rng, n), random_dist(rng, n)]
    rows = _forward_rows(monkeypatch)
    want = rdist_runs(n, col, w, cut, refs, (i, j))
    assert rows == [2 + len(runs)]
    del rows[:]
    scored, entropies = [], ruzsa.conv_entropy

    def counted(spec):
        scored.append(len(spec))
        return entropies(spec)
    monkeypatch.setattr(ruzsa, "conv_entropy", counted)
    monkeypatch.setattr(ruzsa, "BATCH_ELEMS", 8 << n)
    assert np.array_equal(rdist_runs(n, col, w, cut, refs, (i, j)), want)
    assert len(rows) > 2 and max(rows) <= 8 and max(scored) <= 8


def test_sums_of_small_runs_at_n14_are_listed_not_transformed(monkeypatch):
    # the rows of descent's endgame at r = 14: sums of runs of one or two
    # points against references of three points, every sum far below 2^14
    # entries, so no dense row of 2^14 entries is formed or transformed
    rng = make_rng(43)
    n = 14
    size = rng.integers(1, 3, 40)
    cut = np.concatenate([[0], np.cumsum(size)])
    col, w = rng.integers(0, 1 << n, cut[-1]), rng.random(cut[-1])
    i, j = rng.integers(0, 40, (2, 60))
    refs = [random_dist(rng, n, 3), random_dist(rng, n, 3)]
    transforms = []
    monkeypatch.setattr(ruzsa, "fwht", lambda a: transforms.append(a) or fwht(a))
    monkeypatch.setattr(dists, "fwht", lambda a: transforms.append(a) or fwht(a))
    got = rdist_runs(n, col, w, cut, refs, (i, j))
    assert transforms == []
    laws = [Dist(n, idx=col[a:b], w=w[a:b]) for a, b in zip(cut[:-1], cut[1:])]
    sums = [xor_convolve(laws[a], laws[b]) for a, b in zip(i, j)]
    want = [[rdist(L, L) for L in sums]] + [[rdist(R, L) for L in sums] for R in refs]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_run_kernels_refuse_a_reference_of_another_dimension():
    rng = make_rng(44)
    col, w, cut = np.array([1, 2, 3]), np.ones(3), np.array([0, 2, 3])
    for R in (random_dist(rng, 4), random_dist(rng, 6)):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            rdist_runs(5, col, w, cut, [R])
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            rdist_runs(5, col, w, cut, [random_dist(rng, 5), R], ([0], [1]))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        rdist_pairs([random_dist(rng, 5), random_dist(rng, 4)], [0], [1])


@pytest.mark.parametrize("kind", ["reference", "run", "sum", "mixed"])
def test_every_element_kind_scores_alike_on_every_path(kind, monkeypatch):
    # every sum listed, every sum formed from dense rows, dense stacks of one
    # row (BATCH_ELEMS = 2^n) and the routing of the one rule agree within
    # 1e-12 with scalar rdist on references, runs and sums of two runs, with
    # byte-equal copies among the laws and among the references, one of
    # which is a run's law, and on pairs of two laws, of a law and a sum and
    # of a sum with itself in one call (rows of two, three and four
    # summands): at n = 5 on random laws, at n = 17 on laws on cosets of
    # one 8-element subgroup, whose sums collide
    rng = make_rng(42)
    for n in (5, 17):
        if n == 5:
            draw = lambda k: np.sort(rng.choice(1 << n, k, replace=False))
            ref = lambda: random_dist(rng, n)
        else:
            H = span(rng.integers(1, 1 << n, 3).tolist(), n)
            assert H.rank == 3
            draw = lambda k: np.sort(rng.choice(H.enumerate_array(), k, replace=False)
                                     ^ int(rng.integers(1 << n)))
            ref = lambda: Dist(n, idx=draw(6), w=rng.random(6))
        runs = [(draw(5), rng.random(5)) for _ in range(4)]
        runs += [runs[1], runs[3]]
        col, w = (np.concatenate(z) for z in zip(*runs))
        cut = np.arange(len(runs) + 1) * 5
        laws = [Dist(n, idx=c, w=x) for c, x in runs]
        refs = [ref(), laws[0], ref()]
        refs.append(refs[2])
        i, j = np.array([0, 1, 4, 2, 3, 5, 1]), np.array([1, 4, 1, 2, 5, 0, 3])
        if kind == "reference":
            score = lambda: rdist_pairs(laws, i, j)
            want = [rdist(laws[a], laws[b]) for a, b in zip(i, j)]
        elif kind == "run":
            score = lambda: rdist_runs(n, col, w, cut, refs)
            want = [[rdist(L, L) for L in laws]] + [[rdist(R, L) for L in laws] for R in refs]
        elif kind == "sum":
            sums = [xor_convolve(laws[a], laws[b]) for a, b in zip(i, j)]
            score = lambda: rdist_runs(n, col, w, cut, refs, (i, j))
            want = [[rdist(L, L) for L in sums]] + [[rdist(R, L) for L in sums] for R in refs]
        else:   # the elements: the references, the runs, the sums
            E = [*refs, *laws, *(xor_convolve(laws[a], laws[b]) for a, b in zip(i, j))]
            p, q = np.array([0, 4, 10, 5, 13, 2]), np.array([5, 10, 10, 6, 3, 16])
            score = lambda: ruzsa._rdists(n, p, q, refs, (col, w, cut), (i, j))
            want = [rdist(E[x], E[y]) for x, y in zip(p, q)]
        for path in ("routed", "listed", "dense", "chunked"):
            with monkeypatch.context() as mp:
                _routed(mp, path, n)
                assert np.allclose(score(), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [5, 17])
def test_sum_entropies_read_one_table_of_two_to_four_summands(n, monkeypatch):
    # one summand table of rows of two, three and four runs, -1 for none,
    # ordered by count, with runs repeated within a row, against the
    # entropy of the xor_convolve chain of the row's laws, on every path,
    # and with blocks of three rows (BATCH_ELEMS = 3 2^n) that cut through
    # the count segments: at n = 17 the laws lie on cosets of one
    # 8-element subgroup, so their sums collide
    rng = make_rng(45)
    H = span(rng.integers(1, 1 << n, 3).tolist(), n).enumerate_array()
    laws = [Dist.from_sparse(rng.choice(1 << n, 4, replace=False) if n == 5
                             else rng.choice(H, 4, replace=False) ^ int(rng.integers(1 << n)),
                             rng.random(4), n=n) for _ in range(5)]
    col, w = (np.concatenate(z) for z in zip(*(d.items() for d in laws)))
    cut = np.arange(len(laws) + 1) * 4
    R = np.array([[0, 1, -1, -1], [2, 2, -1, -1], [3, 0, -1, -1], [4, 1, -1, -1],
                  [0, 1, 2, -1], [1, 1, 3, -1], [4, 2, 0, -1],
                  [0, 1, 0, 1], [2, 3, 2, 3], [1, 1, 1, 1]])
    want = []
    for row in R:
        S = laws[row[0]]
        for r in row[1:][row[1:] >= 0]:
            S = xor_convolve(S, laws[r])
        want.append(dists.entropy(S))
    for path in ("routed", "listed", "dense", "chunked"):
        for elems in (None, 3 << n):
            with monkeypatch.context() as mp:
                _routed(mp, path, n)
                if elems:
                    mp.setattr(ruzsa, "BATCH_ELEMS", elems)
                got = ruzsa._sum_entropies(n, col, w, cut, R)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (path, elems)


def test_run_chunks_cover_the_pairs_in_order():
    # consecutive chunks of items reading two or three runs (-1 for none),
    # each reading at most cap runs, or one item's when they are more, each
    # as long as the next item allows
    rng = make_rng(40)
    m = 30
    reads = np.sort(rng.integers(0, m, (80, 3)), axis=1)[:, ::-1]
    reads[::3, 2] = -1
    for cap in (1, 2, 3, 7, m):
        bounds = ruzsa._run_chunks(reads, cap)
        assert bounds[0] == 0 and bounds[-1] == len(reads)
        assert all(x < y for x, y in zip(bounds[:-1], bounds[1:]))
        runs = lambda lo, hi: np.setdiff1d(reads[lo:hi], [-1])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert len(runs(lo, hi)) <= cap or hi == lo + 1
            if hi < len(reads):
                assert len(runs(lo, hi + 1)) > cap
        assert (len(bounds) == 2) == (cap == m)


def test_a_law_and_its_translate_stay_two_rows(monkeypatch):
    rng = make_rng(37)
    X = random_dist(rng, 6, 20)
    Y = X.translate(5)
    rows = _forward_rows(monkeypatch)
    D = rdist_pairs([X, Y], [0, 0, 1], [0, 1, 1])
    col = np.concatenate([X.items()[0], Y.items()[0]])
    w = np.concatenate([X.items()[1], Y.items()[1]])
    R = rdist_runs(6, col, w, np.array([0, 20, 40]))
    assert rows == [2, 2]
    assert D[0] == pytest.approx(D[2], abs=1e-12)
    assert D[[0, 2]] == pytest.approx(R[0], abs=1e-12)


def test_fibre_class_on_a_coset_union_transforms_at_most_two_rows(monkeypatch):
    # U_A is H-invariant, so every fibre law over g in H is the same law
    U = uniform_on(random_coset_union(make_rng(1), 10, 5, 3), 10)
    ref = RefPair(U, U)
    for kind in (MoveKind.FIBRE_CROSS, MoveKind.FIBRE_SELF):
        rows = _forward_rows(monkeypatch)
        moves = generate_candidates(ref, U, U, kinds=[kind])
        assert len(moves) == BUDGET
        assert len(rows) == 1 and rows[0] <= 2


def _given_runs(J, a, b):
    """The laws of axis a given axis b of J as runs: the marginal's keys
    ascend with b in the high bits."""
    keys, w = J.marginal([a, b]).items()
    return keys & ((1 << J.n) - 1), w, dists._runs(keys >> J.n)


def _scalar_cond_rdist(n, x, y):
    """The sum of p p' rdist over the runs of two families, one Dist a run
    and one scalar rdist a pair."""
    def laws(col, w, cut):
        m = np.add.reduceat(w, cut[:-1])
        return [(p / m.sum(), Dist(n, idx=col[a:b], w=w[a:b]))
                for p, a, b in zip(m, cut[:-1], cut[1:])]
    return sum(p * q * rdist(X, Y) for p, X in laws(*x) for q, Y in laws(*y))


def test_conditional_distance_agrees_between_definitions():
    # the runs of two joints, their weights scaled as a whole, against the
    # joint-entropy form and the scalar sum over slices
    rng = make_rng(34)
    for n in range(1, 7):
        for _ in range(4):
            JX = random_joint(rng, n, 2, ["X", "Z"])
            JY = random_joint(rng, n, 2, ["Y", "W"])
            col, w, cut = _given_runs(JX, "X", "Z")
            x = (col, 3.0 * w, cut)
            y = _given_runs(JY, "Y", "W")
            got = cond_rdist(n, x, y)
            assert got == pytest.approx(cond_rdist_via_joint(JX, JY), abs=1e-12)
            assert got == pytest.approx(_scalar_cond_rdist(n, x, y), abs=1e-12)


def test_cond_rdist_reads_masses_from_weights_of_any_scale():
    # each run's weights scaled by its own factor, and byte-equal copies of
    # a run (the same scale) and a copy at another scale appended to the
    # family: a run's mass is its weight sum over the family's
    rng = make_rng(41)
    for n in range(1, 7):
        JX = random_joint(rng, n, 2, ["X", "Z"])
        JY = random_joint(rng, n, 2, ["Y", "W"])
        fams = []
        for col, w, cut in (_given_runs(JX, "X", "Z"), _given_runs(JY, "Y", "W")):
            w = w * np.repeat(rng.uniform(0.1, 10.0, len(cut) - 1), np.diff(cut))
            a, b = cut[0], cut[1]
            col = np.concatenate([col, col[a:b], col[a:b], col[a:b]])
            w = np.concatenate([w, w[a:b], w[a:b], 7.0 * w[a:b]])
            fams.append((col, w, np.r_[cut, cut[-1] + (b - a) * np.arange(1, 4)]))
        got = cond_rdist(n, *fams)
        assert got == pytest.approx(_scalar_cond_rdist(n, *fams), abs=1e-12)


def test_trivial_conditioning_recovers_plain_distance():
    rng = make_rng(35)
    for n in range(1, 7):
        X = random_dist(rng, n)
        Y = random_dist(rng, n)
        got = cond_rdist(n, ruzsa._law_runs(X), ruzsa._law_runs(Y))
        assert got == pytest.approx(rdist(X, Y), abs=1e-12)


def test_a_family_against_itself_scores_as_against_a_copy():
    # x passed as both families takes the unordered pairs of its laws, each
    # off-diagonal pair counted twice; against a copy of itself, the ordered
    # pairs. Both agree with the joint-entropy form of two independent
    # copies of the joint and with the scalar sum, with byte-equal runs and
    # per-run weight scales in the family
    rng = make_rng(45)
    for n in range(1, 7):
        JX = random_joint(rng, n, 2, ["X", "Z"])
        col, w, cut = _given_runs(JX, "X", "Z")
        x = (col, 5.0 * w, cut)
        assert cond_rdist(n, x, x) == pytest.approx(cond_rdist_via_joint(JX, JX), abs=1e-12)
        a, b = cut[0], cut[1]
        w = w * np.repeat(rng.uniform(0.1, 10.0, len(cut) - 1), np.diff(cut))
        x = (np.concatenate([col, col[a:b], col[a:b]]), np.concatenate([w, w[a:b], 3.0 * w[a:b]]),
             np.r_[cut, cut[-1] + (b - a) * np.arange(1, 3)])
        copy = tuple(v.copy() for v in x)
        got = cond_rdist(n, x, x)
        assert got == pytest.approx(cond_rdist(n, x, copy), abs=1e-12)
        assert got == pytest.approx(_scalar_cond_rdist(n, x, copy), abs=1e-12)


def _no_scoring(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a pair was scored past the cost guard")
    monkeypatch.setattr(ruzsa, "_sum_entropies", refused)


def test_cond_rdist_refuses_a_dimension_past_dense_bits_before_scoring(monkeypatch):
    _no_scoring(monkeypatch)
    runs = (np.array([0, 1 << 24]), np.array([1.0, 1.0]), np.array([0, 2]))
    with pytest.raises(dists.CostGuardExceeded) as exc:
        cond_rdist(25, runs, runs)
    assert exc.value.guard == "DENSE_BITS"


def test_cond_rdist_refuses_pair_work_past_the_cap_before_scoring(monkeypatch):
    # two families of 9000 one-point runs in F_2^20: about 8.1e7 ordered
    # pairs of one listed entry each, past PRODUCT_SUPPORT_CAP = 2^26;
    # scored, they would hold about 200 bytes a pair. Point masses on one
    # value are one law, so the work counts the distinct values of each side
    _no_scoring(monkeypatch)
    rng = np.random.default_rng(5)
    x, y = ((v, np.ones(len(v)), np.arange(len(v) + 1)) for v in rng.integers(0, 1 << 20, (2, 9000)))
    with pytest.raises(dists.CostGuardExceeded, match="^fibre pair sums too large$") as exc:
        cond_rdist(20, x, y)
    work = len(np.unique(x[0])) * len(np.unique(y[0]))
    assert (exc.value.guard, exc.value.size) == ("PRODUCT_SUPPORT_CAP", work)
    assert work > dists.PRODUCT_SUPPORT_CAP


def test_sum_shift_cond_builds_no_law_per_fibre(monkeypatch):
    # a point mass Z gives 20 one-point fibres, a uniform Z on F_2^5 gives
    # 32 fibres of all of Y: the same count of laws is built for each
    built, init = [], Dist.__init__
    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    rng = make_rng(42)
    X, Y = random_dist(rng, 5, 20), random_dist(rng, 5, 20)
    counts = []
    for Z in (Dist.point_mass(3, 5), uniform_on(range(32), 5), random_dist(rng, 5, 6)):
        monkeypatch.setattr(Dist, "__init__", counting)
        check_sum_shift_cond(X, Y, Z)
        monkeypatch.undo()
        counts.append(len(built))
        built.clear()
    assert counts[0] == counts[1] == counts[2]


def test_ref_pair_validation_and_tau():
    rng = make_rng(36)
    X01 = random_dist(rng, 4)
    X02 = random_dist(rng, 4)
    ref = RefPair(X01, X02)
    # at the swapped start the tau value collapses to (1 + 2 eta) d
    tau0 = ref.tau(X02, X01)
    assert tau0 == pytest.approx((1 + 2 * ref.eta) * rdist(X01, X02), abs=1e-12)
    with pytest.raises(ValueError):
        RefPair(X01, X02, eta=0.0)
    with pytest.raises(ValueError):
        RefPair(X01, X02, eta=ETA_MAX)
    with pytest.raises(ValueError):
        RefPair(X01, random_dist(rng, 5))
    assert ETA_MAX == pytest.approx(1.0 / (4.0 + math.sqrt(17.0)))
    assert 1.0 / 9.0 < ETA_MAX


def test_ineq_report_slack_semantics():
    r = IneqReport("demo", 1.0, 2.0)
    assert r.slack == pytest.approx(1.0) and r.holds
    bad = IneqReport("demo", 2.0, 1.0)
    assert not bad.holds


def test_inequality_corpus_on_random_inputs():
    rng = make_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        X, Y, Z, W = (random_dist(rng, n) for _ in range(4))
        assert check_triangle(X, Y, Z).holds
        assert check_madiman(X, Y, Z).holds
        assert check_sum_shift(X, Y, Z).holds
        assert check_sum_shift_cond(X, Y, Z).holds
        assert check_double_shift(X, Y, Z, W).holds
        assert check_ruzsa_diff(X, Y).holds
        J2 = random_joint(rng, n, 2, ["X", "Z"])
        K2 = random_joint(rng, n, 2, ["Y", "W"])
        assert check_cond_distance(J2, K2).holds
        assert check_xor_lower(random_joint(rng, n, 2, ["A", "B"])).holds
        assert check_submodularity(random_joint(rng, min(n, 4), 3,
                                                ["A", "B", "C"])).holds


def test_equality_cases_pin_the_constants():
    H = span([1, 2, 4], 4)
    U = uniform_on_subgroup(H)
    P = Dist.point_mass(9, 4)
    # |H[U] - H[P]| = log 8 and d[U; P] = log(8)/2: ruzsa-diff is tight
    r = check_ruzsa_diff(U, P)
    assert r.slack == pytest.approx(0.0, abs=1e-12)
    # a point-mass summand shifts without smoothing: Madiman is tight
    rng = make_rng(38)
    X, Y = random_dist(rng, 4), random_dist(rng, 4)
    m = check_madiman(X, Y, P)
    assert m.lhs == pytest.approx(m.rhs, abs=1e-12)
    # triangle through one of its own endpoints costs d[X;X]
    t = check_triangle(X, Y, X)
    assert t.slack == pytest.approx(rdist(X, X), abs=1e-11)


def test_sum_shift_entropy_forms():
    # the rhs of sum-shift is (H[Y+Z] - H[Y])/2, nonnegative by the
    # convolution entropy bound, so d[X;Y+Z] never undercuts d[X;Y] by more
    rng = make_rng(39)
    X, Y, Z = (random_dist(rng, 5) for _ in range(3))
    r = check_sum_shift(X, Y, Z)
    assert r.rhs >= -1e-12
    assert r.lhs == pytest.approx(
        rdist(X, xor_convolve(Y, Z)) - rdist(X, Y), abs=1e-12)


def test_sum_conditioned_checks_match_the_product_joint_oracle():
    # check_sum_shift_cond and check_double_shift cut their fibres from the
    # support pairs; the oracle cuts them from the product joint
    rng = make_rng(40)
    worst = 0.0
    for n in range(8):
        for _ in range(12):
            X, Y, Z, Zp = (random_dist(rng, n) for _ in range(4))
            for got, want in ((check_sum_shift_cond(X, Y, Z),
                               sum_shift_cond_via_joint(X, Y, Z)),
                              (check_double_shift(X, Y, Z, Zp),
                               double_shift_via_joint(X, Y, Z, Zp))):
                assert got.name == want.name and got.holds == want.holds
                worst = max(worst, abs(got.lhs - want.lhs), abs(got.rhs - want.rhs))
    assert worst <= 1e-12
