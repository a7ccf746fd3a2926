"""Exact GF(2) linear algebra against brute-force enumeration."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_pfr import dists
from entropic_pfr.groups import (CostGuardExceeded, LinearMap, SubgroupBasis,
                                 format_elem, parse_elem, span)


def brute_span(elems, n):
    """Close a generating set under XOR by fixpoint iteration."""
    out = {0}
    frontier = set(elems)
    while frontier:
        new = {a ^ b for a in out for b in frontier} | frontier
        frontier = new - out
        out |= new
    return out


def rref_loop(vectors):
    """The scalar elimination span used before it worked on arrays: each
    vector against each row, then back-substitution."""
    rows = []
    for v in vectors:
        for r in rows:
            if v ^ r < v:
                v ^= r
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    for i, r in enumerate(rows):
        pivot = 1 << (r.bit_length() - 1)
        for j in range(i):
            if rows[j] & pivot:
                rows[j] ^= r
    return tuple(rows)


def test_span_matches_the_scalar_elimination_up_to_62_bits():
    rng = np.random.default_rng(31)
    cases = [(0, []), (5, []), (5, [0, 0, 0]), (62, [0]), (62, [(1 << 62) - 1] * 3),
             (6, list(range(64))), (62, [1 << i for i in range(62)])]
    for _ in range(150):
        n = int(rng.integers(1, 63))
        m = int(rng.integers(0, 40))
        rank = int(rng.integers(0, n + 1))
        # rank-deficient draws: sums of a few random generators, with zeros
        # and duplicates mixed in
        gens = rng.integers(0, 1 << n, size=rank, dtype=np.int64)
        pick = rng.integers(0, 2, size=(m, rank)).astype(bool)
        v = np.bitwise_xor.reduce(np.where(pick, gens, 0), axis=1) if rank else np.zeros(m, np.int64)
        v = np.r_[v, v[:2], 0]
        cases.append((n, v.tolist()))
        cases.append((n, rng.integers(0, 1 << n, size=m, dtype=np.int64).tolist()))
    for n, vecs in cases:
        want = rref_loop(vecs)
        assert span(vecs, n).rows == want
        assert span(np.array(vecs, dtype=np.int64), n).rows == want
    assert span(list(range(64)), 6).rank == 6
    assert span([1 << i for i in range(62)], 62).rank == 62


def test_span_refuses_elements_outside_the_group_and_n_past_62():
    for bad in ([5, -1], [0, 64], [1 << 40]):
        for elems in (bad, np.array(bad, dtype=np.int64)):
            with pytest.raises(ValueError, match="exceeds ambient"):
                span(elems, 6)
    # past int64 too: a ValueError, not numpy's OverflowError
    with pytest.raises(ValueError, match="exceeds ambient"):
        span([3, 1 << 70], 6)
    with pytest.raises(ValueError, match="exceeds ambient"):
        span(np.array([1, 1 << 62], dtype=np.int64), 62)
    with pytest.raises(ValueError, match="n <= 62"):
        span([1], 63)


def test_span_matches_brute_closure():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        gens = [int(g) for g in rng.integers(0, 1 << n, size=rng.integers(0, 5))]
        H = span(gens, n)
        members = brute_span(gens, n)
        assert H.span_size() == len(members)
        assert set(H.enumerate()) == members


def test_basis_is_canonical_and_order_free():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        gens = [int(g) for g in rng.integers(0, 1 << n, size=6)]
        H = span(gens, n)
        perm = list(gens)
        rng.shuffle(perm)
        assert span(perm + gens, n) == H
        # leading bits strictly decreasing, pivot unique to its row
        lead = [r.bit_length() for r in H.rows]
        assert lead == sorted(lead, reverse=True)
        for i, r in enumerate(H.rows):
            pivot = 1 << (r.bit_length() - 1)
            assert all(not (q & pivot) for j, q in enumerate(H.rows) if j != i)


def test_rows_must_be_reduced():
    # {3, 1} is a valid span but not reduced: 3 still carries pivot bit 1
    with pytest.raises(ValueError):
        SubgroupBasis(4, (3, 1))
    with pytest.raises(ValueError):
        SubgroupBasis(2, (4,))
    # zero rows, equal or rising leading bits and negative words are not
    # canonical either
    for rows in ((0,), (2, 3), (1, 2), (-1,)):
        with pytest.raises(ValueError):
            SubgroupBasis(4, rows)
    assert SubgroupBasis(4, (2, 1)).rank == 2


def test_reduce_is_min_of_coset():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        H = span([int(g) for g in rng.integers(0, 1 << n, size=3)], n)
        x = int(rng.integers(0, 1 << n))
        coset = {x ^ h for h in H.enumerate()}
        assert H.reduce(x) == min(coset)
        assert H.reduce(x) in coset


def test_reduce_and_contains_on_arrays_match_the_scalar_map():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        H = span([int(g) for g in rng.integers(0, 1 << n, size=rng.integers(0, 5))], n)
        x = rng.integers(0, 1 << n, size=int(rng.integers(0, 40)))
        assert H.reduce(x).tolist() == [H.reduce(int(v)) for v in x]
        assert H.contains(x).tolist() == [H.contains(int(v)) for v in x]
    empty = np.array([], dtype=np.int64)
    for H in (span([], 5), span([6, 17], 5)):
        assert H.reduce(empty).tolist() == H.contains(empty).tolist() == []
    assert span([], 5).reduce(np.array([3, 0, 31])).tolist() == [3, 0, 31]
    assert span([], 5).contains(np.array([3, 0])).tolist() == [False, True]
    for H in (span([], 6), span([3, 40], 6)):
        for bad in ([5, -1], [0, 64], [1 << 40]):
            for method in (H.reduce, H.contains):
                with pytest.raises(ValueError, match="exceeds ambient"):
                    method(np.array(bad, dtype=np.int64))
        for bad in (-1, 64):
            with pytest.raises(ValueError, match="exceeds ambient"):
                H.reduce(bad)


def test_contains_matches_enumeration():
    H = span([0b1100, 0b0011], 4)
    members = set(H.enumerate())
    for x in range(16):
        assert H.contains(x) == (x in members)


def test_enumerate_sorted_and_closed():
    H = span([0b101, 0b010], 3)
    e = H.enumerate()
    assert e == sorted(e)
    assert len(e) == 4
    assert all((a ^ b) in set(e) for a in e for b in e)
    assert list(H.enumerate_array()) == e


def test_enumerate_guard():
    H = span([1 << i for i in range(25)], 26)
    with pytest.raises(ValueError):
        H.enumerate()


def test_enumerate_guards_are_typed():
    H = span([1 << i for i in range(25)], 26)
    for method in (H.enumerate, H.enumerate_array):
        with pytest.raises(CostGuardExceeded, match="rank too large") as err:
            method()
        assert (err.value.guard, err.value.size) == ("ENUMERATE_RANK", 25)
    assert len(span([1 << i for i in range(4)], 26).enumerate_array()) == 16
    assert CostGuardExceeded is dists.CostGuardExceeded   # one class, re-exported


def test_shrink_to_size():
    H = span([1, 2, 4, 8], 4)
    S = H.shrink_to_size(4)
    assert S.span_size() <= 4
    # result is a subgroup of the input
    assert all(H.contains(r) for r in S.rows)
    assert H.shrink_to_size(16) == H
    with pytest.raises(ValueError):
        H.shrink_to_size(0)


def test_linear_map_apply_matches_table_and_is_linear():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n_in = int(rng.integers(1, 8))
        n_out = int(rng.integers(1, 8))
        cols = tuple(int(c) for c in rng.integers(0, 1 << n_out, size=n_in))
        f = LinearMap(n_in, n_out, cols)
        tab = f.table()
        assert len(tab) == 1 << n_in
        for _ in range(10):
            x = int(rng.integers(0, 1 << n_in))
            y = int(rng.integers(0, 1 << n_in))
            assert f.apply(x) == tab[x]
            assert f.apply(x ^ y) == f.apply(x) ^ f.apply(y)


def test_linear_map_constructors():
    assert LinearMap.identity(5).apply(19) == 19
    assert LinearMap.zero(5).apply(19) == 0
    ps = LinearMap.pair_sum(3)
    assert ps.apply((0b101) | (0b110 << 3)) == 0b011


def test_linear_map_validation():
    with pytest.raises(ValueError):
        LinearMap(2, 2, (1,))
    with pytest.raises(ValueError):
        LinearMap(1, 1, (2,))


def test_parse_and_format_round_trip():
    for x in (0, 5, 12):
        for style in ("bin", "hex"):
            assert parse_elem(format_elem(x, 4, style), 4) == x
    assert parse_elem("0b0101", 4) == 5
    assert parse_elem(" 7 ", 3) == 7
    with pytest.raises(ValueError):
        parse_elem("16", 4)
    with pytest.raises(ValueError):
        format_elem(3, 4, "oct")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), max_size=6),
       st.integers(min_value=0, max_value=255))
def test_reduction_properties(gens, x):
    H = span(gens, 8)
    r = H.reduce(x)
    assert H.contains(r ^ x)
    assert H.reduce(r) == r
    # reducing a member lands on zero
    for row in H.rows:
        assert H.reduce(row) == 0


def test_coordinate_maps_invert_each_other_and_keep_order():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        gens = [int(g) for g in rng.integers(0, 1 << n, size=rng.integers(0, 8))]
        V = span(gens, n)
        c = np.arange(V.span_size(), dtype=np.int64)
        members = V.enumerate_array()
        # members ascend, and coordinate i is the i-th smallest member: the
        # maps are mutually inverse bijections that preserve order on V
        assert np.array_equal(V.from_coords(c), members)
        assert np.array_equal(V.coords(members), c)
        assert np.array_equal(V.coords(V.from_coords(c)), c)
        assert np.array_equal(V.from_coords(V.coords(members)), members)
        # ints map like arrays, and both maps are linear
        for _ in range(5):
            a, b = (int(z) for z in rng.integers(0, V.span_size(), size=2))
            assert V.from_coords(a) == members[a]
            assert V.coords(int(members[a])) == a
            assert V.from_coords(a ^ b) == V.from_coords(a) ^ V.from_coords(b)


def test_coordinate_maps_at_rank_zero_and_full_rank():
    V = span([], 5)
    pts = np.zeros(3, dtype=np.int64)
    assert np.array_equal(V.coords(pts), pts)
    assert np.array_equal(V.from_coords(pts), pts)
    assert V.coords(0) == 0 and V.from_coords(0) == 0
    # the full group's basis is the standard one: both maps are the identity
    F = span([3, 5, 7, 9, 17], 5)
    assert F.rank == 5
    x = np.arange(32, dtype=np.int64)
    assert np.array_equal(F.coords(x), x)
    assert np.array_equal(F.from_coords(x), x)
