"""Distribution plumbing: table and index input, WHT, joints, serialization.

Every operation is checked against a brute-force reference built from plain
dictionaries. A Dist or JointDist read from a table must equal, bitwise, the
one read from its indices or keys.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_pfr import dists
from entropic_pfr.dists import (CostGuardExceeded, Dist, JointDist, _cross_runs, _fibres, _group,
                                conv_entropy, dense_from_csv, entropy, fwht,
                                joint_product, load_dist,
                                pushforward_dist, uniform_on,
                                uniform_on_subgroup, xor_convolve)
from entropic_pfr.groups import LinearMap, span
from entropic_pfr.randgen import make_rng, random_dist, random_joint


def plain_entropy(w):
    return -sum(p * math.log(p) for p in w if p > 0)


def brute_convolve(X, Y):
    out = np.zeros(1 << X.n)
    ix, wx = X.items()
    iy, wy = Y.items()
    for i, a in zip(ix, wx):
        for j, b in zip(iy, wy):
            out[i ^ j] += a * b
    return out


def joint_table(J):
    """Packed key -> weight as a plain dict."""
    keys, w = J.items()
    return {int(k): float(v) for k, v in zip(keys, w)}


# -- Dist ---------------------------------------------------------------------


def test_dist_normalizes_and_validates():
    X = Dist.from_dense([1, 1, 2, 0], 2)
    assert abs(X.dense().sum() - 1.0) < 1e-15
    assert X.weight(2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Dist.from_dense([1, -1, 0, 0], 2)
    with pytest.raises(ValueError):
        Dist.from_dense([0, 0, 0, 0], 2)
    with pytest.raises(ValueError):
        Dist.from_dense([1, 1], 2)


def test_out_of_range_index_raises_even_with_zero_weight():
    with pytest.raises(ValueError, match="exceeds 2 bits"):
        Dist(2, idx=[0, 4], w=[1.0, 0.0])
    with pytest.raises(ValueError, match="exceeds 2 bits"):
        Dist(2, idx=[-1, 1], w=[0.0, 1.0])
    with pytest.raises(ValueError, match="exceeds 4 bits"):
        JointDist(2, 2, ["X", "Y"], keys=[0, 16], w=[1.0, 0.0])


def test_sparse_accumulates_duplicates():
    X = Dist.from_sparse([3, 3, 1], [1.0, 1.0, 2.0], n=2)
    assert X.weight(3) == pytest.approx(0.5)
    assert X.weight(1) == pytest.approx(0.5)
    Y = Dist.from_sparse({1: 2.0, 3: 2.0}, n=2)
    assert np.allclose(X.dense(), Y.dense())


def test_dense_sparse_round_trip_preserves_everything():
    # a law read from its table and from its (unsorted) indices is one law,
    # bitwise
    rng = make_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        idx = rng.permutation(1 << n)[: rng.integers(1, (1 << n) + 1)]
        w = rng.exponential(size=len(idx))
        table = np.zeros(1 << n)
        table[idx] = w
        S = Dist(n, idx=idx, w=w)
        D = Dist(n, dense=table)
        g = int(rng.integers(0, 1 << n))
        for a, b in zip(S.items() + S.translate(g).items(),
                        D.items() + D.translate(g).items()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert S.entropy() == D.entropy()
        assert S.argmax() == D.argmax()


def test_entropy_matches_plain_sum():
    rng = make_rng(12)
    for _ in range(20):
        X = random_dist(rng, int(rng.integers(1, 8)))
        _, w = X.items()
        assert X.entropy() == pytest.approx(plain_entropy(w), abs=1e-12)
    assert Dist.point_mass(5, 3).entropy() == 0.0
    assert uniform_on(range(8), 3).entropy() == pytest.approx(3 * math.log(2))


def test_translate_is_group_action():
    X = Dist.from_dense([0.1, 0.2, 0.3, 0.4], 2)
    assert np.allclose(X.translate(3).translate(3).dense(), X.dense())
    assert X.translate(1).weight(0) == pytest.approx(X.weight(1))


def test_prune_drops_dust_and_renormalizes():
    X = Dist.from_sparse([0, 1, 2], [1.0, 1e-20, 1.0], n=2)
    P = X.prune(1e-13)
    assert P.support_size() == 2
    assert P.weight(0) == pytest.approx(0.5)


def test_argmax_smallest_index_on_tie():
    X = Dist.from_dense([0.25, 0.25, 0.5, 0.0], 2)
    assert X.argmax() == 2
    Y = Dist.from_dense([0.5, 0.5, 0, 0], 2)
    assert Y.argmax() == 0


# -- WHT and convolution ------------------------------------------------------


def direct_wht(a):
    n = len(a)
    out = np.zeros(n)
    for y in range(n):
        for x in range(n):
            out[y] += a[x] * (-1) ** bin(x & y).count("1")
    return out


def butterfly_wht(a):
    """The radix-2 butterfly fwht must reproduce bit for bit: stages h = 1,
    2, 4, ..., worked in place on a copy."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[-1]
    h = 1
    while h < n:
        b = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        diff = b[..., 0, :] - b[..., 1, :]
        b[..., 0, :] += b[..., 1, :]
        b[..., 1, :] = diff
        h *= 2
    return a


def test_fwht_matches_direct_transform():
    rng = make_rng(13)
    for n in (1, 2, 4, 8, 16, 32):
        a = rng.normal(size=n)
        assert np.allclose(fwht(a), direct_wht(a), atol=1e-12)
        assert np.allclose(fwht(fwht(a)) / n, a, atol=1e-12)
    tall = rng.normal(size=(40, 32))
    assert np.allclose(fwht(tall), [direct_wht(row) for row in tall], atol=1e-12)


def test_fwht_batches_rows_independently():
    # short and tall stacks, long rows, a 3-D stack and strided views:
    # every row of the constant-geometry stages equals, bitwise, the in-place
    # butterfly and its own 1-D transform, and the input is neither changed
    # nor shared
    rng = make_rng(14)
    shapes = [(m, 1 << k) for m in (1, 2, 3, 4, 7, 8, 9, 64, 300) for k in range(11)]
    shapes += [(m, 1 << k) for m in (1, 3) for k in (12, 14, 16)]
    shapes += [(1305, 32), (2050, 32), (3, 5, 64)]
    stacks = [rng.normal(size=shape) for shape in shapes]
    stacks += [rng.normal(size=(m, 64))[:, ::2] for m in (3, 9)]
    stacks += [rng.normal(size=(256, 5)).T, rng.normal(size=(20, 2048))[::3, 512:1536]]
    for rows in stacks:
        before = rows.copy()
        batched = fwht(rows)
        assert np.array_equal(rows, before)
        assert not np.shares_memory(batched, rows)
        assert np.array_equal(batched, butterfly_wht(rows))
        n = rows.shape[-1]
        for got, row in zip(batched.reshape(-1, n), rows.reshape(-1, n)):
            assert np.array_equal(got, fwht(row))


def test_fwht_rejects_bad_length():
    for n in (0, 3):
        with pytest.raises(ValueError):
            fwht(np.ones(n))


def test_xor_convolve_matches_brute_force_all_paths(monkeypatch):
    # a point mass against a full support is enumerated (n >= 2), two full
    # supports go through the WHT; the counts record which path each pair took
    transforms = []
    monkeypatch.setattr(dists, "fwht", lambda a: transforms.append(1) or fwht(a))
    rng = make_rng(15)
    counts = set()
    for _ in range(25):
        n = int(rng.integers(1, 7))
        X = random_dist(rng, n)
        Y = random_dist(rng, n)
        full = random_dist(rng, n, 1 << n)
        for A, B in ((X, Y), (Dist.point_mass(1, n), full), (full, full)):
            before = len(transforms)
            assert np.allclose(xor_convolve(A, B).dense(), brute_convolve(A, B),
                               atol=1e-12)
            counts.add(len(transforms) - before)
    # one forward transform (both rows, or one row squared) and one inverse
    assert counts == {0, 2}


def test_conv_entropy_clamps_rows_and_warns_on_deviation():
    rows = np.array([[0.5, 0.5 + 1e-6, -1e-6, 0.0],
                     [0.25, 0.25, 0.25, 0.25]])
    with pytest.warns(UserWarning, match="pre-clamp deviation"):
        h = conv_entropy(fwht(rows))
    p = np.array([0.5, 0.5 + 1e-6]) / (1.0 + 1e-6)
    assert h[0] == pytest.approx(-np.dot(p, np.log(p)), abs=1e-12)
    assert h[1] == pytest.approx(math.log(4.0), abs=1e-12)


def test_xor_convolve_identities():
    H = span([1, 2], 4)
    U = uniform_on_subgroup(H)
    # subgroup uniform is idempotent under convolution
    assert np.allclose(xor_convolve(U, U).dense(), U.dense(), atol=1e-12)
    X = Dist.from_dense([0.7, 0.1, 0.1, 0.1], 2)
    P = Dist.point_mass(3, 2)
    assert np.allclose(xor_convolve(X, P).dense(), X.translate(3).dense())
    with pytest.raises(ValueError):
        xor_convolve(X, Dist.point_mass(0, 3))


def test_pushforward_dist_matches_brute():
    rng = make_rng(16)
    for _ in range(15):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        X = random_dist(rng, n)
        cols = tuple(int(c) for c in rng.integers(0, 1 << m, size=n))
        pi = LinearMap(n, m, cols)
        ref = {}
        idx, w = X.items()
        for i, p in zip(idx, w):
            ref[pi.apply(int(i))] = ref.get(pi.apply(int(i)), 0.0) + p
        Y = pushforward_dist(X, pi)
        assert Y.n == m
        for k, v in ref.items():
            assert Y.weight(k) == pytest.approx(v, abs=1e-14)


def test_pushforward_large_out_dim_stays_sparse():
    X = Dist.point_mass(1, 2)
    pi = LinearMap(2, 14, (1, 2))
    Y = pushforward_dist(X, pi)
    assert Y.weight(1) == 1.0


# -- JointDist ----------------------------------------------------------------


def random_joint_pair_forms(rng, n, arity, labels):
    """The same joint read from its keys and from its table (when it fits)."""
    J = random_joint(rng, n, arity, labels)
    keys, w = J.items()
    sparse = JointDist(n, arity, labels, keys=keys, w=w)
    if n * arity <= 24:
        dense = JointDist(n, arity, labels, dense=J.dense())
        return sparse, dense
    return sparse, sparse


def test_joint_marginal_matches_brute():
    rng = make_rng(17)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        arity = int(rng.integers(2, 5))
        labels = list("ABCD")[:arity]
        S, D = random_joint_pair_forms(rng, n, arity, labels)
        axes = [int(a) for a in rng.permutation(arity)[: rng.integers(1, arity + 1)]]
        ref = {}
        for key, w in joint_table(S).items():
            sub = 0
            for j, a in enumerate(axes):
                sub |= ((key >> (a * n)) & ((1 << n) - 1)) << (j * n)
            ref[sub] = ref.get(sub, 0.0) + w
        for J in (S, D):
            got = joint_table(J.marginal(axes))
            assert set(got) == {k for k, v in ref.items() if v > 0}
            for k in got:
                assert got[k] == pytest.approx(ref[k], abs=1e-13)


def test_joint_condition_matches_brute():
    rng = make_rng(18)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        arity = int(rng.integers(2, 5))
        labels = list("ABCD")[:arity]
        S, D = random_joint_pair_forms(rng, n, arity, labels)
        a = int(rng.integers(0, arity))
        mask = (1 << n) - 1
        table = joint_table(S)
        vals = sorted({(k >> (a * n)) & mask for k in table})
        v = vals[0]
        ref = {}
        tot = 0.0
        for key, w in table.items():
            if (key >> (a * n)) & mask != v:
                continue
            low = key & ((1 << (a * n)) - 1)
            high = (key >> ((a + 1) * n)) << (a * n)
            ref[low | high] = ref.get(low | high, 0.0) + w
            tot += w
        for J in (S, D):
            C = J.condition(a, v)
            assert C.labels == tuple(labels[:a] + labels[a + 1:])
            got = joint_table(C)
            for k in ref:
                assert got[k] == pytest.approx(ref[k] / tot, abs=1e-12)


def test_joint_condition_zero_mass_raises():
    J = JointDist.from_mapping({(0, 0): 1.0}, 2, ["X", "Y"])
    with pytest.raises(ValueError):
        J.condition("Y", 3)


def test_joint_pushforward_matches_brute():
    rng = make_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        S, D = random_joint_pair_forms(rng, n, 3, ["A", "B", "C"])
        ref = {}
        for key, w in joint_table(S).items():
            a = key & ((1 << n) - 1)
            b = (key >> n) & ((1 << n) - 1)
            c = (key >> (2 * n)) & ((1 << n) - 1)
            out = (a ^ b) | (c << n)
            ref[out] = ref.get(out, 0.0) + w
        for J in (S, D):
            P = J.pushforward([["A", "B"], ["C"]])
            assert P.labels == ("A^B", "C")
            got = joint_table(P)
            for k, v in ref.items():
                if v > 0:
                    assert got[k] == pytest.approx(v, abs=1e-13)


def test_joint_entropy_calculus_against_brute():
    rng = make_rng(20)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        J = random_joint(rng, n, 3, ["A", "B", "C"])
        t = joint_table(J)

        def h(axes):
            acc = {}
            for key, w in t.items():
                sub = tuple((key >> (a * n)) & ((1 << n) - 1) for a in axes)
                acc[sub] = acc.get(sub, 0.0) + w
            return plain_entropy(acc.values())

        assert J.entropy() == pytest.approx(h((0, 1, 2)), abs=1e-12)
        assert J.entropy("B") == pytest.approx(h((1,)), abs=1e-12)
        assert J.cond_entropy("A", "C") == pytest.approx(
            h((0, 2)) - h((2,)), abs=1e-12)
        assert J.mutual_info("A", "B") == pytest.approx(
            h((0,)) + h((1,)) - h((0, 1)), abs=1e-12)
        assert J.cond_mutual_info("A", "B", "C") == pytest.approx(
            h((0, 2)) + h((1, 2)) - h((0, 1, 2)) - h((2,)), abs=1e-12)


def test_joint_axis_errors():
    J = JointDist.from_mapping({(0, 1): 1.0, (1, 0): 1.0}, 1, ["X", "Y"])
    with pytest.raises(ValueError):
        J.mutual_info("X", "X")
    with pytest.raises(ValueError, match="repeated axis"):
        J.cond_entropy("X", ["Y", "X"])
    with pytest.raises(ValueError, match="repeated axis"):
        J.cond_mutual_info("X", "Y", "Y")
    with pytest.raises(ValueError):
        J.marginal(["X", "X"])
    with pytest.raises(ValueError):
        J.entropy(5)
    with pytest.raises(ValueError):
        JointDist.from_mapping({(0,): 1.0}, 1, ["X", "X"])
    for bad in (-1, 1 << 4):   # keys of a 2-axis joint at n = 2 use 4 bits
        with pytest.raises(ValueError, match="key exceeds"):
            JointDist(2, 2, ["X", "Y"], keys=[0, bad], w=[1.0, 1.0])


def test_joint_slices_reconstruct_the_joint():
    rng = make_rng(21)
    J = random_joint(rng, 2, 3, ["A", "B", "C"])
    parts = J.slices("A", ["B", "C"])
    assert sum(p for _, p, _ in parts) == pytest.approx(1.0, abs=1e-12)
    t = joint_table(J)
    for (b, c), mass, law in parts:
        idx, w = law.items()
        assert abs(w.sum() - 1.0) < 1e-12
        for a, p in zip(idx, w):
            key = int(a) | (b << 2) | (c << 4)
            assert mass * p == pytest.approx(t[key], abs=1e-13)


def test_independent_product_and_joint_product(monkeypatch):
    X = Dist.from_dense([0.5, 0.5, 0, 0], 2)
    Y = Dist.from_dense([0.25, 0.25, 0.25, 0.25], 2)
    J = JointDist.independent_product([X, Y], ["X", "Y"])
    assert J.mutual_info("X", "Y") == pytest.approx(0.0, abs=1e-14)
    assert J.entropy() == pytest.approx(X.entropy() + Y.entropy(), abs=1e-12)
    assert np.allclose(J.marginal_dist("X").dense(), X.dense())
    P = joint_product(J, J)
    assert P.labels == ("X", "Y", "X'", "Y'")
    assert P.entropy() == pytest.approx(2 * J.entropy(), abs=1e-12)
    with pytest.raises(CostGuardExceeded, match="too large") as err:
        monkeypatch.setattr(dists, "PRODUCT_SUPPORT_CAP", 63)
        joint_product(J, J)
    assert (err.value.guard, err.value.size) == ("PRODUCT_SUPPORT_CAP", 64)
    with pytest.raises(ValueError, match="dimension mismatch") as err:
        joint_product(J, JointDist.from_mapping({(0, 1): 1.0}, 3, ["X", "Y"]))
    assert not isinstance(err.value, CostGuardExceeded)


def test_cross_runs_refuse_too_many_support_pairs(monkeypatch):
    # 8193^2 support pairs exceed PRODUCT_SUPPORT_CAP = 2^26: refused
    # before any pair is formed
    X = uniform_on(range(8193), 14)
    with pytest.raises(CostGuardExceeded, match="too large") as err:
        _cross_runs(X, X)
    assert (err.value.guard, err.value.size) == ("PRODUCT_SUPPORT_CAP", 8193 ** 2)
    # the cap itself is allowed
    monkeypatch.setattr(dists, "PRODUCT_SUPPORT_CAP", 20)
    Y, Z = uniform_on(range(4), 3), uniform_on(range(5), 3)
    assert len(_cross_runs(Y, Z)[0]) == 20
    with pytest.raises(CostGuardExceeded):
        _cross_runs(Z, Z)


def test_dense_bits_guards_are_typed():
    with pytest.raises(CostGuardExceeded, match="out of range") as err:
        Dist(25, idx=[0], w=[1.0])
    assert (err.value.guard, err.value.size) == ("DENSE_BITS", 25)
    with pytest.raises(ValueError, match="out of range") as err:
        Dist(-1, idx=[0], w=[1.0])
    assert not isinstance(err.value, CostGuardExceeded)
    J = JointDist(13, 2, ["X", "Y"], keys=[1], w=[1.0])
    with pytest.raises(CostGuardExceeded, match="too large for dense form") as err:
        J.dense()
    assert (err.value.guard, err.value.size) == ("DENSE_BITS", 26)
    with pytest.raises(CostGuardExceeded, match="too large for dense form") as err:
        JointDist(9, 3, ["X", "Y", "Z"], dense=np.ones(8))
    assert (err.value.guard, err.value.size) == ("DENSE_BITS", 27)


def test_random_generators_refuse_before_drawing():
    rng = make_rng(5)
    state = rng.bit_generator.state
    for n in (25, 30):
        with pytest.raises(CostGuardExceeded, match=f"dimension {n} out of range") as err:
            random_dist(rng, n)
        assert (err.value.guard, err.value.size) == ("DENSE_BITS", n)
    with pytest.raises(ValueError, match="out of range"):
        random_dist(rng, -1)
    for n, arity in ((21, 3), (32, 2)):
        with pytest.raises(ValueError, match=r"packed keys need n\*arity <= 62"):
            random_joint(rng, n, arity, ["A", "B", "C"][:arity])
    assert rng.bit_generator.state == state   # nothing was drawn


def test_random_joint_refuses_a_one_key_shape_before_drawing():
    rng = make_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n=0, arity=2 packs one key"):
        random_joint(rng, 0, 2, ["A", "B"])
    assert rng.bit_generator.state == state   # nothing was drawn
    J = random_joint(rng, 0, 2, ["A", "B"], support_size=3)
    assert J.items()[0].tolist() == [0]


def test_xor_convolve_of_equal_operands_takes_one_transform(monkeypatch):
    rng = make_rng(8)
    idx, w = np.arange(48), rng.random(48)
    X, Xc, Y = Dist(6, idx=idx, w=w), Dist(6, idx=idx, w=w), random_dist(rng, 6, 48)
    shapes = []

    def counted(a):
        shapes.append(np.shape(a))
        return fwht(a)
    monkeypatch.setattr(dists, "fwht", counted)
    XX, XXc = xor_convolve(X, X), xor_convolve(X, Xc)
    xor_convolve(X, Y)
    # forward then inverse transform per call; only X, Y needs a stack
    assert shapes == [(64,), (64,), (64,), (64,), (2, 64), (64,)]
    assert np.array_equal(XX.items()[0], XXc.items()[0])
    assert np.array_equal(XX.items()[1], XXc.items()[1])


def test_fibres_cut_the_conditional_laws_in_value_order():
    rng = make_rng(6)
    idx = rng.integers(0, 16, 40)
    vals = rng.integers(0, 5, 40)
    w = rng.random(40)
    col, cw, cut = _fibres(vals, idx, w)
    assert len(cut) - 1 == len(np.unique(vals))
    for v, lo, hi in zip(np.unique(vals), cut[:-1], cut[1:]):
        on = vals == v
        # the entries of one value, in input order
        assert np.array_equal(col[lo:hi], idx[on]) and np.array_equal(cw[lo:hi], w[on])


@pytest.mark.parametrize("bits", [4, 12, 24, 30])
def test_group_table_and_sort_paths_agree_bitwise(bits, monkeypatch):
    # 2000 draws from 300 values: the table rule holds at 4 and 12 bits and
    # fails at 24 and 30; the reference adds in input order like both paths
    rng = make_rng(bits)
    pool = rng.choice(1 << bits, size=min(300, 1 << bits), replace=False)
    keys = rng.choice(pool, size=2000).astype(np.int64)
    w = rng.exponential(size=len(keys))
    ref = {}
    for k, x in zip(keys.tolist(), w.tolist()):
        ref[k] = ref.get(k, 0.0) + x
    want_keys = np.array(sorted(ref), dtype=np.int64)
    want_w = np.array([ref[k] for k in sorted(ref)])
    slacks = [dists.TABLE_SLACK, 0]            # the rule's choice, then sort
    if bits <= 12:
        slacks.append(1 << bits)               # the table at any count
    for slack in slacks:
        monkeypatch.setattr(dists, "TABLE_SLACK", slack)
        ks, ws = _group(keys, w, bits)
        assert ks.dtype == np.int64
        assert np.array_equal(ks, want_keys)
        assert np.array_equal(ws, want_w)      # bitwise, not approximately


def test_joint_from_table_equals_joint_from_keys_bitwise():
    rng = make_rng(23)
    for n, arity in ((1, 2), (2, 3), (3, 4), (4, 2), (6, 3), (5, 4)):
        labels = list("ABCD")[:arity]
        J = random_joint(rng, n, arity, labels)
        keys, w = J.items()
        by_keys = JointDist(n, arity, labels, keys=keys, w=w)
        by_table = JointDist(n, arity, labels, dense=J.dense())
        for a, b in zip(by_keys.items(), by_table.items()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(by_table.dense(), by_keys.dense())


def test_to_dist_requires_arity_one():
    J = JointDist.from_mapping({(0, 1): 1.0}, 2, ["X", "Y"])
    with pytest.raises(ValueError):
        J.to_dist()
    assert J.marginal(["Y"]).to_dist().weight(1) == 1.0


def test_joint_json_round_trip():
    rng = make_rng(22)
    J = random_joint(rng, 3, 2, ["X", "Y"])
    back = JointDist.from_json(json.loads(json.dumps(J.to_json())))
    assert back.labels == J.labels
    assert joint_table(back) == pytest.approx(joint_table(J))


def test_dist_file_round_trips(tmp_path):
    X = Dist.from_sparse([1, 6], [0.25, 0.75], n=3)
    p = tmp_path / "x.json"
    p.write_text(json.dumps(X.to_json()))
    assert np.allclose(load_dist(str(p)).dense(), X.dense())
    q = tmp_path / "x.csv"
    q.write_text("\n".join(str(v) for v in X.dense()))
    assert np.allclose(load_dist(str(q)).dense(), X.dense())
    with pytest.raises(ValueError):
        dense_from_csv("1, 2, 3")


@pytest.mark.parametrize("bad, message", [(math.nan, "negative or NaN weight"),
                                          (math.inf, "infinite total weight"),
                                          (-math.inf, "negative or NaN weight")])
def test_a_weight_that_is_not_finite_raises(bad, message, tmp_path):
    # on the table path and on the keys path alike: a NaN is not dropped as a
    # zero weight, and an infinity does not normalize to NaN weights
    table = [1.0, bad, 0.0, 0.0]
    for read in (lambda: Dist(2, dense=table),
                 lambda: Dist(2, idx=[0, 1], w=table[:2]),
                 lambda: JointDist(1, 2, ["X", "Y"], dense=table),
                 lambda: JointDist(1, 2, ["X", "Y"], keys=[0, 3], w=table[:2])):
        with pytest.raises(ValueError, match=message):
            read()
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"dim": 2, "entries": [[0, 1.0], [1, bad]]}))
    q = tmp_path / "x.csv"
    q.write_text("\n".join(str(v) for v in table))
    for path in (p, q):
        with pytest.raises(ValueError, match=message):
            load_dist(str(path))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_convolution_entropy_never_decreases(n, seed):
    # H[X+Y] >= max(H[X], H[Y]) for independent summands in a group
    rng = make_rng(seed)
    X = random_dist(rng, n)
    Y = random_dist(rng, n)
    h = entropy(xor_convolve(X, Y))
    assert h >= max(X.entropy(), Y.entropy()) - 1e-10
    assert h <= n * math.log(2) + 1e-12
