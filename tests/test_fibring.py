"""The fibring decomposition is an exact identity; every piece is checked."""
import numpy as np
import pytest

from entropic_pfr import fibring
from entropic_pfr.dists import CostGuardExceeded, Dist, uniform_on
from entropic_pfr.fibring import (FibringReport, cor_sum_pair,
                                  fibring_decompose, pair_dist)
from entropic_pfr.groups import LinearMap
from entropic_pfr.randgen import make_rng, random_dist, random_linear_map
from entropic_pfr.ruzsa import rdist


def test_residual_vanishes_on_random_inputs():
    rng = make_rng(40)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        Z1 = random_dist(rng, n)
        Z2 = random_dist(rng, n)
        pi = random_linear_map(rng, n, m)
        rep = fibring_decompose(Z1, Z2, pi)
        assert abs(rep.residual) <= 1e-10
        assert rep.d_total == pytest.approx(rdist(Z1, Z2), abs=1e-12)


def test_pieces_are_individually_nonnegative():
    rng = make_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        rep = fibring_decompose(random_dist(rng, n), random_dist(rng, n),
                                random_linear_map(rng, n, 2))
        proj, fib, info = rep.pieces()
        assert proj >= -1e-12 and fib >= -1e-12 and info >= -1e-10


def test_zero_map_pushes_everything_into_the_fibres():
    rng = make_rng(42)
    Z1, Z2 = random_dist(rng, 5), random_dist(rng, 5)
    rep = fibring_decompose(Z1, Z2, LinearMap.zero(5, 1))
    assert rep.d_projected == pytest.approx(0.0, abs=1e-12)
    assert rep.info_term == pytest.approx(0.0, abs=1e-12)
    assert rep.d_fibre == pytest.approx(rep.d_total, abs=1e-11)


def test_identity_map_pushes_everything_into_the_projection():
    rng = make_rng(43)
    Z1, Z2 = random_dist(rng, 5), random_dist(rng, 5)
    rep = fibring_decompose(Z1, Z2, LinearMap.identity(5))
    assert rep.d_projected == pytest.approx(rep.d_total, abs=1e-12)
    assert rep.d_fibre == pytest.approx(0.0, abs=1e-12)
    assert rep.info_term == pytest.approx(0.0, abs=1e-10)


def test_pair_dist_marginals_and_entropy():
    rng = make_rng(44)
    X, Y = random_dist(rng, 4), random_dist(rng, 4)
    Z = pair_dist(X, Y)
    assert Z.n == 8
    assert Z.entropy() == pytest.approx(X.entropy() + Y.entropy(), abs=1e-12)
    # low half carries X
    idx, w = Z.items()
    lowmass = {}
    for k, p in zip(idx, w):
        lowmass[int(k) & 15] = lowmass.get(int(k) & 15, 0.0) + p
    for k, p in lowmass.items():
        assert p == pytest.approx(X.weight(k), abs=1e-12)
    with pytest.raises(ValueError):
        pair_dist(X, random_dist(rng, 5))


def test_cor_sum_pair_totals_and_residual():
    rng = make_rng(45)
    for _ in range(10):
        Ys = [random_dist(rng, 4) for _ in range(4)]
        rep = cor_sum_pair(*Ys)
        assert rep.d_total == pytest.approx(
            rdist(Ys[0], Ys[1]) + rdist(Ys[2], Ys[3]), abs=1e-11)
        assert abs(rep.residual) <= 1e-10


def test_cor_sum_pair_on_coset_inputs_is_all_zero():
    U = uniform_on([0, 3], 4)   # coset of {0, 3}
    rep = cor_sum_pair(U, U.translate(4), U, U.translate(8))
    assert rep.d_total == pytest.approx(0.0, abs=1e-12)
    for piece in rep.pieces():
        assert piece == pytest.approx(0.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    rng = make_rng(46)
    with pytest.raises(ValueError) as err:
        fibring_decompose(random_dist(rng, 4), random_dist(rng, 5),
                          LinearMap.identity(4))
    assert not isinstance(err.value, CostGuardExceeded)
    with pytest.raises(ValueError) as err:
        fibring_decompose(random_dist(rng, 4), random_dist(rng, 4),
                          LinearMap.identity(5))
    assert not isinstance(err.value, CostGuardExceeded)


def test_cost_guards_raise_their_own_type(monkeypatch):
    # 24 + 2 * 20 key bits: refused before the 2^24-entry map table is built
    Z = Dist.point_mass(3, 24)
    pi = LinearMap(24, 20, tuple(1 << (b % 20) for b in range(24)))
    with pytest.raises(CostGuardExceeded, match="62 bits") as err:
        fibring_decompose(Z, Z, pi)
    assert (err.value.guard, err.value.size) == ("fibring key bits", 64)
    monkeypatch.setattr(fibring, "SUPPORT_CAP", 11)
    Z1, Z2 = uniform_on(range(3), 3), uniform_on(range(4), 3)
    with pytest.raises(CostGuardExceeded, match="too large") as err:
        fibring_decompose(Z1, Z2, LinearMap.identity(3))
    assert (err.value.guard, err.value.size) == ("SUPPORT_CAP", 12)


def test_pair_dist_guard_is_typed():
    X = Dist.point_mass(1, 13)
    with pytest.raises(CostGuardExceeded, match="dense/key budget") as err:
        pair_dist(X, X)
    assert (err.value.guard, err.value.size) == ("pair_dist bits", 26)
    assert pair_dist(Dist.point_mass(1, 12), Dist.point_mass(2, 12)).n == 24


def test_report_is_plain_data():
    rep = FibringReport(1.0, 0.5, 0.25, 0.25, 0.0)
    assert rep.pieces() == (0.5, 0.25, 0.25)
