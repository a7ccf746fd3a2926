"""Seeded random objects for tests, demos and the CLI.

Everything funnels through numpy's PCG64 so a fixed seed reproduces a run
bit for bit.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .dists import Dist, JointDist
from .groups import LinearMap, SubgroupBasis, span

__all__ = [
    "make_rng",
    "random_dist",
    "random_joint",
    "random_subgroup",
    "random_linear_map",
    "random_coset_union",
]


def make_rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_dist(rng: np.random.Generator, n: int,
                support_size: Optional[int] = None) -> Dist:
    """Exponential weights, normalized, on a uniform random support.

    support_size defaults to a uniform draw from [1, 2^n].
    """
    size = 1 << n
    if support_size is None:
        support_size = int(rng.integers(1, size + 1))
    if not 1 <= support_size <= size:
        raise ValueError("support size out of range")
    idx = rng.choice(size, size=support_size, replace=False).astype(np.int64)
    w = rng.exponential(size=support_size)
    w[w <= 0] = 1.0
    return Dist(n, idx=idx, w=w)


def random_joint(rng: np.random.Generator, n: int, arity: int,
                 labels: Sequence[str],
                 support_size: Optional[int] = None) -> JointDist:
    """Exponential weights on a random support of packed tuples."""
    size = 1 << (n * arity)
    if support_size is None:
        support_size = int(rng.integers(2, min(size, 4096) + 1))
    keys = rng.choice(size, size=min(support_size, size), replace=False).astype(np.int64)
    w = rng.exponential(size=len(keys))
    w[w <= 0] = 1.0
    return JointDist(n, arity, labels, keys=keys, w=w)


def random_subgroup(rng: np.random.Generator, n: int, rank: int) -> SubgroupBasis:
    """Random subgroup of F_2^n of exactly the requested rank."""
    if not 0 <= rank <= n:
        raise ValueError("rank out of range")
    basis = span([], n)
    while basis.rank < rank:
        x = int(rng.integers(1, 1 << n))
        if not basis.contains(x):
            basis = span(list(basis.rows) + [x], n)
    return basis


def random_linear_map(rng: np.random.Generator, in_dim: int, out_dim: int) -> LinearMap:
    cols = tuple(int(rng.integers(0, 1 << out_dim)) for _ in range(in_dim))
    return LinearMap(in_dim, out_dim, cols)


def _keep_some(rng: np.random.Generator, block: np.ndarray, p: float) -> np.ndarray:
    """block with each point kept with probability p, one draw per point;
    if no point is kept, one drawn uniformly is."""
    keep = rng.random(len(block)) < p
    if not keep.any():
        keep[rng.integers(0, len(block))] = True
    return block[keep]


def random_coset_union(rng: np.random.Generator, n: int, subgroup_rank: int,
                       num_cosets: int, keep_fraction: float = 1.0) -> List[int]:
    """A union of cosets of a random subgroup, optionally subsampled.

    Representatives are drawn in distinct classes of the quotient. With
    keep_fraction < 1 each coset independently keeps each point with that
    probability (at least one point per coset survives).
    """
    H = random_subgroup(rng, n, subgroup_rank)
    if num_cosets > (1 << (n - H.rank)):
        raise ValueError("more cosets requested than the quotient holds")
    reps: Dict[int, int] = {}   # coset representative -> first draw in it
    while len(reps) < num_cosets:
        x = int(rng.integers(0, 1 << n))
        reps.setdefault(H.reduce(x), x)
    members = H.enumerate_array()
    pts: List[int] = []
    for r in reps.values():
        coset = r ^ members
        if keep_fraction < 1.0:
            coset = _keep_some(rng, coset, keep_fraction)
        pts.extend(coset.tolist())
    return sorted(pts)   # distinct cosets: no point repeats
