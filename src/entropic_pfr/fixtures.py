"""Canonical input families for the descent demos and stress tests.

Three regimes, in increasing order of difficulty for the move classes:

* a dense random subset of a subgroup, where summing a distribution with
  itself smooths straight back to uniform on the subgroup;
* a union of a few cosets in general position, where conditioning on a sum
  value snaps each side onto a single coset in one step while plain sums
  only thicken the union;
* a sparse random subsample of such a union, where sums and fibres all
  stall near the start and only an endgame slice of the four-fold sum
  makes progress.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .dists import Dist, uniform_on
from .groups import SubgroupBasis, span
from .randgen import _keep_some

__all__ = [
    "dense_subgroup_subset",
    "generic_coset_unions",
    "sparse_union_pair",
    "demo_pair",
    "DEMO_N",
    "DEMO_SEEDS",
    "DEMO1_DENSITY",
]

DEMO_N = 6
# Frozen inputs for the three demos; demo 2 is deterministic and ignores
# its seed. Chosen so the first accepted move lands on the class each
# construction is meant to showcase, with the endgame margin checked at
# far better than the acceptance tolerance.
DEMO_SEEDS = {1: 3, 2: 0, 3: 5}
DEMO1_DENSITY = 0.75


def dense_subgroup_subset(rng: np.random.Generator, n: int = DEMO_N,
                          subgroup_rank: int = 5,
                          density: float = 0.5) -> Tuple[List[int], SubgroupBasis]:
    """Random subset of a fixed-rank subgroup, each point kept independently.

    Both reference distributions are uniform on the same subset; the
    doubling of the subset is near 1/density.
    """
    H = span([1 << i for i in range(subgroup_rank)], n)
    members = H.enumerate()
    keep = rng.random(len(members)) < density
    pts = [m for m, k in zip(members, keep) if k]
    if 0 not in pts:
        pts.append(0)
    return sorted(pts), H


def generic_coset_unions(n: int = DEMO_N) -> Tuple[List[int], List[int], SubgroupBasis]:
    """Two unions of three cosets of one subgroup, in general position.

    The subgroup spans the two low bits; the first union's representatives
    move in bits 2-3, the second's in bits 4-5, so the two difference sets
    meet only at zero and all nine cross sums land in distinct cosets. Any
    union of two cosets would itself be a coset of a larger subgroup, which
    is why three is the smallest interesting count.
    """
    if n < 6:
        raise ValueError("need at least six bits")
    H = span([0b01, 0b10], n)
    xs = [0, 0b000100, 0b001000]
    ys = [0, 0b010000, 0b100000]
    members = H.enumerate()
    A1 = sorted(x ^ h for x in xs for h in members)
    A2 = sorted(y ^ h for y in ys for h in members)
    return A1, A2, H


def sparse_union_pair(rng: np.random.Generator, n: int = DEMO_N,
                      keep_fraction: float = 0.5,
                      ) -> Tuple[List[int], List[int], SubgroupBasis]:
    """Random subsamples of the generic coset unions, one draw per point.

    Every coset keeps at least one point so the union structure survives;
    the subsampling destroys the exact coset laws that sums and fibres
    exploit, which is what forces the endgame at the start of descent.
    """
    A1, A2, H = generic_coset_unions(n)
    size = H.span_size()
    out = []
    for A in (A1, A2):
        a = np.array(A, dtype=np.int64)
        kept = [_keep_some(rng, a[lo:lo + size], keep_fraction)
                for lo in range(0, len(a), size)]
        out.append(sorted(np.concatenate(kept).tolist()))
    return out[0], out[1], H


def demo_pair(which: int, n: int = DEMO_N,
              seed: Optional[int] = None) -> Tuple[Dist, Dist]:
    """The frozen (X01, X02) pair for demo 1, 2 or 3."""
    if seed is None:
        seed = DEMO_SEEDS[which]
    rng = np.random.default_rng(seed)
    if which == 1:
        pts, _ = dense_subgroup_subset(rng, n, density=DEMO1_DENSITY)
        U = uniform_on(pts, n)
        return U, U
    if which == 2:
        A1, A2, _ = generic_coset_unions(n)
        return uniform_on(A1, n), uniform_on(A2, n)
    if which == 3:
        A1, A2, _ = sparse_union_pair(rng, n)
        return uniform_on(A1, n), uniform_on(A2, n)
    raise ValueError("demo index must be 1, 2 or 3")
