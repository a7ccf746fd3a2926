"""Seeded inputs for the benchmark, generated without the package.

A set instance is a union of cosets of a subgroup of F_2^n, optionally
subsampled. Every instance of one shape is the image of one fixed pattern
in F_2^r (r = rank + cosets - 1, the intrinsic dimension) under an
injective affine map F_2^r -> F_2^n drawn from the run's seed. The seed
therefore changes the subgroup, the coset representatives and every
coordinate, while the work a solve does stays the same from seed to seed;
the bounds in BENCHMARK.json rely on that.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Patterns are drawn from this stream, never from the run's seed.
PATTERN_SEED = 20231109


@dataclass(frozen=True)
class Shape:
    n: int
    rank: int
    cosets: int
    keep: float = 1.0

    @property
    def r(self) -> int:
        return self.rank + self.cosets - 1


@dataclass(frozen=True)
class Instance:
    shape: Shape
    points: Tuple[int, ...]

    def describe(self) -> dict:
        s = self.shape
        return {"n": s.n, "size": len(self.points), "rank": s.rank,
                "cosets": s.cosets, "keep": s.keep,
                "r": gf2_rank([p ^ self.points[0] for p in self.points])}


def reduce(x: int, basis: Dict[int, int]) -> int:
    """x with every pivot bit of an echelon basis {pivot: row} cleared.

    The result is the same for every element of the coset x + span(basis).
    """
    for lead in sorted(basis, reverse=True):
        if x >> lead & 1:
            x ^= basis[lead]
    return x


def echelon(vectors: Sequence[int]) -> Dict[int, int]:
    """An echelon basis {pivot bit: row} of the span of vectors over GF(2)."""
    basis: Dict[int, int] = {}
    for v in vectors:
        x = reduce(v, basis)
        if x:
            basis[x.bit_length() - 1] = x
    return basis


def gf2_rank(vectors: Sequence[int]) -> int:
    return len(echelon(vectors))


def _independent(rng: np.random.Generator, n: int, count: int) -> List[int]:
    out: List[int] = []
    while len(out) < count:
        x = int(rng.integers(1, 1 << n))
        if gf2_rank(out + [x]) == len(out) + 1:
            out.append(x)
    return out


def pattern(shape: Shape) -> List[int]:
    """The shape's points in F_2^r: H on the low rank bits, reps on the rest.

    Each coset keeps exactly round(keep * 2^rank) points; the draw is
    repeated until the points still span F_2^r.
    """
    rng = np.random.default_rng([PATTERN_SEED, shape.rank, shape.cosets,
                                 int(shape.keep * 1000)])
    size = 1 << shape.rank
    keep = max(1, round(shape.keep * size))
    reps = [0] + [1 << (shape.rank + i) for i in range(shape.cosets - 1)]
    while True:
        pts = [rep | int(h) for rep in reps
               for h in rng.choice(size, size=keep, replace=False)]
        if gf2_rank(pts) == shape.r:
            return sorted(pts)


def embed(rng: np.random.Generator, shape: Shape,
          pts: Sequence[int]) -> Tuple[int, ...]:
    """Image of pattern points under a random injective affine map."""
    cols = np.array(_independent(rng, shape.n, shape.r), dtype=np.int64)
    shift = int(rng.integers(0, 1 << shape.n))
    bits = (np.asarray(pts, dtype=np.int64)[:, None]
            >> np.arange(shape.r)) & 1
    img = np.bitwise_xor.reduce(bits * cols, axis=1) ^ shift
    return tuple(sorted(int(x) for x in img))


def corpus(seed: int, shapes: Sequence[Shape], passes: int) -> List[List[Instance]]:
    """`passes` lists of one instance per shape, all drawn from `seed`."""
    rng = np.random.default_rng(seed)
    pats = {s: pattern(s) for s in shapes}
    return [[Instance(s, embed(rng, s, pats[s])) for s in shapes]
            for _ in range(passes)]
