"""Exact arithmetic over F_2^n: elements, spans, subgroup bases, linear maps.

Elements are plain Python ints used as n-bit words; addition is XOR and every
element is its own inverse. The ambient dimension n travels alongside in each
container instead of inside the elements, so 2^n-length tables stay cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "CostGuardExceeded",
    "SubgroupBasis",
    "LinearMap",
    "span",
    "parse_elem",
    "format_elem",
]


class CostGuardExceeded(ValueError):
    """Work refused by the cost guard `guard` at the requested `size`."""
    def __init__(self, guard: str, size: int, message: str):
        super().__init__(message)
        self.guard, self.size = guard, size


ENUMERATE_RANK = 24  # enumerate and enumerate_array list at most 2^24 members


def _rref(v: np.ndarray) -> Tuple[int, ...]:
    """Reduced row-echelon basis over GF(2) of the span of the nonnegative
    int64 words v, leading bits strictly decreasing."""
    rows: List[int] = []
    # the largest word is the next row; every word is at most it, so the
    # words that carry its leading bit are those it shifts to 1, and
    # clearing that bit from them leaves every word below it
    top = int(v.max(initial=0))
    while top:
        rows.append(top)
        v = v ^ (v >> (top.bit_length() - 1)) * top
        top = int(v.max())
    # back-substitute so each pivot appears in exactly one row
    for i, r in enumerate(rows):
        pivot = 1 << (r.bit_length() - 1)
        for j in range(i):
            if rows[j] & pivot:
                rows[j] ^= r
    return tuple(rows)


@dataclass(frozen=True)
class SubgroupBasis:
    """A subgroup of F_2^n held as a reduced row-echelon basis.

    rows are linearly independent with unique, strictly decreasing leading
    bits; two subgroups are equal iff their canonical bases are equal.
    """

    ambient_dim: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(r >= (1 << self.ambient_dim) for r in self.rows):
            raise ValueError("basis row exceeds ambient dimension")
        # the form _rref returns: nonzero rows, leading bits strictly
        # decreasing, and each pivot bit in its own row alone
        leads = [r.bit_length() - 1 for r in self.rows]
        pivots = sum(1 << b for b in leads if b >= 0)
        if (not all(r > 0 and r & pivots == 1 << b for r, b in zip(self.rows, leads))
                or any(a <= b for a, b in zip(leads, leads[1:]))):
            raise ValueError("rows are not in canonical reduced form")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def span_size(self) -> int:
        return 1 << self.rank

    def reduce(self, x):
        """Canonical coset representatives (of an int or an int64 array).

        Each row clears its pivot bit; each pivot sits in exactly one row,
        so the order of the rows does not matter. The residue is the
        smallest member of x + span, since any other member differs by a
        row whose leading pivot it must then carry.
        """
        outside = (x < 0) | (x >> self.ambient_dim)
        if outside.any() if isinstance(x, np.ndarray) else outside:
            raise ValueError("element exceeds ambient dimension")
        for r in self.rows:
            x = x ^ ((x >> (r.bit_length() - 1)) & 1) * r
        return x

    def contains(self, x):
        """Membership, elementwise on arrays: the coset representative is 0."""
        return self.reduce(x) == 0

    def enumerate(self) -> List[int]:
        """Same as enumerate_array(), as a list of ints."""
        return self.enumerate_array().tolist()

    def enumerate_array(self) -> np.ndarray:
        """All 2^rank members, ascending, as an int64 array.

        Index i selects basis rows by its bits, lowest bit picking the row
        with the smallest pivot; distinct pivots make this order ascending.
        """
        self._enumerate_guard()
        out = np.zeros(1, dtype=np.int64)
        for r in reversed(self.rows):
            out = np.concatenate([out, out ^ r])
        return out

    def _enumerate_guard(self) -> None:
        if self.rank > ENUMERATE_RANK:
            raise CostGuardExceeded("ENUMERATE_RANK", self.rank,
                                    "rank too large to enumerate")

    def coords(self, x):
        """Coordinates in F_2^rank of span members (ints or int64 arrays).

        Bit k is the member's bit at the k-th lowest pivot. Each pivot sits
        in exactly one row, so that bit says whether the row is in the sum:
        exact on the span, and order preserving there, since the highest
        pivot where two members differ is also their highest differing bit.
        """
        out = x & 0
        for k, r in enumerate(reversed(self.rows)):
            out |= ((x >> (r.bit_length() - 1)) & 1) << k
        return out

    def from_coords(self, c):
        """Span members from coordinates: the XOR of the rows c selects."""
        out = c & 0
        for k, r in enumerate(reversed(self.rows)):
            out ^= ((c >> k) & 1) * r
        return out

    def shrink_to_size(self, bound: int) -> "SubgroupBasis":
        """Drop highest-pivot rows until the span has at most `bound` members.

        Any deterministic deletion rule gives a subgroup of the input; highest
        pivot first keeps the result reproducible.
        """
        if bound < 1:
            raise ValueError("bound must be >= 1")
        rows = self.rows
        while (1 << len(rows)) > bound:
            rows = rows[1:]
        return SubgroupBasis(self.ambient_dim, rows)


def span(elems: Union[Sequence[int], np.ndarray], n: int) -> SubgroupBasis:
    """RREF basis of the GF(2) span of `elems` (ints or an int64 array)
    inside F_2^n, n <= 62."""
    if n > 62:
        raise ValueError("span needs n <= 62: elements are int64 words")
    try:
        v = np.asarray(elems, dtype=np.int64)
    except OverflowError:
        raise ValueError("element exceeds ambient dimension") from None
    if (v >> n).any():   # a negative word shifts to -1
        raise ValueError("element exceeds ambient dimension")
    return SubgroupBasis(n, _rref(v))


@dataclass(frozen=True)
class LinearMap:
    """A GF(2)-linear map F_2^in_dim -> F_2^out_dim.

    cols[b] is the image of the b-th standard basis vector, so
    apply(x) = XOR of cols[b] over the set bits b of x.
    """

    in_dim: int
    out_dim: int
    cols: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cols) != self.in_dim:
            raise ValueError("need one image per input bit")
        if any(c >= (1 << self.out_dim) for c in self.cols):
            raise ValueError("column image exceeds output dimension")

    def apply(self, x: int) -> int:
        y = 0
        b = 0
        while x:
            if x & 1:
                y ^= self.cols[b]
            x >>= 1
            b += 1
        return y

    def table(self) -> np.ndarray:
        """Images of all 2^in_dim inputs, built by linearity in O(2^in_dim)."""
        out = np.zeros(1, dtype=np.int64)
        for c in self.cols:
            out = np.concatenate([out, out ^ c])
        return out

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(n, n, tuple(1 << b for b in range(n)))

    @staticmethod
    def zero(n: int, out_dim: int = 0) -> "LinearMap":
        return LinearMap(n, out_dim, (0,) * n)

    @staticmethod
    def pair_sum(n: int) -> "LinearMap":
        """(x, y) on 2n bits (low bits = x) mapped to x ^ y on n bits."""
        cols = tuple((1 << b) for b in range(n)) * 2
        return LinearMap(2 * n, n, cols)


def parse_elem(text: str, n: int) -> int:
    """Parse an element written as '0b0101', '0x5' or a decimal string."""
    text = text.strip()
    x = int(text, 0)
    if x < 0 or x >= (1 << n):
        raise ValueError(f"element {text!r} out of range for dimension {n}")
    return x


def format_elem(x: int, n: int, style: str = "bin") -> str:
    if style == "bin":
        return format(x, f"#0{n + 2}b")
    if style == "hex":
        return format(x, "#x")
    raise ValueError(f"unknown element format {style!r}")
