"""Probability distributions on F_2^n and its small powers.

Entropy calculus (joint/conditional entropy, mutual information), XOR
convolution through the fast Walsh-Hadamard transform, pushforwards under
GF(2)-linear maps, and conditioning. Natural logarithms throughout.

A Dist on F_2^n and a JointDist over (F_2^n)^k each have one
representation: their support, ascending distinct int64 keys, and the
positive weights of those keys. A JointDist packs its k coordinates into one
key, axis 0 in the lowest n bits. Both read their support through one
reader (_read), from a dense table or from keys with weights; a table is
only an input format and the export of dense().
"""
from __future__ import annotations

import json
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .groups import CostGuardExceeded, LinearMap, SubgroupBasis

__all__ = [
    "CostGuardExceeded",
    "Dist",
    "JointDist",
    "fwht",
    "uniform_on",
    "uniform_on_subgroup",
    "entropy",
    "xor_convolve",
    "pushforward_dist",
    "joint_product",
    "load_dist",
]

# Dense tables are capped at 2^24 entries: a dense Dist, the table a JointDist
# reads or writes, and the counting table of _group. JointDist keys are
# int64, so n*k <= 62.
DENSE_BITS = 24
TABLE_SLACK = 8  # _group counts into a table of at most this many entries per key
ENTROPY_FLOOR = 1e-15  # entries below this fraction of max count as zero
WHT_CLAMP_WARN = 1e-9  # pre-clamp negative mass worth reporting
PRODUCT_SUPPORT_CAP = 1 << 26  # joint_product, _cross_runs and the endgame refuse more work


def fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two).

    Unnormalized: applying twice multiplies by the length. The result is a
    new C-contiguous float64 array; the input is not modified.

    The arithmetic is fixed: radix-2 butterflies (lo + hi, lo - hi) in
    stages h = 1, 2, 4, ..., each entry the float64 sum or difference of
    two entries of the stage before. They run in constant geometry: each
    stage reads entries 2k and 2k + 1 of every row and writes lo + hi to k
    and lo - hi to k + n/2, two numpy calls per stage in one row layout.
    That pairs the operands the in-place stage h pairs, so the bits are
    those of the in-place stages. No butterfly reads another row, so
    every row's bits are those of its own 1-D transform, whatever the rows
    beside it. The batched distance kernel (ruzsa._rdists) relies on that
    to cut its stacks of dense rows, references included, wherever
    BATCH_ELEMS falls, and to transform each distinct law once, sharing its
    row with every equal law, as does xor_convolve for equal operands.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    if n == 1:
        return a.copy()
    out = np.empty(a.shape)
    src, res = a.reshape(-1, n), out.reshape(-1, n)
    spare = np.empty(res.shape)
    half, stages = n // 2, n.bit_length() - 1
    for s in range(stages):
        # alternate between res and spare so that the last stage writes res
        dst = (res, spare)[(stages - 1 - s) % 2]
        lo, hi = src[:, 0::2], src[:, 1::2]
        np.add(lo, hi, out=dst[:, :half])
        np.subtract(lo, hi, out=dst[:, half:])
        src = dst
    return out


def _entropy_weights(w: np.ndarray) -> float:
    """Sum of -p log p with the zero/rounding policy applied."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        return 0.0
    m = w.max()
    if m <= 0.0:
        return 0.0
    live = w[w > ENTROPY_FLOOR * m]
    return float(-np.dot(live, np.log(live)))


def _entropy_rows(w: np.ndarray) -> np.ndarray:
    """Row-wise _entropy_weights; masks where it compacts, cheaper on many
    rows. Overwrites w: its entries at the floor become 1.0."""
    np.copyto(w, 1.0, where=w <= ENTROPY_FLOOR * w.max(axis=-1, keepdims=True))
    return -np.einsum("...i,...i->...", w, np.log(w))


def _clean_wht_output(spec: np.ndarray, context: str) -> np.ndarray:
    """Inverse transform of each row of spec; entries at or below ENTROPY_FLOOR
    of the row maximum (round-off negatives included) become zero, and each
    row is renormalized to mass one."""
    w = fwht(spec)
    w /= w.shape[-1]
    neg = float(w.min())
    if neg < -WHT_CLAMP_WARN:
        warnings.warn(f"{context}: pre-clamp deviation {-neg:.3e} exceeds {WHT_CLAMP_WARN:.0e}")
    w[w <= ENTROPY_FLOOR * w.max(axis=-1, keepdims=True)] = 0.0
    w /= w.sum(axis=-1, keepdims=True)
    return w


def conv_entropy(spec: np.ndarray) -> np.ndarray:
    """Entropies of the laws whose spectra are the rows of spec."""
    return _entropy_rows(_clean_wht_output(spec, "conv_entropy"))


def _group(keys: np.ndarray, w: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Accumulate the positive weights sharing a key, keys in [0, 2^bits).

    Returns the distinct keys ascending and their summed weights. Counts
    into a 2^bits table when it fits under DENSE_BITS and has at most
    TABLE_SLACK entries per key, and sorts otherwise. Both paths add each
    key's weights one by one in input order, so they agree bitwise.
    """
    if bits <= DENSE_BITS and (1 << bits) <= TABLE_SLACK * len(keys):
        table = np.bincount(keys, weights=w, minlength=1 << bits)
        ks = np.flatnonzero(table)
        return ks, table[ks]
    ks, inv = np.unique(keys, return_inverse=True)
    return ks, np.bincount(inv, weights=w, minlength=len(ks))


def _read(bits: int, dense: Optional[np.ndarray], keys: Optional[np.ndarray],
          w: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The support of a law on `bits`-bit keys: ascending distinct int64 keys
    and their positive weights, normalized.

    Reads a table of length 2^bits, or keys with weights (every key checked
    against the range, zero weights then dropped, repeated keys summed).
    """
    if dense is not None:
        _dense_guard(bits)
        dense = np.asarray(dense, dtype=np.float64).ravel()
        if dense.shape != (1 << bits,):
            raise ValueError("dense table has wrong length")
        if dense.min() < 0:
            raise ValueError("negative weight")
        keys = np.flatnonzero(dense)   # ascending and distinct: grouped
        w = dense[keys]
    else:
        assert keys is not None and w is not None
        keys = np.asarray(keys, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if keys.min(initial=0) < 0 or keys.max(initial=0) >> bits:
            raise ValueError(f"key exceeds {bits} bits")
        if w.min(initial=0.0) < 0:
            raise ValueError("negative weight")
        keep = w > 0
        if not keep.all():
            keys, w = keys[keep], w[keep]
        keys, w = _group(keys, w, bits)
    if not len(keys):
        raise ValueError("zero total mass")
    return keys, w / w.sum()


def _dense_guard(bits: int) -> None:
    if bits > DENSE_BITS:
        raise CostGuardExceeded("DENSE_BITS", bits, "table too large for dense form")


def _dim_guard(n: int) -> None:
    if n < 0:
        raise ValueError(f"ambient dimension {n} out of range")
    if n > DENSE_BITS:
        raise CostGuardExceeded("DENSE_BITS", n, f"ambient dimension {n} out of range")


def _shape_guard(n: int, arity: int, labels: Sequence[str]) -> None:
    if arity < 1 or arity > 4:
        raise ValueError("arity out of range")
    if n * arity > 62:
        raise ValueError("packed keys need n*arity <= 62")
    if len(labels) != arity or len(set(labels)) != arity:
        raise ValueError("need one distinct label per axis")


class Dist:
    """A probability distribution on F_2^n, stored as its support.

    Support indices are int64, ascending and distinct, each with its
    positive weight; the weights sum to one. A dense table of length 2^n is
    read on input and written by dense() on output.
    """

    __slots__ = ("n", "_idx", "_w", "_H")

    def __init__(self, n: int, dense: Optional[np.ndarray] = None,
                 idx: Optional[np.ndarray] = None, w: Optional[np.ndarray] = None):
        _dim_guard(n)
        self.n = n
        self._H: Optional[float] = None
        self._idx, self._w = _read(n, dense, idx, w)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dense(weights: Sequence[float], n: int) -> "Dist":
        return Dist(n, dense=weights)

    @staticmethod
    def from_sparse(mapping_or_idx, w=None, *, n: int) -> "Dist":
        """From an {index: weight} mapping, or from indices and weights."""
        if w is None:
            return Dist(n, idx=list(mapping_or_idx), w=list(mapping_or_idx.values()))
        return Dist(n, idx=mapping_or_idx, w=w)

    @staticmethod
    def point_mass(x: int, n: int) -> "Dist":
        return Dist(n, idx=np.array([x]), w=np.array([1.0]))

    # -- representation ----------------------------------------------------

    def dense(self) -> np.ndarray:
        """Full table of length 2^n."""
        out = np.zeros(1 << self.n)
        out[self._idx] = self._w
        return out

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Support indices (ascending) and their weights."""
        return self._idx, self._w

    def support(self) -> np.ndarray:
        return self.items()[0]

    def support_size(self) -> int:
        return len(self.support())

    def weight(self, x: int) -> float:
        pos = np.searchsorted(self._idx, x)
        if pos < len(self._idx) and self._idx[pos] == x:
            return float(self._w[pos])
        return 0.0

    def argmax(self) -> int:
        """Heaviest point; smallest index on ties."""
        idx, w = self.items()
        return int(idx[np.argmax(w)])

    # -- calculus ----------------------------------------------------------

    def entropy(self) -> float:
        if self._H is None:
            self._H = _entropy_weights(self._w)
        return self._H

    def translate(self, g: int) -> "Dist":
        return Dist(self.n, idx=self._idx ^ g, w=self._w)

    def prune(self, rel_floor: float = 1e-13) -> "Dist":
        """Drop weights below rel_floor of the max and renormalize."""
        keep = self._w >= rel_floor * self._w.max()
        if keep.all():
            return self
        return Dist(self.n, idx=self._idx[keep], w=self._w[keep])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        idx, w = self.items()
        return {"dim": self.n, "entries": [[int(i), float(x)] for i, x in zip(idx, w)]}

    @staticmethod
    def from_json(obj: dict) -> "Dist":
        idx = np.array([e[0] for e in obj["entries"]], dtype=np.int64)
        w = np.array([e[-1] for e in obj["entries"]], dtype=np.float64)
        return Dist(int(obj["dim"]), idx=idx, w=w)

    def __repr__(self) -> str:
        return f"Dist(n={self.n}, support={self.support_size()}, H={self.entropy():.4f})"


def _runs(vals: np.ndarray) -> np.ndarray:
    """The bounds of the runs of equal values in sorted vals: run r is
    vals[cut[r]:cut[r + 1]]."""
    return np.r_[0, np.flatnonzero(np.diff(vals)) + 1, len(vals)]


def _fibres(vals: np.ndarray, idx: np.ndarray,
            w: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conditional laws of idx given unsorted vals as runs (col, w,
    cut), one per distinct value, values ascending, the entries of a value
    kept in input order (one stable sort): run r is col[cut[r]:cut[r + 1]]
    with weights w[cut[r]:cut[r + 1]]."""
    order = np.argsort(vals, kind="stable")
    return idx[order], w[order], _runs(vals[order])


def _cross_runs(A: Dist, B: Dist) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support pairs (a, b) of A and an independent B~ of B's law,
    stable-sorted by g = a ^ b: the sorted g, each pair's a and its weight
    A(a) B(b). The run (_runs) of one g holds the law of A | A ^ B~ = g.
    More than PRODUCT_SUPPORT_CAP pairs raise CostGuardExceeded."""
    (ia, wa), (ib, wb) = A.items(), B.items()
    if len(ia) * len(ib) > PRODUCT_SUPPORT_CAP:
        raise CostGuardExceeded("PRODUCT_SUPPORT_CAP", len(ia) * len(ib),
                                "support pair enumeration too large")
    g = (ia[:, None] ^ ib[None, :]).ravel()
    order = np.argsort(g, kind="stable")
    return g[order], np.repeat(ia, len(ib))[order], np.outer(wa, wb).ravel()[order]


def _cross_family(A: Dist, B: Dist) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The laws of A | A ^ B~ = g as runs (col, w, cut), g ascending, cut
    from _cross_runs: run g's weight sum is the mass of g in A ^ B~."""
    g, col, w = _cross_runs(A, B)
    return col, w, _runs(g)


def uniform_on(S: Iterable[int], n: int) -> Dist:
    """Uniform distribution on a nonempty subset of F_2^n."""
    idx = np.unique(np.fromiter(S, dtype=np.int64))
    if len(idx) == 0:
        raise ValueError("empty support")
    return Dist(n, idx=idx, w=np.full(len(idx), 1.0))


def uniform_on_subgroup(H: SubgroupBasis) -> Dist:
    return uniform_on(H.enumerate_array(), H.ambient_dim)


def entropy(X: Dist) -> float:
    return X.entropy()


def _enum_bound(n: int) -> int:
    """n 2^n: xor_convolve enumerates two supports whose sizes multiply below it."""
    return (1 << n) * max(n, 1)


def xor_convolve(X: Dist, Y: Dist) -> Dist:
    """Exact distribution of X' ^ Y' for independent copies, by pair
    enumeration below _enum_bound and through the Walsh-Hadamard transform
    in O(n 2^n) above it.
    """
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    n = X.n
    (ix, wx), (iy, wy) = X.items(), Y.items()
    if len(ix) * len(iy) < _enum_bound(n):
        return Dist(n, idx=(ix[:, None] ^ iy[None, :]).ravel(),
                    w=np.outer(wx, wy).ravel())
    # equal operands: one row, squared, the bits of a two-row stack
    if np.array_equal(ix, iy) and np.array_equal(wx, wy):
        spec = fwht(X.dense())
        spec *= spec
    else:
        spec = fwht(np.stack([X.dense(), Y.dense()]))
        spec = spec[0] * spec[1]
    return Dist(n, dense=_clean_wht_output(spec, "xor_convolve"))


def pushforward_dist(X: Dist, pi: LinearMap) -> Dist:
    """Image distribution of X under a GF(2)-linear map."""
    if pi.in_dim != X.n:
        raise ValueError("dimension mismatch")
    idx, w = X.items()
    return Dist(pi.out_dim, idx=pi.table()[idx], w=w)


AxisKey = Union[int, str]


class JointDist:
    """A distribution on (F_2^n)^k with axis labels; k in {2,3,4} publicly.

    Coordinates are packed into one int64 key, axis i in bits
    [i*n, (i+1)*n), axis 0 lowest, so n*k <= 62. Only the support is
    stored: keys ascending, each with its positive weight. A dense table
    (length 2^(n*k), at most 2^DENSE_BITS) is read into keys on input and
    written by dense() on output. Operations that drop axes may return the
    internal arity-1 form; call to_dist() to get the Dist back out.
    """

    __slots__ = ("n", "arity", "labels", "_keys", "_w")

    def __init__(self, n: int, arity: int, labels: Sequence[str],
                 dense: Optional[np.ndarray] = None,
                 keys: Optional[np.ndarray] = None, w: Optional[np.ndarray] = None):
        self._shape(n, arity, labels)
        self._keys, self._w = _read(n * arity, dense, keys, w)

    def _shape(self, n: int, arity: int, labels: Sequence[str]) -> "JointDist":
        """Check and store the shape; every constructor passes through here."""
        _shape_guard(n, arity, labels)
        self.n = n
        self.arity = arity
        self.labels = tuple(labels)
        return self

    @classmethod
    def _grouped(cls, n: int, labels: Sequence[str], keys: np.ndarray,
                 w: np.ndarray) -> "JointDist":
        """From ascending distinct keys with positive weights, as _group
        returns them; only the shape is checked."""
        out = cls.__new__(cls)._shape(n, len(labels), labels)
        out._keys = keys
        out._w = w / w.sum()
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_mapping(mapping: Dict[Tuple[int, ...], float], n: int,
                     labels: Sequence[str]) -> "JointDist":
        arity = len(labels)
        keys = np.array([_pack(t, n) for t in mapping], dtype=np.int64)
        w = np.array(list(mapping.values()), dtype=np.float64)
        return JointDist(n, arity, labels, keys=keys, w=w)

    @staticmethod
    def independent_product(dists: Sequence[Dist], labels: Sequence[str]) -> "JointDist":
        n = dists[0].n
        if any(d.n != n for d in dists):
            raise ValueError("dimension mismatch")
        keys, w = dists[0].items()
        for i, d in enumerate(dists[1:], 1):
            idx, wi = d.items()
            keys = ((idx[:, None] << (i * n)) | keys[None, :]).ravel()
            w = np.outer(wi, w).ravel()
        return JointDist(n, len(dists), labels, keys=keys, w=w)

    # -- plumbing ----------------------------------------------------------

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Packed keys with positive mass (ascending) and their weights."""
        return self._keys, self._w

    def dense(self) -> np.ndarray:
        """Full table in packed-key order (axis 0 in the low bits)."""
        _dense_guard(self.n * self.arity)
        out = np.zeros(1 << (self.n * self.arity))
        out[self._keys] = self._w
        return out

    def _axis_index(self, axis: AxisKey) -> int:
        if isinstance(axis, str):
            return self.labels.index(axis)
        if axis < 0 or axis >= self.arity:
            raise ValueError(f"axis {axis} out of range")
        return axis

    def _axes(self, axes: Union[AxisKey, Sequence[AxisKey]]) -> List[int]:
        """Axis indices, distinct; the joint entropies of the information
        terms go through here, so overlapping arguments raise too."""
        if isinstance(axes, (int, str)):
            axes = [axes]
        out = [self._axis_index(a) for a in axes]
        if len(set(out)) != len(out):
            raise ValueError("repeated axis")
        return out

    def axis_values(self, keys: np.ndarray, axis: int) -> np.ndarray:
        return (keys >> (axis * self.n)) & ((1 << self.n) - 1)

    def to_dist(self) -> Dist:
        if self.arity != 1:
            raise ValueError("to_dist needs an arity-1 joint")
        return Dist(self.n, idx=self._keys, w=self._w)

    # -- marginals, conditioning, maps --------------------------------------

    def marginal(self, axes: Union[AxisKey, Sequence[AxisKey]]) -> "JointDist":
        """Marginal on the listed axes, in the listed order."""
        ax = self._axes(axes)
        if ax == list(range(self.arity)):
            return self
        return self.pushforward([[a] for a in ax], [self.labels[a] for a in ax])

    def marginal_dist(self, axis: AxisKey) -> Dist:
        return self.marginal([axis]).to_dist()

    def condition(self, axis: AxisKey, value: int) -> "JointDist":
        """Normalized slice on {axis = value}; the axis is removed."""
        a = self._axis_index(axis)
        if self.arity == 1:
            raise ValueError("cannot condition an arity-1 joint")
        mask = self.axis_values(self._keys, a) == value
        if not mask.any():
            raise ValueError(f"conditioning event {self.labels[a]}={value} has zero mass")
        keys = self._keys[mask]
        low = keys & ((1 << (a * self.n)) - 1)
        high = (keys >> ((a + 1) * self.n)) << (a * self.n)
        # dropping an axis held constant keeps the keys ascending and distinct
        return JointDist._grouped(self.n, self.labels[:a] + self.labels[a + 1:],
                                  low | high, self._w[mask])

    def pushforward(self, groups: Sequence[Sequence[AxisKey]],
                    labels: Optional[Sequence[str]] = None) -> "JointDist":
        """New joint whose axis j is the XOR of the input axes in groups[j]."""
        gs = [self._axes(g) for g in groups]
        if labels is None:
            labels = ["^".join(self.labels[a] for a in g) for g in gs]
        for j, g in enumerate(gs):
            v = self.axis_values(self._keys, g[0])
            for a in g[1:]:
                v ^= self.axis_values(self._keys, a)
            key = v if j == 0 else np.bitwise_or(key, v << (j * self.n), out=key)
        return JointDist._grouped(self.n, labels,
                                  *_group(key, self._w, self.n * len(gs)))

    def slices(self, target: AxisKey,
               given: Union[AxisKey, Sequence[AxisKey]]) -> List[Tuple[Tuple[int, ...], float, Dist]]:
        """Decompose into conditional laws of `target` given the other axes.

        Returns (value tuple, probability, law) per point of the conditioning
        support, values ascending in packed order.
        """
        t = self._axis_index(target)
        g = self._axes(given)
        M = self.marginal([t] + g)
        keys, w = M.items()
        # ascending keys with the target in the low bits: the conditioning
        # part is nondecreasing, so each slice is one contiguous run
        vals, col = keys >> self.n, M.axis_values(keys, 0)
        cut = _runs(vals)
        return [(tuple(int(M.axis_values(vals[lo], j)) for j in range(M.arity - 1)),
                 float(w[lo:hi].sum()), Dist(self.n, idx=col[lo:hi], w=w[lo:hi]))
                for lo, hi in zip(cut[:-1], cut[1:])]

    # -- calculus ----------------------------------------------------------

    def entropy(self, axes: Optional[Union[AxisKey, Sequence[AxisKey]]] = None) -> float:
        """Entropy of the marginal on `axes` (all axes when omitted)."""
        if axes is None or len(self._axes(axes)) == self.arity:
            return _entropy_weights(self._w)
        return self.marginal(axes).entropy()

    def cond_entropy(self, target, given) -> float:
        """H[target | given] by the chain rule."""
        t, g = self._axes(target), self._axes(given)
        return self.entropy(t + g) - self.entropy(g)

    def mutual_info(self, a, b) -> float:
        ax, bx = self._axes(a), self._axes(b)
        return self.entropy(ax) + self.entropy(bx) - self.entropy(ax + bx)

    def cond_mutual_info(self, a, b, given) -> float:
        """I[a : b | given] = H[a,g] + H[b,g] - H[a,b,g] - H[g]."""
        ax, bx, gx = self._axes(a), self._axes(b), self._axes(given)
        return (self.entropy(ax + gx) + self.entropy(bx + gx)
                - self.entropy(ax + bx + gx) - self.entropy(gx))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for key, x in zip(self._keys, self._w):
            coords = [int(self.axis_values(key, a)) for a in range(self.arity)]
            entries.append(coords + [float(x)])
        return {"dim": self.n, "arity": self.arity, "labels": list(self.labels),
                "entries": entries}

    @staticmethod
    def from_json(obj: dict) -> "JointDist":
        n, arity = int(obj["dim"]), int(obj["arity"])
        keys = np.array([_pack(e[:arity], n) for e in obj["entries"]], dtype=np.int64)
        w = np.array([e[arity] for e in obj["entries"]], dtype=np.float64)
        return JointDist(n, arity, obj["labels"], keys=keys, w=w)

    def __repr__(self) -> str:
        return (f"JointDist(n={self.n}, axes={self.labels}, "
                f"H={self.entropy():.4f})")


def joint_product(A: JointDist, B: JointDist) -> JointDist:
    """Independent product of two joints, axes of A first.

    Colliding labels on the B side get a prime appended. A product support
    above PRODUCT_SUPPORT_CAP raises CostGuardExceeded.
    """
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    n, k = A.n, A.arity + B.arity
    labels = list(A.labels)
    for lab in B.labels:
        while lab in labels:
            lab = lab + "'"
        labels.append(lab)
    ka, wa = A.items()
    kb, wb = B.items()
    size = len(ka) * len(kb)
    if size > PRODUCT_SUPPORT_CAP:
        raise CostGuardExceeded("joint_product max_support", size,
                                "product support too large")
    keys = ((kb[:, None] << (A.arity * n)) | ka[None, :]).ravel()
    return JointDist(n, k, labels, keys=keys, w=np.outer(wb, wa).ravel())


def _pack(coords: Sequence[int], n: int) -> int:
    key = 0
    for i, c in enumerate(coords):
        if c < 0 or c >= (1 << n):
            raise ValueError("coordinate exceeds ambient dimension")
        key |= int(c) << (i * n)
    return key


def load_dist(path: str) -> Dist:
    """Read a Dist from a JSON file ({dim, entries}) or a dense CSV vector."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Dist.from_json(json.loads(stripped))
    return dense_from_csv(text)


def dense_from_csv(text: str) -> Dist:
    """Dense vector, one weight per line or comma-separated; length 2^n."""
    vals = [float(tok) for tok in text.replace(",", "\n").split()]
    n = (len(vals) - 1).bit_length()
    if len(vals) != (1 << n) or not vals:
        raise ValueError("dense CSV length must be a power of two")
    return Dist.from_dense(vals, n)
