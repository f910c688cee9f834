"""Truncated free-tensor-algebra arithmetic and signatures of piecewise-linear paths.

A truncated signature holds one real coefficient per word (i1, ..., ik) over
the alphabet {1, ..., d}, for word lengths k = 0..p.  Level k is stored as a
flat array of length d**k in lexicographic word order, so the coefficient of
(i1, ..., ik) sits at flat position sum((i_j - 1) * d**(k - j)).

For a straight-line segment the signature is the tensor exponential of the
increment, and signatures multiply over path concatenation via the graded
(truncated) tensor product.  Signatures of point streams are computed as the
left-to-right product of per-segment exponentials.

Every operation broadcasts over leading batch axes: level k of a signature
has shape ``batch + (d**k,)``, so a ``(B, n, d)`` stack of point streams
gives B signatures in one fold over its n - 1 segments.  Batch shape ``()``
is a single signature.  The arithmetic per signature does not depend on the
batch: each coefficient is the same products summed in the same order, so a
stacked result equals the one-path results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError


def flat_index(word: Sequence[int], dimension: int) -> int:
    """Flat position of a word (letters in 1..d) within its level array."""
    idx = 0
    for letter in word:
        if not 1 <= letter <= dimension:
            raise ValueError(f"letter {letter} outside alphabet 1..{dimension}")
        idx = idx * dimension + (letter - 1)
    return idx


@dataclass(frozen=True)
class TruncatedSignature:
    """Graded coefficient container for signature levels 0..level in dimension d.

    ``levels[k]`` is a float array of shape ``batch + (dimension**k,)``, the
    same leading batch shape on every level; ``levels[0]`` holds the scalar
    1.  Instances are treated as immutable values.
    """

    dimension: int
    level: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dimension < 1 or self.level < 1:
            raise ValueError("dimension and level must be positive")
        if len(self.levels) != self.level + 1:
            raise ValueError("expected one array per level 0..p")
        batch = self.batch_shape
        for k, arr in enumerate(self.levels):
            if arr.shape != batch + (self.dimension**k,):
                raise ValueError(
                    f"level {k} must have shape {batch} + ({self.dimension ** k},), "
                    f"got {arr.shape}"
                )

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.levels[0].shape[:-1]

    def coefficient(self, word: Sequence[int]):
        """Coefficient of the given word; the empty word yields the scalar 1.

        A float for one signature, an array of the batch shape for a stack.
        """
        k = len(word)
        if k > self.level:
            raise ValueError(f"word longer than truncation level {self.level}")
        value = self.levels[k][..., flat_index(word, self.dimension)]
        return float(value) if value.ndim == 0 else value

    def flatten(self, include_scalar: bool = False) -> np.ndarray:
        """Concatenate levels along the last axis, by default dropping the constant 1."""
        start = 0 if include_scalar else 1
        return np.concatenate([self.levels[k] for k in range(start, self.level + 1)], axis=-1)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of the last axes, batched: entry i * len(b) + j is a[i] * b[j]
    shape = a.shape[:-1] + (a.shape[-1] * b.shape[-1],)
    return (a[..., :, None] * b[..., None, :]).reshape(shape)


def identity_signature(
    dimension: int, level: int, batch: tuple[int, ...] = ()
) -> TruncatedSignature:
    """Signature of a constant path: 1 at level 0, zeros above."""
    levels = tuple(
        np.ones(batch + (1,)) if k == 0 else np.zeros(batch + (dimension**k,))
        for k in range(level + 1)
    )
    return TruncatedSignature(dimension, level, levels)


def segment_signature(increment: Iterable[float], level: int) -> TruncatedSignature:
    """Signature of one straight segment: the truncated tensor exponential.

    Level k equals the k-fold tensor power of the increment divided by k!,
    i.e. the coefficient of (i1, ..., ik) is inc[i1] * ... * inc[ik] / k!.
    An increment of shape ``batch + (d,)`` gives a stack of signatures.
    """
    inc = np.asarray(increment, dtype=float)
    if inc.ndim < 1 or inc.shape[-1] < 1:
        raise ValueError("increment must have a non-empty last axis")
    if not np.all(np.isfinite(inc)):
        raise ValueError("increment must be finite")
    if level < 1:
        raise ValueError("level must be >= 1")
    levels = [np.ones(inc.shape[:-1] + (1,))]
    for k in range(1, level + 1):
        levels.append(_outer(levels[-1], inc) / k)
    return TruncatedSignature(inc.shape[-1], level, tuple(levels))


def chen_product(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Graded tensor product truncated at the common level.

    The coefficient of word w in the product is the sum over splittings
    w = uv of a's coefficient of u times b's coefficient of v.  This is the
    multiplication under which signatures compose over path concatenation.
    Stacks multiply entry by entry and must share their batch shape.
    """
    if a.dimension != b.dimension or a.level != b.level:
        raise ValueError("operands must share dimension and level")
    if a.batch_shape != b.batch_shape:
        raise ValueError(f"batch shapes differ: {a.batch_shape} and {b.batch_shape}")
    levels = []
    for n in range(a.level + 1):
        total = np.zeros(a.batch_shape + (a.dimension**n,))
        for i in range(n + 1):
            total += _outer(a.levels[i], b.levels[n - i])
        levels.append(total)
    return TruncatedSignature(a.dimension, a.level, tuple(levels))


def stream_signature(points: Iterable[Iterable[float]], level: int) -> TruncatedSignature:
    """Signature of the piecewise-linear interpolation of a point sequence.

    Computed as the left-to-right Chen product of the segment exponentials of
    consecutive increments.  Level 1 therefore equals last point - first point.
    Points of shape ``batch + (n, d)`` give the batch of n-point streams'
    signatures, one Chen product per segment for the whole stack.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        raise ValueError("points must be an (n, d) array, or a stack of them")
    if pts.shape[-2] < 2:
        raise InsufficientDataError("need at least 2 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    sig = identity_signature(pts.shape[-1], level, pts.shape[:-2])
    increments = np.diff(pts, axis=-2)
    for t in range(increments.shape[-2]):
        sig = chen_product(sig, segment_signature(increments[..., t, :], level))
    return sig
