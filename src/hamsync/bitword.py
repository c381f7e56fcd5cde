"""Bit-string words, the Hamming metric, and exact volume / entropy helpers.

Words are immutable: an integer value plus an explicit bit length n, with
bit i of the word being ``(value >> i) & 1``.  All serialized forms keep the
same LSB-first convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

from .errors import ContractError

MAX_WORD_BITS = 1 << 20


@dataclass(frozen=True, slots=True)
class Word:
    """A fixed-length bit string of n bits; bit i is (value >> i) & 1."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_WORD_BITS:
            raise ContractError(f"word length must be in [1, {MAX_WORD_BITS}], got {self.n!r}")
        if not isinstance(self.value, int) or not 0 <= self.value < (1 << self.n):
            raise ContractError("word value does not fit in the declared bit length")

    def flip(self, positions: Iterable[int]) -> "Word":
        mask = 0
        for i in positions:
            if not 0 <= i < self.n:
                raise ContractError(f"flip position {i} outside [0, {self.n})")
            mask |= 1 << i
        return Word(self.value ^ mask, self.n)

    def __xor__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise ContractError("xor of words with different lengths")
        return Word(self.value ^ other.value, self.n)


def exact_fraction(value: Fraction | int | float | str) -> Fraction:
    """A rate as an exact fraction.  Floats go through their decimal
    spelling, so 0.15 means 3/20, not the nearest binary fraction.  Anything
    that is not a finite rational number raises ContractError."""
    try:
        return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ContractError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True, slots=True)
class Bounds:
    """Promise parameters: words of length n differ in at most
    radius = floor(alpha*n) bits, worked out once here."""

    alpha: Fraction
    n: int
    radius: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = exact_fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not 0 <= alpha <= Fraction(1, 2):
            raise ContractError(f"alpha must be in [0, 1/2], got {alpha}")
        if not 1 <= self.n <= MAX_WORD_BITS:
            raise ContractError(f"n must be in [1, {MAX_WORD_BITS}], got {self.n}")
        # alpha*n is always rounded down, here and everywhere downstream.
        object.__setattr__(self, "radius", math.floor(alpha * self.n))


def hamming_distance(a: Word, b: Word) -> int:
    """Number of positions where a and b differ; lengths must match."""
    if a.n != b.n:
        raise ContractError(f"length mismatch: {a.n} vs {b.n}")
    return (a.value ^ b.value).bit_count()


def ball_volume(r: int, n: int) -> int:
    """Exact number of words within Hamming distance r of a fixed word of length n."""
    if not 0 <= r <= n:
        raise ContractError(f"radius must be in [0, n], got r={r}, n={n}")
    return sum(math.comb(n, i) for i in range(r + 1))


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"entropy argument must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def log2_big(x: int) -> float:
    """log2 of a positive integer, accurate even far beyond float range."""
    if x <= 0:
        raise ContractError("log2_big needs a positive integer")
    bl = x.bit_length()
    if bl <= 53:
        return math.log2(x)
    shift = bl - 53
    return shift + math.log2(x >> shift)


def lower_bound_bits(alpha: Fraction | float, n: int) -> float:
    """log2 of the exact ball volume at radius floor(alpha*n): a floor on the
    bits any one-round deterministic protocol must send."""
    bounds = Bounds(alpha, n)
    return log2_big(ball_volume(bounds.radius, n))


def random_word_within(y: Word, r: int, rng: Random) -> Word:
    """Word at distance at most r from y: distance drawn uniformly from {0..r},
    then a uniform subset of that many positions is flipped."""
    if not 0 <= r <= y.n:
        raise ContractError(f"radius must be in [0, {y.n}], got {r}")
    d = rng.randint(0, r)
    return y.flip(rng.sample(range(y.n), d))


def pack_fields(fields: Sequence[tuple[int, int]]) -> Word:
    """Concatenate (value, width) fields into one word, first field at the low bits."""
    value = 0
    offset = 0
    for val, width in fields:
        if width < 1:
            raise ContractError("field width must be >= 1")
        if not 0 <= val < (1 << width):
            raise ContractError(f"field value {val} does not fit in {width} bits")
        value |= val << offset
        offset += width
    if offset == 0:
        raise ContractError("cannot pack an empty field list")
    return Word(value, offset)


def unpack_fields(w: Word, widths: Sequence[int]) -> list[int]:
    """Split a packed word back into fields; widths must sum to w.n."""
    if sum(widths) != w.n:
        raise ContractError(f"field widths sum to {sum(widths)}, word has {w.n} bits")
    out = []
    offset = 0
    for width in widths:
        out.append((w.value >> offset) & ((1 << width) - 1))
        offset += width
    return out
