"""Arithmetic in GF(2^k) and a polynomial evaluation / correction layer.

Field elements are plain ints in [0, 2^k); addition is xor and products go
through exp/log tables.  Polynomials are coefficient lists, low degree first.
Evaluation points are the field elements in increasing integer order, so a
block vector of length m lives at points 0..m-1 and redundancy extends it to
points m..m+s-1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .errors import ContractError

# One fixed primitive polynomial per supported k (top bit included).
IRREDUCIBLE: dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class Field:
    """GF(2^k) with table-based multiplication and inversion."""

    __slots__ = ("k", "size", "modulus", "exp", "log", "inv_table")

    def __init__(self, k: int) -> None:
        if k not in IRREDUCIBLE:
            raise ContractError(f"no modulus table entry for k={k}")
        self.k = k
        self.size = 1 << k
        self.modulus = IRREDUCIBLE[k]
        order = self.size - 1
        exp = [0] * (2 * order)
        log = [0] * self.size
        # The tables are powers of x, which generates the multiplicative group
        # exactly when the modulus is primitive.
        x = 1
        for i in range(order):
            exp[i] = x
            exp[i + order] = x
            log[x] = i
            x <<= 1
            if x >> k:
                x ^= self.modulus
        if x != 1 or 1 in exp[1:order]:
            raise ContractError(f"the modulus for k={k} is not primitive")
        self.exp = exp
        self.log = log
        self.inv_table = [0] * self.size
        for v in range(1, self.size):
            self.inv_table[v] = exp[order - log[v]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ContractError("zero has no multiplicative inverse")
        return self.inv_table[a]


@lru_cache(maxsize=None)
def field(k: int) -> Field:
    return Field(k)


# ---------------------------------------------------------------------------
# polynomials: coefficient lists, low degree first, trailing zeros trimmed


def poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_deg(coeffs: Sequence[int]) -> int:
    return len(coeffs) - 1


def poly_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return poly_trim(out)


def poly_mul(fld: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    exp, log = fld.exp, fld.log
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        la = log[ca]
        for j, cb in enumerate(b):
            if cb:
                out[i + j] ^= exp[la + log[cb]]
    return poly_trim(out)


def poly_scale(fld: Field, a: Sequence[int], c: int) -> list[int]:
    if c == 0:
        return []
    exp, log = fld.exp, fld.log
    lc = log[c]
    return [exp[log[x] + lc] if x else 0 for x in a]


def poly_divmod(fld: Field, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    b = poly_trim(list(b))
    if not b:
        raise ContractError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], poly_trim(rem)
    inv_lead = fld.inv(b[-1])
    quot = [0] * (len(rem) - db)
    exp, log = fld.exp, fld.log
    log_inv = log[inv_lead]
    for i in range(len(rem) - 1, db - 1, -1):
        coef = rem[i]
        if coef == 0:
            continue
        factor = exp[log[coef] + log_inv]
        quot[i - db] = factor
        lf = log[factor]
        base = i - db
        for j, cb in enumerate(b):
            if cb:
                rem[base + j] ^= exp[lf + log[cb]]
    return poly_trim(quot), poly_trim(rem)


def poly_eval(fld: Field, coeffs: Sequence[int], x: int) -> int:
    acc = 0
    mul = fld.mul
    for c in reversed(coeffs):
        acc = mul(acc, x) ^ c
    return acc


@lru_cache(maxsize=None)
def _master_poly(k: int, npoints: int) -> tuple[int, ...]:
    """Product of (x - a) over the first npoints field elements a."""
    fld = field(k)
    poly = [1]
    for a in range(npoints):
        poly = poly_mul(fld, poly, [a, 1])
    return tuple(poly)


@lru_cache(maxsize=None)
def _barycentric_weights(k: int, npoints: int) -> tuple[int, ...]:
    """inv of prod_{j != i} (a_i - a_j) for the first npoints field elements."""
    fld = field(k)
    weights = []
    for i in range(npoints):
        acc = 1
        for j in range(npoints):
            if j != i:
                acc = fld.mul(acc, i ^ j)
        weights.append(fld.inv(acc))
    return tuple(weights)


def _synthetic_div(fld: Field, coeffs: Sequence[int], a: int) -> list[int]:
    """coeffs / (x - a), assuming a is a root-free exact divisor is not
    required: returns the quotient of the division (remainder discarded)."""
    out = [0] * (len(coeffs) - 1)
    acc = 0
    mul = fld.mul
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] ^ mul(acc, a)
        out[i - 1] = acc
    return out


def interpolate(fld: Field, points: Sequence[tuple[int, int]]) -> list[int]:
    """Unique polynomial of degree < len(points) through the given points."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ContractError("interpolation points must have distinct x")
    for x, y in points:
        if not (0 <= x < fld.size and 0 <= y < fld.size):
            raise ContractError("interpolation points must be field elements")
    master = [1]
    for x in xs:
        master = poly_mul(fld, master, [x, 1])
    out: list[int] = []
    for x, y in points:
        if y == 0:
            continue
        q = _synthetic_div(fld, master, x)
        denom = poly_eval(fld, q, x)
        out = poly_add(out, poly_scale(fld, q, fld.mul(y, fld.inv(denom))))
    return poly_trim(out)


def _interpolate_consecutive(fld: Field, values: Sequence[int]) -> list[int]:
    """Interpolation through (i, values[i]) using cached consecutive-point
    master polynomials and weights."""
    npoints = len(values)
    master = list(_master_poly(fld.k, npoints))
    weights = _barycentric_weights(fld.k, npoints)
    out: list[int] = []
    for x, y in enumerate(values):
        if y == 0:
            continue
        q = _synthetic_div(fld, master, x)
        out = poly_add(out, poly_scale(fld, q, fld.mul(y, weights[x])))
    return poly_trim(out)


# ---------------------------------------------------------------------------
# evaluation-code redundancy and correction


def rs_extra_evals(fld: Field, blocks: Sequence[int], s: int) -> list[int]:
    """Fit the degree < m polynomial through (i, blocks[i]) and evaluate it at
    the next s points.  Requires m + s <= 2^k so the points stay distinct."""
    m = len(blocks)
    if m < 1:
        raise ContractError("need at least one block")
    if s < 0:
        raise ContractError("s must be nonnegative")
    if m + s > fld.size:
        raise ContractError(f"m + s = {m + s} exceeds the field size {fld.size}")
    for b in blocks:
        if not 0 <= b < fld.size:
            raise ContractError("blocks must be field elements")
    if s == 0:
        return []
    poly = _interpolate_consecutive(fld, blocks)
    return [poly_eval(fld, poly, a) for a in range(m, m + s)]


def rs_correct(fld: Field, received: Sequence[int], extra: Sequence[int]) -> Optional[list[int]]:
    """Recover the m block values from a corrupted copy plus s redundancy
    values, treating all m+s positions as potentially wrong.

    Decodes to the unique degree < m polynomial whenever the total number of
    wrong entries is at most floor(s/2); in particular correction is
    guaranteed when fewer than s/2 of the received blocks are corrupted and
    the extra values are intact.  Returns None when no such polynomial fits
    (decode failure is a value, not an exception).
    """
    m = len(received)
    s = len(extra)
    if m < 1:
        raise ContractError("need at least one received block")
    n_points = m + s
    if n_points > fld.size:
        raise ContractError(f"m + s = {n_points} exceeds the field size {fld.size}")
    values = list(received) + list(extra)
    for v in values:
        if not 0 <= v < fld.size:
            raise ContractError("values must be field elements")
    if s == 0:
        return list(received)

    # Extended-Euclid decoding on (master, interpolant): stop at the first
    # remainder of degree < (n_points + m) / 2, divide out the multiplier.
    r0 = list(_master_poly(fld.k, n_points))
    r1 = _interpolate_consecutive(fld, values)
    v0: list[int] = []
    v1: list[int] = [1]
    threshold = n_points + m
    while r1 and 2 * poly_deg(r1) >= threshold:
        q, rem = poly_divmod(fld, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, poly_add(v0, poly_mul(fld, q, v1))
    if not v1:
        return None
    f, rem = poly_divmod(fld, r1, v1)
    if rem or poly_deg(f) >= m:
        return None
    return [poly_eval(fld, f, a) for a in range(m)]
