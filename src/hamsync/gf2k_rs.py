"""Arithmetic in GF(2^k) and a Reed-Solomon redundancy layer over it.

Field elements are plain ints in [0, 2^k); addition is xor and products go
through exp/log tables.  Evaluation points are the field elements in
increasing integer order: m block values are the values at points 0..m-1 of
the unique polynomial of degree < m through them, and s redundancy values
are its values at points m..m+s-1.  The m+s values form a Reed-Solomon
codeword of minimum distance s+1.  rs_correct syndrome-decodes it and
repairs up to floor(s/2) wrong values anywhere among the m+s; beyond that it
returns the unique codeword within floor(s/2) of what it got, or None when
there is none.  Both directions need one field element outside the point
set, so m + s < 2^k.

Neither direction checks its arguments.  Its one caller, the composite
protocol, refuses m + s >= 2^k in composite_parties before a run starts,
and cuts every value it passes from a k-bit field, so each is a field
element.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, reduce
from itertools import compress
from operator import xor
from typing import Iterable, Optional, Sequence

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
    """GF(2^k) with table-based multiplication."""

    __slots__ = ("k", "size", "modulus", "exp", "log")

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

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


@lru_cache(maxsize=None)
def field(k: int) -> Field:
    return Field(k)


# ---------------------------------------------------------------------------
# evaluation-code redundancy and correction


# _BIT_OF[b] maps a byte to its bit b, so bytes.translate turns a byte
# string of values into a string of 0/1 selectors.
_BIT_OF = [bytes((v >> b) & 1 for v in range(256)) for b in range(8)]


def _lane_array(init) -> array:
    """Lanes of two bytes, little-endian: init is a list of lane values or
    the bytes of such lanes."""
    lanes = array("H", init)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


_LANE_BITS = 16  # lane width of _lane_array and _pack_lanes


def _pack_lanes(values: Sequence[int]) -> int:
    """values[i] in lane i of an int, a lane being _LANE_BITS = 16 bits."""
    return int.from_bytes(_lane_array(values).tobytes(), "little")


def _lane_map(fld: Field, values: Sequence[int], columns: Sequence[int], lanes: int) -> list[int]:
    """sum_i values[i] * columns[i] over GF(2^k), where each column packs
    `lanes` field elements (see _pack_lanes) and a value multiplies every
    lane of its column.

    Bit b of the values selects the columns xored into a partial sum P_b,
    and Horner's rule in x joins them, sum_b x^b P_b, with a lane-wise
    multiply-by-x; only the k partial sums and k - 1 multiplies run as
    Python steps, each on whole words.

    The three callers cache their columns per size: at (k, m, s) the
    encoder holds m*s lanes, the syndromes (m+s)*s and the root scan
    (floor(s/2)+1)*(m+s), two bytes each.  At n=2048 (k=11,
    m=187, s=64) that is 24 + 32 + 17 KB.
    """
    k = fld.k
    raw = _lane_array(values).tobytes()
    partial = [
        reduce(xor, compress(columns, raw[b >> 3 :: 2].translate(_BIT_OF[b & 7])), 0)
        for b in range(k)
    ]
    top = int.from_bytes(b"\x01\x00" * lanes, "little") << (k - 1)
    reduction = fld.modulus ^ fld.size  # x^k in the field
    acc = 0
    for part in reversed(partial):
        # x * acc per lane: shift, and fold each lane's carried-out top bit back in
        high = acc & top
        acc = ((acc ^ high) << 1) ^ (high >> (k - 1)) * reduction ^ part
    return _lane_array(acc.to_bytes(lanes * 2, "little")).tolist()


def _log_vanishing(fld: Field, npoints: int, xs: Iterable[int]) -> list[int]:
    """sum over j < npoints, j != x, of log(x - j), for each x in xs.

    [0, npoints) splits into aligned blocks [c, c + 2^t), one per set bit t
    of npoints.  As j runs over such a block, x - j = x ^ j runs over the
    aligned block of x ^ c, so the block contributes Q_t((x ^ c) >> t), where
    Q_t(u) sums the logs of the nonzero elements of [u 2^t, (u+1) 2^t) and
    Q_t(u) = Q_{t-1}(2u) + Q_{t-1}(2u+1).  That is O(2^k + len(xs) log npoints)
    table steps, not O(npoints len(xs)).
    """
    q = fld.log  # log[0] = 0 leaves out the zero difference j = x
    sums = [q]
    for _ in range(npoints.bit_length() - 1):
        q = [a + b for a, b in zip(q[0::2], q[1::2])]
        sums.append(q)
    blocks = [
        (sums[t], t, npoints >> (t + 1) << (t + 1))
        for t in range(npoints.bit_length())
        if npoints >> t & 1
    ]
    order = fld.size - 1
    return [sum(q_t[(x ^ c) >> t] for q_t, t, c in blocks) % order for x in xs]


@lru_cache(maxsize=None)
def _barycentric_weights(k: int, npoints: int) -> tuple[int, ...]:
    """w_i = 1 / prod_{j != i} (a_i - a_j) over the points a = 0..npoints-1.
    Shifting every point by the same c leaves the differences, and so the
    weights, unchanged."""
    fld = field(k)
    order = fld.size - 1
    return tuple(fld.exp[-v % order] for v in _log_vanishing(fld, npoints, range(npoints)))


@lru_cache(maxsize=None)
def _encoder_columns(k: int, m: int, s: int) -> tuple[int, ...]:
    """Column i packs the Lagrange basis value L_i(a) = M(a) w_i / (a - i) at
    the extra points a = m..m+s-1, with M(x) = prod_{j < m} (x - j)."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    # -log w_i for i < m, log M(a) for a >= m
    vanishing = _log_vanishing(fld, m, range(m + s))
    return tuple(
        _pack_lanes(
            [exp[(vanishing[a] - vanishing[i] - log[a ^ i]) % order] for a in range(m, m + s)]
        )
        for i in range(m)
    )


@lru_cache(maxsize=None)
def _syndrome_columns(k: int, npoints: int, s: int) -> tuple[int, ...]:
    """Column i packs w_i X_i^j for j < s, with the locator X_i = i + npoints."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    return tuple(
        _pack_lanes([exp[(log[w] + j * log[i ^ npoints]) % order] for j in range(s)])
        for i, w in enumerate(_barycentric_weights(k, npoints))
    )


@lru_cache(maxsize=None)
def _root_columns(k: int, npoints: int, s: int) -> tuple[int, ...]:
    """Column t packs X_i^-t over the points i < npoints, for t <= floor(s/2)."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    return tuple(
        _pack_lanes([exp[-t * log[i ^ npoints] % order] for i in range(npoints)])
        for t in range(s // 2 + 1)
    )


def rs_extra_evals(fld: Field, blocks: Sequence[int], s: int) -> list[int]:
    """Values at the points m..m+s-1 of the degree < m polynomial f through
    (i, blocks[i]): f(a) = sum_i blocks[i] L_i(a) over the Lagrange basis.
    Relies on 1 <= m, m + s < 2^k and field-element blocks (module docstring)."""
    return _lane_map(fld, blocks, _encoder_columns(fld.k, len(blocks), s), s)


def _berlekamp_massey(fld: Field, syndromes: Sequence[int]) -> tuple[list[int], int]:
    """Shortest LFSR (connection polynomial, low degree first, and its length
    L) that generates the syndrome sequence."""
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    lam, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for n, s_n in enumerate(syndromes):
        disc = s_n
        for lam_i, s_i in zip(lam[1:], reversed(syndromes[n - length : n])):
            if lam_i and s_i:
                disc ^= exp[log[lam_i] + log[s_i]]
        if disc == 0:
            shift += 1
            continue
        log_coef = (log[disc] - log[prev_disc]) % order
        new = lam + [0] * (len(prev) + shift - len(lam))
        for i, p in enumerate(prev):
            if p:
                new[i + shift] ^= exp[log_coef + log[p]]
        if 2 * length <= n:
            prev, length, prev_disc, shift = lam, n + 1 - length, disc, 1
        else:
            shift += 1
        lam = new
    return lam[: length + 1], length


def _eval_at(fld: Field, coeffs: Sequence[int], log_x: int) -> int:
    """sum_t coeffs[t] x^t by Horner's rule, at the nonzero x = exp[log_x]."""
    exp, log = fld.exp, fld.log
    acc = 0
    for c in reversed(coeffs):
        if acc:
            acc = exp[log[acc] + log_x]
        acc ^= c
    return acc


def rs_correct(fld: Field, received: Sequence[int], extra: Sequence[int]) -> Optional[list[int]]:
    """Recover the m block values from a corrupted copy plus s redundancy
    values, treating all m+s positions as potentially wrong.

    Returns the first m values of the unique codeword within floor(s/2) of
    the m+s given values; in particular correction is guaranteed when fewer
    than s/2 of the received blocks are corrupted and the extra values are
    intact.  Returns None when no codeword is that close (decode failure is
    a value, not an exception).

    The syndromes are S_j = sum_i w_i r_i X_i^j for j < s over all N = m+s
    points, with the barycentric weights w_i of the N points and the
    locators X_i = i + N, which are nonzero because N is not a point.
    Berlekamp-Massey finds the error locator, a scan over the N points its
    roots, and Forney's formula the values w_i e_i.
    Relies on 1 <= m, m + s < 2^k and field-element values (module docstring).
    """
    m = len(received)
    s = len(extra)
    values = [*received, *extra]
    n_points = m + s
    syndromes = _lane_map(fld, values, _syndrome_columns(fld.k, n_points, s), s)
    if not any(syndromes):
        return list(received)

    lam, length = _berlekamp_massey(fld, syndromes)
    if 2 * length > s:
        return None
    # Position i is wrong exactly when the locator vanishes at 1/X_i.
    at_points = _lane_map(fld, lam, _root_columns(fld.k, n_points, s), n_points)
    positions = [i for i, v in enumerate(at_points) if not v]
    if len(positions) != length:
        return None

    # Forney: w_i e_i = X_i Omega(1/X_i) / Lambda'(1/X_i), where
    # Omega = S Lambda mod x^L and Lambda' keeps the odd-degree terms.
    omega = [
        reduce(xor, [fld.mul(lam[u], syndromes[t - u]) for u in range(t + 1)], 0)
        for t in range(length)
    ]
    derivative = [c if t % 2 == 0 else 0 for t, c in enumerate(lam[1:])]
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    weights = _barycentric_weights(fld.k, n_points)
    out = list(received)
    for i in positions:
        log_loc = log[i ^ n_points]
        num = _eval_at(fld, omega, order - log_loc)
        den = _eval_at(fld, derivative, order - log_loc)
        if not num or not den:
            return None
        if i < m:
            out[i] ^= exp[(log_loc + log[num] - log[den] - log[weights[i]]) % order]
    return out
