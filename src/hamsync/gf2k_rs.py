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
set, so m + s < 2^k.  Both take and return values packed in the 16-bit
lanes of one int (_pack_lanes), as the composite protocol holds its blocks.

The encoder, the syndromes and the root scan each multiply a vector by a
column table cached per size (_table_map).  Where the table's 2^k slot
masks fit _SLOT_MASK_BYTES (small k and few lanes, as at n = 512, s = 2)
that product is one pass over columns widened to k slots (_slot_map);
otherwise (as at n = 2048, s = 64) it is k bit-sliced passes (_lane_map).

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
from operator import and_, xor
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


def _repunit(count: int, width: int) -> int:
    """The sum of 2^(i*width) over i < count: bit i*width set for each i."""
    return ((1 << (count * width)) - 1) // ((1 << width) - 1) if width else count


def _pack_lanes(values: Sequence[int]) -> int:
    """values[i] in lane i of an int, a lane being _LANE_BITS = 16 bits."""
    return int.from_bytes(_lane_array(values).tobytes(), "little")


def _unpack_lanes(packed: int, count: int) -> list[int]:
    """The first count lanes of packed, low lane first."""
    return _lane_array(packed.to_bytes(count * 2, "little")).tolist()


def _lane_map(fld: Field, values: int, columns: Sequence[int], lanes: int) -> int:
    """sum_i v_i * columns[i] over GF(2^k), for v_i in lane i of values,
    where each column packs `lanes` field elements (see _pack_lanes) and a
    value multiplies every lane of its column.  The sums come back packed
    the same way.

    Bit b of the values selects the columns xored into a partial sum P_b,
    and _horner joins them; only the k partial sums and k - 1 multiplies
    run as Python steps, each on whole words.  This is the bit-sliced
    kernel: it pays k passes over the columns whatever the lane count, so
    _table keeps a cached table for it only where _slot_map's masks would
    not fit.

    At (k, m, s) the encoder's table holds m*s lanes, the syndromes'
    (m+s)*s and the root scan's (floor(s/2)+1)*(m+s), two bytes each, k
    times over where _table widens them for _slot_map.  At n=2048 (k=11,
    m=187, s=64) that is 24 + 32 + 17 KB, all bit-sliced.  At n=512 (k=9,
    m=58, s=2) the encoder and the syndromes take _slot_map, 2.1 + 2.2 KB
    widened plus 18 KiB of masks they share; the root scan, whose masks
    would take 540 KiB, never runs there, since every locator at s=2 has
    degree 1.  Berlekamp-Massey cuts its columns from the syndromes on each
    call and always takes this kernel.
    """
    raw = values.to_bytes(2 * len(columns), "little")
    partial = [
        reduce(xor, compress(columns, raw[b >> 3 :: 2].translate(_BIT_OF[b & 7])), 0)
        for b in range(fld.k)
    ]
    return _horner(fld, partial, lanes)


def _slot_map(
    fld: Field, values: int, wide: Sequence[int], masks: Sequence[int], lanes: int
) -> int:
    """_lane_map's sums in one pass: each column comes widened to k slots of
    `lanes` lanes (_table), and masks[v] keeps slot b exactly when bit b of
    v is set (_slot_masks).  So the xor of the masked columns holds every
    partial sum P_b in slot b at once, and _horner joins the k slots.
    """
    width = lanes * _LANE_BITS
    picks = map(masks.__getitem__, _lane_array(values.to_bytes(2 * len(wide), "little")))
    total = reduce(xor, map(and_, wide, picks), 0)
    slot = (1 << width) - 1
    return _horner(fld, [total >> (b * width) & slot for b in range(fld.k)], lanes)


def _horner(fld: Field, partial: Sequence[int], lanes: int) -> int:
    """sum_b x^b partial[b] lane-wise, by Horner's rule in x."""
    k = fld.k
    top = _repunit(lanes, _LANE_BITS) << (k - 1)
    reduction = fld.modulus ^ fld.size  # x^k in the field
    acc = 0
    for part in reversed(partial):
        # x * acc per lane: shift, and fold each lane's carried-out top bit back in
        high = acc & top
        acc = ((acc ^ high) << 1) ^ (high >> (k - 1)) * reduction ^ part
    return acc


# The most bytes a slot-mask table may take, counted as 2^k masks of
# k*lanes two-byte lanes.  At n = 512's k = 9, s = 2 that is 18 KiB; at
# n = 2048's k = 11, s = 64 it would be 2.75 MiB, enough to move a run's
# peak memory, so that shape stays bit-sliced.
_SLOT_MASK_BYTES = 1 << 16

# A column table as its kernel takes it (_table): plain columns and None,
# or widened columns and their slot masks.
_Table = tuple[tuple[int, ...], Optional[tuple[int, ...]]]


@lru_cache(maxsize=None)
def _slot_masks(k: int, lanes: int) -> tuple[int, ...]:
    """masks[v] has all bits of slot b set for each set bit b of v < 2^k,
    a slot being `lanes` lanes."""
    width = lanes * _LANE_BITS
    ones = (1 << width) - 1
    masks = [0]
    for b in range(k):
        slot = ones << (b * width)
        masks += [mask | slot for mask in masks]
    return tuple(masks)


def _table(k: int, lanes: int, columns: Iterable[int]) -> _Table:
    """A cached column table in the form its kernel takes: the columns
    widened to k slots and their slot masks for _slot_map when those masks
    fit _SLOT_MASK_BYTES, and otherwise the columns as they are with None."""
    if (1 << k) * k * lanes * 2 > _SLOT_MASK_BYTES:
        return tuple(columns), None
    repunit = _repunit(k, lanes * _LANE_BITS)  # a column times this fills k slots
    return tuple(column * repunit for column in columns), _slot_masks(k, lanes)


def _table_map(fld: Field, values: int, table: _Table, lanes: int) -> int:
    """The product of the lane values with a table from _table, packed as
    _lane_map packs it, by the kernel the table was built for."""
    columns, masks = table
    if masks is None:
        return _lane_map(fld, values, columns, lanes)
    return _slot_map(fld, values, columns, masks, lanes)


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
def _encoder_columns(k: int, m: int, s: int) -> _Table:
    """The _table whose column i packs the Lagrange basis value
    L_i(a) = M(a) w_i / (a - i) at the extra points a = m..m+s-1, with
    M(x) = prod_{j < m} (x - j)."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    # -log w_i for i < m, log M(a) for a >= m
    vanishing = _log_vanishing(fld, m, range(m + s))
    columns = (
        _pack_lanes(
            [exp[(vanishing[a] - vanishing[i] - log[a ^ i]) % order] for a in range(m, m + s)]
        )
        for i in range(m)
    )
    return _table(k, s, columns)


@lru_cache(maxsize=None)
def _syndrome_columns(k: int, npoints: int, s: int) -> _Table:
    """The _table whose column i packs w_i X_i^j for j < s, with the
    locator X_i = i + npoints."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    columns = (
        _pack_lanes([exp[(log[w] + j * log[i ^ npoints]) % order] for j in range(s)])
        for i, w in enumerate(_barycentric_weights(k, npoints))
    )
    return _table(k, s, columns)


@lru_cache(maxsize=None)
def _root_columns(k: int, npoints: int, s: int) -> _Table:
    """The _table whose column t packs X_i^-t over the points i < npoints,
    for t <= floor(s/2)."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    columns = (
        _pack_lanes([exp[-t * log[i ^ npoints] % order] for i in range(npoints)])
        for t in range(s // 2 + 1)
    )
    return _table(k, npoints, columns)


def rs_extra_evals(fld: Field, blocks: int, m: int, s: int) -> int:
    """Values at the points m..m+s-1 of the degree < m polynomial f through
    (i, b_i), for the m blocks b_i in the lanes of blocks (see _pack_lanes):
    f(a) = sum_i b_i L_i(a) over the Lagrange basis, packed in s lanes.
    Relies on 1 <= m, m + s < 2^k and field-element blocks (module docstring)."""
    return _table_map(fld, blocks, _encoder_columns(fld.k, m, s), s)


def _berlekamp_massey(fld: Field, syndromes: Sequence[int], packed: int) -> tuple[list[int], int]:
    """Shortest LFSR (connection polynomial, low degree first, and its length
    L) that generates the syndrome sequence, given also packed in lanes
    (_pack_lanes), as rs_correct holds it.

    A step whose discrepancy is 0 leaves the polynomial as it is.  So once
    2L <= n and step n's discrepancy is 0, one _lane_map over the polynomial
    gives the discrepancy sum_u lambda_u S_{j-u} of every later step j, its
    column u cut from the packed syndromes by a shift and a mask.  The loop
    stops if all are 0, and otherwise resumes at the first nonzero one.
    """
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    count = len(syndromes)
    lam, prev = [1], [1]
    length, shift, prev_disc, n = 0, 1, 1, 0
    while n < count:
        disc = syndromes[n]
        for lam_i, s_i in zip(lam[1:], reversed(syndromes[n - length : n])):
            if lam_i and s_i:
                disc ^= exp[log[lam_i] + log[s_i]]
        if disc == 0:
            skip = 1
            if 2 * length <= n < count - 1:
                later = count - 1 - n
                mask = (1 << (later * _LANE_BITS)) - 1
                columns = [packed >> ((n + 1 - u) * _LANE_BITS) & mask for u in range(length + 1)]
                discs = _lane_map(fld, _pack_lanes(lam[: length + 1]), columns, later)
                # the first nonzero lane, or all of them settled
                skip += ((discs & -discs).bit_length() - 1) // _LANE_BITS if discs else later
            shift += skip
            n += skip
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
        n += 1
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


def _locate(
    fld: Field, syndromes: Sequence[int], packed: int, n_points: int
) -> Optional[tuple[list[int], list[int]]]:
    """The error locator Lambda of nonzero syndromes over the points
    i < n_points and the points i at whose 1/X_i it vanishes, X_i =
    i ^ n_points, or None when Lambda cannot be a valid locator: its length
    L, from Berlekamp-Massey, exceeds s/2 for s = len(syndromes), or it does
    not have exactly L roots among the points.

    The roots come from one _table_map over the points, except at L = 1:
    1 + lambda_1 x vanishes at 1/X_i exactly when X_i = lambda_1, so its one
    candidate is i = lambda_1 ^ n_points, a point when below n_points."""
    s = len(syndromes)
    lam, length = _berlekamp_massey(fld, syndromes, packed)
    if 2 * length > s:
        return None
    if length == 1:
        positions = [lam[1] ^ n_points] if lam[1] ^ n_points < n_points else []
    else:
        at_points = _table_map(fld, _pack_lanes(lam), _root_columns(fld.k, n_points, s), n_points)
        positions = [i for i, v in enumerate(_unpack_lanes(at_points, n_points)) if not v]
    return (lam, positions) if len(positions) == length else None


def rs_correct(fld: Field, values: int, m: int, s: int) -> Optional[int]:
    """Recover the m block values from a corrupted copy plus s redundancy
    values, treating all m+s positions as potentially wrong.  values packs
    the m received blocks in lanes 0..m-1 and the s extras after them (see
    _pack_lanes).

    Returns the first m values of the unique codeword within floor(s/2) of
    the m+s given values, packed in m lanes; in particular correction is
    guaranteed when fewer than s/2 of the received blocks are corrupted and
    the extra values are intact.  Returns None when no codeword is that
    close (decode failure is a value, not an exception).

    The syndromes are S_j = sum_i w_i r_i X_i^j for j < s over all N = m+s
    points, with the barycentric weights w_i of the N points and the
    locators X_i = i + N, which are nonzero because N is not a point.
    _locate finds the error locator Lambda of length L by Berlekamp-Massey
    and its roots (a scan over the N points, or in closed form when L = 1,
    as at s = 2), or refuses it, and Forney's formula gives the values
    w_i e_i.  The syndromes and the root scan are one _table_map each.
    Berlekamp-Massey takes its steps one at a time, O(L) table steps each,
    until 2L <= n and a discrepancy is 0, then checks every later step in
    one _lane_map, one more for each nonzero discrepancy it resumes at.
    Forney takes O(L^2) table steps: Omega's L coefficients, and at each
    root a Horner evaluation of Omega and of Lambda', which in
    characteristic 2 is Lambda's odd half over x, a polynomial in x^2 of
    about L/2 terms.
    Relies on 1 <= m, m + s < 2^k and field-element values (module docstring).
    """
    n_points = m + s
    kept = (1 << (m * _LANE_BITS)) - 1  # the m block lanes
    packed = _table_map(fld, values, _syndrome_columns(fld.k, n_points, s), s)
    if not packed:
        return values & kept
    syndromes = _unpack_lanes(packed, s)
    located = _locate(fld, syndromes, packed, n_points)
    if located is None:
        return None
    lam, positions = located

    # Forney: w_i e_i = X_i Omega(1/X_i) / Lambda'(1/X_i), where
    # Omega = S Lambda mod x^L and Lambda'(x) = sum_j lambda_{2j+1} x^(2j).
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    omega = [0] * len(positions)
    for u, c in enumerate(lam[:-1]):
        if c:
            for t, s_t in enumerate(syndromes[: len(omega) - u], u):
                if s_t:
                    omega[t] ^= exp[log[c] + log[s_t]]
    odd = lam[1::2]
    weights = _barycentric_weights(fld.k, n_points)
    for i in positions:
        log_loc = log[i ^ n_points]
        num = _eval_at(fld, omega, order - log_loc)
        den = _eval_at(fld, odd, -2 * log_loc % order)
        if not num or not den:
            return None
        values ^= exp[(log_loc + log[num] - log[den] - log[weights[i]]) % order] << i * _LANE_BITS
    return values & kept
