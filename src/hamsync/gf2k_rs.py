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
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import xor
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
# evaluation-code redundancy and correction


def _check_points(fld: Field, m: int, s: int) -> None:
    """m data points plus s extra points, with a spare field element left over:
    the decoder shifts every point by m + s, which must not be a point."""
    if m < 1:
        raise ContractError("need at least one block")
    if s < 0:
        raise ContractError("s must be nonnegative")
    if m + s >= fld.size:
        raise ContractError(
            f"m + s = {m + s} leaves no spare element in the field of size {fld.size}"
        )


def _check_values(fld: Field, values: Sequence[int]) -> None:
    if values and (min(values) < 0 or max(values) >= fld.size):
        raise ContractError("values must be field elements")


@lru_cache(maxsize=None)
def _barycentric_weights(k: int, npoints: int) -> tuple[int, ...]:
    """w_i = 1 / prod_{j != i} (a_i - a_j) over the points a = 0..npoints-1.
    Shifting every point by the same c leaves the differences, and so the
    weights, unchanged."""
    fld = field(k)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    return tuple(
        exp[-sum(log[i ^ j] for j in range(npoints) if j != i) % order]
        for i in range(npoints)
    )


@lru_cache(maxsize=None)
def _log_master_at_extras(k: int, m: int, s: int) -> tuple[int, ...]:
    """log M(a) for M(x) = prod_{i < m} (x - i) at the extra points a = m..m+s-1."""
    fld = field(k)
    order = fld.size - 1
    return tuple(sum(fld.log[a ^ i] for i in range(m)) % order for a in range(m, m + s))


def rs_extra_evals(fld: Field, blocks: Sequence[int], s: int) -> list[int]:
    """Values at the points m..m+s-1 of the degree < m polynomial f through
    (i, blocks[i]), by the barycentric form f(a) = M(a) sum_i w_i b_i / (a - i)."""
    m = len(blocks)
    _check_points(fld, m, s)
    _check_values(fld, blocks)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    # log(w_i b_i) lifted into [order, 2 order) so that subtracting a log
    # stays a valid index of the doubled exp table.
    lifted = [
        (i, (log[w] + log[b]) % order + order)
        for i, (w, b) in enumerate(zip(_barycentric_weights(fld.k, m), blocks))
        if b
    ]
    out = []
    for a, log_master in zip(range(m, m + s), _log_master_at_extras(fld.k, m, s)):
        acc = reduce(xor, [exp[lt - log[a ^ i]] for i, lt in lifted], 0)
        out.append(exp[log_master + log[acc]] if acc else 0)
    return out


def _berlekamp_massey(fld: Field, syndromes: Sequence[int]) -> tuple[list[int], int]:
    """Shortest LFSR (connection polynomial, low degree first, and its length
    L) that generates the syndrome sequence."""
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
        log_coef = log[fld.mul(disc, fld.inv(prev_disc))]
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
    """
    m = len(received)
    s = len(extra)
    _check_points(fld, m, s)
    values = [*received, *extra]
    _check_values(fld, values)
    if s == 0:
        return list(received)
    n_points = m + s
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    weights = _barycentric_weights(fld.k, n_points)
    log_loc = [log[i ^ n_points] for i in range(n_points)]

    # S_j is the xor of w_i r_i X_i^j; every step multiplies each term by X_i.
    terms = [exp[log[w] + log[r]] for w, r in zip(weights, values) if r]
    term_locs = [lx for lx, r in zip(log_loc, values) if r]
    syndromes = []
    for _ in range(s):
        syndromes.append(reduce(xor, terms, 0))
        terms = [exp[log[t] + lx] for t, lx in zip(terms, term_locs)]
    if not any(syndromes):
        return list(received)

    lam, length = _berlekamp_massey(fld, syndromes)
    if 2 * length > s:
        return None
    # Position i is wrong exactly when the locator vanishes at 1/X_i.
    positions = [i for i, lx in enumerate(log_loc) if not _eval_at(fld, lam, order - lx)]
    if len(positions) != length:
        return None

    # Forney: w_i e_i = X_i Omega(1/X_i) / Lambda'(1/X_i), where
    # Omega = S Lambda mod x^L and Lambda' keeps the odd-degree terms.
    omega = [
        reduce(xor, [fld.mul(lam[u], syndromes[t - u]) for u in range(t + 1)], 0)
        for t in range(length)
    ]
    derivative = [c if t % 2 == 0 else 0 for t, c in enumerate(lam[1:])]
    out = list(received)
    for i in positions:
        num = _eval_at(fld, omega, order - log_loc[i])
        den = _eval_at(fld, derivative, order - log_loc[i])
        if not num or not den:
            return None
        if i < m:
            out[i] ^= exp[(log_loc[i] + log[num] - log[den] - log[weights[i]]) % order]
    return out
