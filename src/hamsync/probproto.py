"""Probabilistic synchronization: affine permutations over a prime length,
block partitioning with a polynomial redundancy layer, and the one-round
hashed list-decoding protocol.

Success here is statistical, never assumed: every randomized construction
either recovers x, reports failure, or (with bounded probability) errs; the
harness measures the achieved rates against the analytic bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import xor
from random import Random
from typing import Sequence

from .bitword import Word, exact_fraction, pack_fields, unpack_fields
from .errors import CapabilityError, ContractError, RetryLimitError
from .gf2codes import LinearCode, rank, syndrome
from .gf2k_rs import _LANE_BITS, _lane_array, _pack_lanes, field, rs_correct, rs_extra_evals
from .hashing import is_prime, random_prime_hash, random_prime_pool
from .syncdet import SyncInstance, _check_list_radius, list_candidates
from .transport import RECV, Party, ProtocolOutcome, run_protocol

# Caps k, so that Bob's fix table walks at most 2^k - 1 words for its
# 2^(k - inner_dim) syndromes, and every field fits the RS layer's lanes.
INNER_MAX_K = 14

# Caps (m + s) * s for m blocks and s extras: the lanes of the RS layer's
# largest cached table, its syndrome columns.  At the cap one shape's tables
# take about 13 MB and 0.6 s to build (k = 14, s = 64, 2 vCPUs).
_RS_LANE_BUDGET = 1 << 20


@dataclass(frozen=True, slots=True)
class AffinePermutation:
    """i -> (a*i + b) mod p on [0, p); a bijection exactly because p is prime
    and a is nonzero."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ContractError(f"modulus must be prime, got {self.p}")
        if not 1 <= self.a < self.p:
            raise ContractError("multiplier must be in [1, p-1]")
        if not 0 <= self.b < self.p:
            raise ContractError("offset must be in [0, p-1]")


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n, by direct testing; fine at desk scale."""
    if n < 2:
        raise ContractError(f"need n >= 2, got {n}")
    m = n
    while not is_prime(m):
        m += 1
    return m


def sample_permutation(p: int, rng: Random) -> AffinePermutation:
    """Uniform member of the affine family; a drawn first, then b.
    AffinePermutation rejects a non-prime p."""
    a = rng.randrange(1, p)
    b = rng.randrange(p)
    return AffinePermutation(p, a, b)


def apply_permutation(perm: AffinePermutation, w: Word) -> Word:
    """Word with bit i equal to w's bit at (a*i + b) mod p, gathered in
    strided slices rather than bit by bit.

    Take a step 0 < c < p and e = a*c mod p, signed into (-p/2, p/2].  The
    outputs r, r + c, r + 2c, ... of residue class r < c read the inputs
    (a*r + b) mod p stepping by e, so the class is one slice bits[i:stop:e]
    of the bit string per stretch between wraps past p, and all of it lands
    in out[r::c] in one assignment.  That is about c + |e| slices in all;
    the c <= isqrt(p) + 1 minimising c + |e| keeps it within 2*sqrt(p) + 1,
    since by Dirichlet's approximation theorem some c <= sqrt(p) has
    |e| <= sqrt(p).
    """
    if w.n != perm.p:
        raise ContractError(f"word length {w.n} does not match the modulus {perm.p}")
    a, b, p = perm.a, perm.b, perm.p
    bits = format(w.value, f"0{p}b").encode()[::-1]  # bits[i] is bit i
    c, e = min(
        ((c, (a * c + p // 2) % p - p // 2) for c in range(1, min(isqrt(p) + 2, p))),
        key=lambda step: step[0] + abs(step[1]),
    )
    out = bytearray(p)
    for r in range(c):
        left = (p - 1 - r) // c + 1  # outputs r, r + c, ... below p
        i = (a * r + b) % p
        runs = []
        while left:
            room = p - i if e > 0 else i + 1  # inputs i, i + e, ... before the wrap
            n = min(left, -(-room // abs(e)))
            stop = i + n * e
            runs.append(bits[i : stop if stop >= 0 else None : e])
            left -= n
            i = stop % p
        out[r::c] = b"".join(runs)
    return Word(int(out[::-1], 2), p)


@lru_cache(maxsize=None)
def _relane_steps(count: int, src: int, dst: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) per step of _relane, for count fields going from a
    spacing of src bits to one of dst bits.

    Spreading to the wider spacing takes one step per bit j of the field
    index, top bit first: before step j, the fields sit in groups of 2^(j+1)
    at the narrow spacing, the groups at the wide one, and the upper half of
    each group moves up by 2^j times the difference of the spacings.  That
    half is one run of 2^j narrow fields, so a step's mask is one run
    repeated once per group, a multiple of a repunit, cut off after the last
    field.  Narrowing runs the same steps backwards, from the moved places.
    """
    if src == dst:
        return ()
    narrow, wide = sorted((src, dst))
    steps = []
    for j in reversed(range((count - 1).bit_length())):
        half = 1 << j
        period = 2 * half * wide
        groups = -(-count // (2 * half))
        run = ((1 << (half * narrow)) - 1) << (half * narrow)
        mask = run * (((1 << (period * groups)) - 1) // ((1 << period) - 1))
        last = count - 1
        end = (last >> (j + 1) << (j + 1)) * wide + (last & (2 * half - 1)) * narrow + narrow
        steps.append((mask & ((1 << end) - 1), half * (wide - narrow)))
    if src > dst:
        return tuple((mask << shift, shift) for mask, shift in reversed(steps))
    return tuple(steps)


def _relane(value: int, count: int, src: int, dst: int) -> int:
    """value's count fields of src bits (field i at bit i*src) moved to a
    spacing of dst bits, in about log2(count) masked shifts of the whole
    int.  Each field must fit in min(src, dst) bits, and value may have no
    bits above its last field."""
    if src < dst:
        for mask, shift in _relane_steps(count, src, dst):
            moving = value & mask
            value ^= moving ^ (moving << shift)
    else:
        for mask, shift in _relane_steps(count, src, dst):
            moving = value & mask
            value ^= moving ^ (moving >> shift)
    return value


def _split(value: int, count: int, width: int) -> list[int]:
    """value's count fields of width <= _LANE_BITS bits, low field first:
    relaned to the RS layer's lanes, then read as an array."""
    raw = _relane(value, count, width, _LANE_BITS).to_bytes(count * _LANE_BITS // 8, "little")
    return _lane_array(raw).tolist()


# ---------------------------------------------------------------------------
# one-round hashed list decoding


def one_round_prob_alice(code: LinearCode, x: Word, oversample: int, list_cap: int, rng: Random):
    """Single message: syndrome, a random prime from the pre-agreed pool,
    and x's residue, all packed."""
    h = syndrome(code, x)
    width = random_prime_pool(code.n, list_cap, oversample)[-1].bit_length()
    q = random_prime_hash(code.n, list_cap, oversample, rng)
    yield pack_fields([(h.value, h.n), (q, width), (x.value % q, width)])
    return None


def one_round_prob_bob(code: LinearCode, radius: int, y: Word, oversample: int, list_cap: int):
    msg = yield RECV
    width = random_prime_pool(code.n, list_cap, oversample)[-1].bit_length()
    h_val, q, residue = unpack_fields(msg, [code.n - code.k, width, width])
    values = list_candidates(code, h_val, y, radius)
    diag = {"q": q, "list_size": len(values)}
    if not values:
        return None, diag
    residues = [v % q for v in values]
    if len(set(residues)) != len(values):
        # The sampled prime does not separate the candidates; saying so is
        # the protocol's entire error budget.
        return None, {**diag, "hash_collision": True}
    matches = [v for v, r in zip(values, residues) if r == residue]
    if not matches:
        return None, diag
    return Word(matches[0], code.n), diag


def one_round_prob_parties(
    code: LinearCode,
    radius: int,
    instance: SyncInstance,
    oversample: int,
    rng: Random,
    *,
    list_cap: int = 16,
) -> tuple[Party, Party]:
    """Alice's and Bob's generators for one_round_prob_sync, after its checks."""
    _check_list_radius(code, radius, instance)
    random_prime_pool(code.n, list_cap, oversample)  # checks oversample and list_cap
    return (
        one_round_prob_alice(code, instance.x, oversample, list_cap, rng),
        one_round_prob_bob(code, radius, instance.y, oversample, list_cap),
    )


def one_round_prob_sync(
    code: LinearCode,
    radius: int,
    instance: SyncInstance,
    oversample: int,
    rng: Random,
    *,
    list_cap: int = 16,
) -> ProtocolOutcome:
    """One round: Alice sends (H x, q, x mod q); Bob hashes his candidate
    list with q and keeps the match.

    Bob checks that q is injective on his list and reports failure when it
    is not, so a wrong output without a failure report requires x to be
    missing from the list, which the promise rules out.  The pool q is drawn
    from is sized so a collision on any fixed list of at most list_cap words
    has probability at most 1/oversample.
    """
    return run_protocol(
        *one_round_prob_parties(code, radius, instance, oversample, rng, list_cap=list_cap)
    )


# ---------------------------------------------------------------------------
# composite protocol: permute, sync blockwise, correct blocks polynomially


@dataclass(frozen=True, slots=True)
class ProbParams:
    """Composite-protocol knobs.

    k: block size in bits, also the field degree of the redundancy layer.
    s: extra polynomial evaluations; up to floor(s/2) wrong blocks heal.
    delta: slack over alpha; blocks differing in >= (alpha+delta)*k
        positions count as dangerous in the analysis.
    inner_dim: dimension of the per-block code, drawn each trial as k
        distinct nonzero parity-check columns of k - inner_dim bits.
    """

    k: int
    s: int
    delta: Fraction
    inner_dim: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ContractError("block size must be >= 2")
        if self.s < 2:
            raise ContractError("need at least two extra evaluations")
        delta = exact_fraction(self.delta)
        object.__setattr__(self, "delta", delta)
        if not 0 < delta < Fraction(1, 2):
            raise ContractError(f"delta must be in (0, 1/2), got {delta}")
        if not 1 <= self.inner_dim < self.k:
            raise ContractError("inner dimension must be in [1, k)")
        # Distance >= 3 needs k distinct nonzero parity-check columns of
        # k - inner_dim bits, and there are only 2^(k - inner_dim) - 1 of
        # them.  sample_inner_code can draw every shape that passes.
        if self.k >= 1 << (self.k - self.inner_dim):
            raise ContractError(f"no [{self.k}, {self.inner_dim}] code has distance >= 3")


_INNER_CODE_ATTEMPTS = 500


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """Int c < width has bit r equal to bit c of masks[r]: columns from rows, or back."""
    rows = [format(mask, f"0{width}b") for mask in reversed(masks)]  # last mask, top bit first
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def sample_inner_code(k: int, dim: int, rng: Random) -> list[int]:
    """Parity-check columns of a uniformly random full-rank [k, dim] code of
    distance >= 3, so blocks with at most one difference decode exactly.
    That distance holds exactly when the columns are distinct and nonzero, so
    they are one draw of k from the 2^(k-dim) - 1, redrawn if they do not span."""
    for _ in range(_INNER_CODE_ATTEMPTS):
        columns = rng.sample(range(1, 1 << (k - dim)), k)
        if rank(columns) == k - dim:
            return columns
    raise RetryLimitError(f"no full-rank [{k}, {dim}] code in {_INNER_CODE_ATTEMPTS} samples")


def _block_syndromes(columns: Sequence[int], value: int, k: int, m: int) -> int:
    """H times each of the m k-bit blocks of value (block i is bits [ik, ik+k)),
    packed with syndrome i in bits [ik, ik+k), bit-sliced over H's columns:
    (value >> b) & lanes keeps bit b of every block at the bottom of its
    lane, and column b times that adds the column to every block with the
    bit set; a column is shorter than a lane, so none spills."""
    lanes = ((1 << (m * k)) - 1) // ((1 << k) - 1)  # bit ik for every i < m
    acc = 0
    for b, column in enumerate(columns):
        acc ^= ((value >> b) & lanes) * column
    return acc


@lru_cache(maxsize=None)
def _weight_walk(k: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero k-bit words, lightest first and increasing within a
    weight, as (word, place in the walk of the word less its lowest set bit
    (the zero word is place 0), index of that bit)."""
    words = [0] + sorted(range(1, 1 << k), key=int.bit_count)
    place = {word: i for i, word in enumerate(words)}
    return tuple((w, place[w & (w - 1)], (w & -w).bit_length() - 1) for w in words[1:])


def _fix_table(columns: Sequence[int], rows: int) -> dict[int, int]:
    """Guessed block difference for each of the 2^rows syndrome differences
    d: the first word of the weight walk with syndrome d, i.e. its lightest
    word, ties toward the smaller one.  Each d is settled once, not each block.

    That is the nearest-codeword rule, ties toward the smaller codeword:
    two words of one syndrome differ by a nonzero codeword, whose top bit's
    column depends on lower ones, so the pivot-only solution t of H t = d
    is 0 there and t ^ w orders like w.  The walk stops once every d is
    reached; if some never is, the received rows are dependent.
    """
    fix = {0: 0}
    syndromes = [0]  # of the words walked so far, by place
    for word, rest, low in _weight_walk(len(columns)):
        d = syndromes[rest] ^ columns[low]
        syndromes.append(d)
        if d not in fix:
            fix[d] = word
            if len(fix) == 1 << rows:
                return fix
    raise ContractError("the matrix rows are linearly dependent")


def _unpermuted(perm: AffinePermutation, diff: int) -> int:
    """The value w with apply_permutation(perm, w) = diff, for a p-bit diff
    with few set bits: bit j of diff moves to bit (a*j + b) mod p, and only
    the set bits are walked.

    In the binary string s of diff, s[i] is bit p - 1 - i, and bit j lands
    at string index p - 1 - (a*j + b) mod p of the output.  With j = p-1-i
    that index is (a*i + a - b - 1) mod p, and the i of the set bits are the
    running sums of the lengths of s.split("1"), plus one each, less one.
    """
    a, b, p = perm.a, perm.b, perm.p
    s = format(diff, f"0{p}b")
    out = bytearray(b"0" * p)
    for c in accumulate(map((1).__add__, map(len, s.split("1")[:-1]))):
        out[(a * c - b - 1) % p] = 49  # ord("1"), at i = c - 1
    return int(out, 2)


def composite_alice(x: Word, params: ProbParams, rng: Random):
    """Three messages, one direction: the permutation, then the inner-code
    matrix with all block syndromes, then the extra evaluations."""
    k, s = params.k, params.s
    rows = k - params.inner_dim
    p = next_prime_at_least(x.n)
    m = -(-p // k)
    perm = sample_permutation(p, rng)
    columns = sample_inner_code(k, params.inner_dim, rng)
    permuted = apply_permutation(perm, Word(x.value, p))
    width_p = (p - 1).bit_length()
    yield pack_fields([(perm.a, width_p), (perm.b, width_p)])
    matrix = sum(row << (r * k) for r, row in enumerate(_transpose(columns, rows)))
    syns = _relane(_block_syndromes(columns, permuted.value, k, m), m, k, rows)
    yield Word(matrix | syns << (rows * k), rows * (k + m))
    extra = rs_extra_evals(field(k), _split(permuted.value, m, k), s)
    yield Word(_relane(_pack_lanes(extra), s, _LANE_BITS, k), s * k)
    return None


def composite_bob(y: Word, params: ProbParams):
    k, s = params.k, params.s
    rows = k - params.inner_dim
    p = next_prime_at_least(y.n)
    m = -(-p // k)
    width_p = (p - 1).bit_length()

    msg1 = yield RECV
    a_val, b_val = unpack_fields(msg1, [width_p, width_p])
    perm = AffinePermutation(p, a_val, b_val)
    permuted = apply_permutation(perm, Word(y.value, p)).value

    matrix, syns = unpack_fields((yield RECV), [rows * k, rows * m])
    columns = _transpose(_split(matrix, rows, k), k)
    fix = _fix_table(columns, rows)
    sent = _relane(syns, m, rows, k)
    diffs = _split(sent ^ _block_syndromes(columns, permuted, k, m), m, k)
    estimates = list(map(xor, _split(permuted, m, k), map(fix.__getitem__, diffs)))

    (extra,) = unpack_fields((yield RECV), [s * k])
    fixed = rs_correct(field(k), estimates, _split(extra, s, k))
    diag = {
        "p": p,
        "block_count": m,
        "stage1_bits": msg1.n,
        "matrix_bits": rows * k,
        "syndrome_bits": rows * m,
        "nba_bits": 0,
        "rs_bits": s * k,
    }
    if fixed is None:
        return None, {**diag, "rs_failure": True}
    corrected = _relane(_pack_lanes(fixed), m, _LANE_BITS, k)
    if corrected >> p:
        return None, {**diag, "padding_violation": True}
    # A bit permutation is linear over xor, so x is y plus the inverse image
    # of what the correction changed in y's permuted word.
    flips = _unpermuted(perm, corrected ^ permuted)
    if flips >> y.n:
        return None, {**diag, "padding_violation": True}
    return Word(y.value ^ flips, y.n), diag


def composite_parties(
    instance: SyncInstance, params: ProbParams, rng: Random
) -> tuple[Party, Party]:
    """Alice's and Bob's generators for composite_prob_sync, after its checks."""
    if params.delta >= Fraction(1, 2) - instance.bounds.alpha:
        raise ContractError("need delta < 1/2 - alpha")
    if params.k > INNER_MAX_K:
        raise CapabilityError(f"per-block decoding is capped at k <= {INNER_MAX_K}")
    if instance.n < 2:
        raise ContractError("composite sync needs n >= 2")
    m = -(-next_prime_at_least(instance.n) // params.k)
    if (1 << params.k) <= m + params.s:
        raise ContractError(
            f"field of size 2^{params.k} cannot hold {m} blocks plus {params.s} extras"
        )
    if (m + params.s) * params.s > _RS_LANE_BUDGET:
        raise CapabilityError(
            f"(m + s) * s = {(m + params.s) * params.s} RS lanes is over the {_RS_LANE_BUDGET} budget"
        )
    return composite_alice(instance.x, params, rng), composite_bob(instance.y, params)


def composite_prob_sync(instance: SyncInstance, params: ProbParams, rng: Random) -> ProtocolOutcome:
    """Permute both words with a shared random affine map, sync each k-bit
    block by syndrome plus nearest-codeword choice, then heal the blocks
    that came out wrong with s extra evaluations of the block-interpolating
    polynomial over GF(2^k).

    The permutation spreads the differences so most blocks carry at most
    one and decode exactly; a block needs >= 2 differences to come out
    wrong, and the polynomial layer absorbs up to floor(s/2) such blocks.
    All messages flow from Alice to Bob, so the run is one round, and every
    in-run sampled parameter (permutation, matrix) is paid for in the
    transcript.  Bob reports failure when the polynomial fit breaks down or
    the decoded word has nonzero padding; a silent wrong answer needs the
    wrong-block count to exceed floor(s/2) and the result to still look
    consistent.
    """
    return run_protocol(*composite_parties(instance, params, rng))
