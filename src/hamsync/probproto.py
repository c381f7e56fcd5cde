"""Probabilistic synchronization: affine permutations over a prime length,
block partitioning with a Reed-Solomon syndrome layer, and the one-round
hashed list-decoding protocol.

Success here is statistical, never assumed: every randomized construction
either recovers x, reports failure, or (with bounded probability) errs; the
harness measures the achieved rates against the analytic bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from random import Random
from typing import Sequence

from .bitword import Word, exact_fraction, pack_fields, unpack_fields
from .errors import CapabilityError, ContractError, RetryLimitError
from .gf2codes import LEADER_MAX_N, LinearCode, coset_leaders, rank, syndrome
from .gf2k_rs import _LANE_BITS, _pack_lanes, _repunit, _unpack_lanes, field, rs_correct, rs_extra_evals
from .hashing import is_prime, random_prime_hash, random_prime_pool
from .syncdet import SyncInstance, _check_list_radius, list_candidates
from .transport import RECV, Party, ProtocolOutcome, run_protocol

# Caps (m + s) * s for m blocks and s RS sums.  The product bounds the
# syndrome columns' m * s lanes, not both cached RS tables: with the root
# scan's (floor(s/2) + 1) * m they hold m * s + (floor(s/2) + 1) * m lanes,
# at most 2 m s, as plain columns.  Where the syndrome table fits
# gf2k_rs._GROUP_TABLE_BYTES as group tables it holds 16 * ceil(m/4) * s
# lanes instead, about 4 m s (54,299 lanes with the root scan's, against a
# product of 16,064, at n = 2048, k = 11, s = 64).  At the cap the tables
# are plain, hold about 4 MB (tracemalloc) and take 0.3-0.5 s to build
# (k = 14, s = 64, 2 vCPUs); no shape under it holds more, since grouped
# tables with the root scan's held at most 2.4 MB at k = 14.
_RS_LANE_BUDGET = 1 << 20


@lru_cache(maxsize=256)
def _proved_prime(p: int) -> bool:
    """is_prime(p), proved once per p: every smith trial maps over the same p."""
    return is_prime(p)


@dataclass(frozen=True, slots=True)
class AffinePermutation:
    """i -> (a*i + b) mod p on [0, p); a bijection exactly because p is prime
    and a is nonzero.  Every map checks that a and b are in range, since
    Bob's arrive from Alice; p is proved prime by hashing.is_prime once per
    value and remembered."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if not _proved_prime(self.p):
            raise ContractError(f"modulus must be prime, got {self.p}")
        if not 1 <= self.a < self.p:
            raise ContractError("multiplier must be in [1, p-1]")
        if not 0 <= self.b < self.p:
            raise ContractError("offset must be in [0, p-1]")


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n, testing n, n + 1, ... with hashing.is_prime.
    Smith runs it once per shape, in _composite_shape."""
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


def _gather_plan(a: int, p: int) -> tuple[int, int, int]:
    """(c, e, R) for apply_permutation: the step c with e = a*c mod p signed,
    the first among the convergents and semiconvergents of a/p with
    |e| <= K*c and c <= sqrt(p), for K = min(64, max(4, 2^17 // p)), and
    the copies R of the input, 1 + ceil(ceil(p/c) |e| / p).

    The walk keeps a step (c0, e0) with e0 > 0 and one (c1, e1) with e1 < 0,
    from (1, a) and (1, a - p), with c0 |e1| + c1 e0 = p.  The one with the
    larger |e| takes the other on up to floor(|e| / |e'|) times, and one
    division finds the first of those steps within K, so there is one turn
    per partial quotient of a/p.  While both steps miss K, p > 2K c0 c1, so
    a step within K has c <= ceil(p / (2K)), one slice per class and
    R <= K + 2.

    When the larger step cannot take the other on even once within sqrt(p),
    c0 + c1 > sqrt(p), so the other's |e| < p / sqrt(p): that step is taken
    with R = K + 2, and apply_permutation cuts each class into slices of
    (K + 1) p // |e| places, fewer than c + |e| / (K + 1) + 1 <= 2 sqrt(p) + 1
    slices in all.  Up to p = 4093 every multiplier finds a step within K
    before the cap; at p = 32749 the worst one takes 180 slices.
    """
    ratio = min(64, max(4, (1 << 17) // p))
    most = isqrt(p)
    pos, neg = (1, a), (1, a - p)
    c, e = pos if 2 * a <= p else neg
    while abs(e) > ratio * c:
        (c0, e0), (dc, de) = (pos, neg) if pos[1] > -neg[1] else (neg, pos)
        i = min(abs(e0) // abs(de), -(-(abs(e0) - ratio * c0) // (abs(de) + ratio * dc)))
        if c0 + i * dc > most:
            i = (most - c0) // dc
            if not i:
                return dc, de, ratio + 2
        c, e = c0 + i * dc, e0 + i * de
        if e > 0:
            pos = (c, e)
        else:
            neg = (c, e)
    span = -(-p // c) * abs(e)  # ceil(p/c) |e|, the farthest a class walks
    return c, e, 1 + -(-span // p)


def apply_permutation(perm: AffinePermutation, w: Word) -> Word:
    """Word with bit i equal to w's bit at (a*i + b) mod p, gathered in
    strided slices of a periodic copy rather than bit by bit.

    On w's binary string, whose place j holds bit p - 1 - j, the output has
    at place j the input's place (a*j + a - b - 1) mod p.  With a step c and
    e = a*c mod p, signed, the output places r, r + c, ... of class r < c
    read the input places from (a*r + a - b - 1) mod p on, stepping by e.
    In R copies of the string in a row, started in the last copy when e < 0,
    a run of up to (R - 1) p // |e| of those places is one slice
    ext[i : i + cnt*e : e] without a wrap.  _gather_plan bounds the work at
    2 sqrt(p) + 1 slices and R*p <= (K + 2)*p bytes copied,
    K = min(64, max(4, 2^17 // p)): at p = 2053 each class is one slice, at
    most 17 in all, and 133,445 bytes.
    """
    if w.n != perm.p:
        raise ContractError(f"word length {w.n} does not match the modulus {perm.p}")
    a, p = perm.a, perm.p
    c, e, copies = _gather_plan(a, p)
    ext = format(w.value, f"0{p}b").encode() * copies
    offset = 0 if e > 0 else (copies - 1) * p
    run = (copies - 1) * p // abs(e)
    out = bytearray(p)
    for r in range(c):
        j, i = r, (a * (r + 1) - perm.b - 1) % p + offset
        cnt = (p - 1 - r) // c + 1
        while cnt > run:  # past the sqrt(p) cap, a class may take several slices
            out[j : j + run * c : c] = ext[i : i + run * e : e]
            j, i, cnt = j + run * c, (i - offset + run * e) % p + offset, cnt - run
        out[j::c] = ext[i : i + cnt * e : e]
    return Word(int(out, 2), p)


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
        mask = run * _repunit(groups, period)
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


# ---------------------------------------------------------------------------
# one-round hashed list decoding


def one_round_prob_alice(code: LinearCode, x: Word, oversample: int, list_cap: int, rng: Random):
    """Single message: syndrome, a random prime from the pre-agreed pool,
    and x's residue, all packed."""
    h = syndrome(code, x)
    width = random_prime_pool(code.n, list_cap, oversample).width
    q = random_prime_hash(code.n, list_cap, oversample, rng)
    yield pack_fields([(h.value, h.n), (q, width), (x.value % q, width)])
    return None


def one_round_prob_bob(code: LinearCode, radius: int, y: Word, oversample: int, list_cap: int):
    msg = yield RECV
    width = random_prime_pool(code.n, list_cap, oversample).width
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
    """One round of (n - k) + 2 * bit_length(q_max) bits, q_max the largest
    prime of the pool (the (oversample * n * list_cap^2)-th prime): Alice
    sends (H x, q, x mod q); Bob hashes his candidate list with q and keeps
    the match.

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
    s: RS sums Alice sends; up to floor(s/2) wrong blocks heal.
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
            raise ContractError("need at least two RS sums")
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


def _block_syndromes(columns: Sequence[int], lanes: int, m: int) -> int:
    """H times each of the m blocks in the RS layer's lanes (block i in
    lane i, as _pack_lanes packs it), with syndrome i in lane i, bit-sliced
    over H's columns: (lanes >> b) & ones keeps bit b of every block at the
    bottom of its lane, and column b times that adds the column to every
    block with the bit set; a column is shorter than a lane, so none spills."""
    ones = _repunit(m, _LANE_BITS)  # bit 16i for every i < m
    acc = 0
    for b, column in enumerate(columns):
        acc ^= ((lanes >> b) & ones) * column
    return acc


@lru_cache(maxsize=None)
def _composite_shape(n: int, k: int, s: int) -> tuple[int, int, int]:
    """(p, m, width) for smith on n-bit words with k-bit blocks and s RS sums:
    the prime length p >= n it permutes, its m = ceil(p/k) blocks, and the
    bits that carry a and b.  Refuses the shapes the RS layer and the fix
    table cannot take.  Worked out once per shape; lru_cache keeps no
    exception, so a refused shape raises on every call."""
    if k > LEADER_MAX_N:  # which also fits every field in the RS layer's lanes
        raise CapabilityError(f"per-block decoding is capped at k <= {LEADER_MAX_N}")
    if n < 2:
        raise ContractError("composite sync needs n >= 2")
    p = next_prime_at_least(n)
    m = -(-p // k)
    if (1 << k) <= m + s:
        raise ContractError(f"field of size 2^{k} cannot hold {m} blocks plus {s} extras")
    if (m + s) * s > _RS_LANE_BUDGET:
        raise CapabilityError(
            f"(m + s) * s = {(m + s) * s} RS lanes is over the {_RS_LANE_BUDGET} budget"
        )
    return p, m, (p - 1).bit_length()


@lru_cache(maxsize=None)
def _check_slack(delta: Fraction, alpha: Fraction) -> None:
    """Refuses delta >= 1/2 - alpha; checked once per pair."""
    if delta >= Fraction(1, 2) - alpha:
        raise ContractError("need delta < 1/2 - alpha")


def composite_alice(x: Word, params: ProbParams, rng: Random):
    """One message, one direction: the fields (a, b, the inner code's k
    parity-check columns, all block syndromes, the s RS sums of the blocks),
    lowest bits first.  Bob takes the columns as they arrive.  From the
    sums (rs_extra_evals) Bob locates the blocks he got wrong."""
    k, s = params.k, params.s
    rows = k - params.inner_dim
    p, m, width_p = _composite_shape(x.n, k, s)
    perm = sample_permutation(p, rng)
    columns = sample_inner_code(k, params.inner_dim, rng)
    lanes = _relane(apply_permutation(perm, Word(x.value, p)).value, m, k, _LANE_BITS)
    syns = _block_syndromes(columns, lanes, m)
    sums = rs_extra_evals(field(k), lanes, m, s)
    matrix = 0
    for column in reversed(columns):  # column c in bits [c rows, (c + 1) rows)
        matrix = matrix << rows | column
    yield pack_fields(
        [
            (perm.a, width_p),
            (perm.b, width_p),
            (matrix, rows * k),
            (_relane(syns, m, _LANE_BITS, rows), rows * m),
            (_relane(sums, s, _LANE_BITS, k), s * k),
        ]
    )
    return None


def composite_bob(y: Word, params: ProbParams, radius: int):
    """Bob's half: recover x from y, with d(x, y) <= radius promised.

    Past the RS correction he refuses a word that contradicts what he
    already holds: a changed block whose syndrome is not Alice's
    (block_syndrome_mismatch; every estimate and every block of x has
    Alice's syndrome), or a word more than radius flips from y
    (promise_violation).  Neither costs a bit, and neither can refuse x."""
    k, s = params.k, params.s
    rows = k - params.inner_dim
    p, m, width_p = _composite_shape(y.n, k, s)

    a_val, b_val, matrix, syns, sums = unpack_fields(
        (yield RECV), [width_p, width_p, rows * k, rows * m, s * k]
    )
    perm = AffinePermutation(p, a_val, b_val)
    lanes = _relane(apply_permutation(perm, Word(y.value, p)).value, m, k, _LANE_BITS)
    low = (1 << rows) - 1
    columns = [matrix >> (c * rows) & low for c in range(k)]
    fix = coset_leaders(columns, rows)
    sent = _relane(syns, m, rows, _LANE_BITS)
    diffs = _unpack_lanes(sent ^ _block_syndromes(columns, lanes, m), m)
    estimates = lanes ^ _pack_lanes([fix[d] for d in diffs])
    fixed = rs_correct(field(k), estimates, _relane(sums, s, k, _LANE_BITS), m, s)
    diag = {
        "p": p,
        "block_count": m,
        "stage1_bits": 2 * width_p,
        "matrix_bits": rows * k,
        "syndrome_bits": rows * m,
        "nba_bits": 0,
        "rs_bits": s * k,
    }
    if fixed is None:
        return None, {**diag, "rs_failure": True}
    # A bit permutation is linear over xor, so x is y plus the inverse image
    # of what the correction changed in y's permuted word, whose padding is 0.
    changed = _relane(fixed ^ lanes, m, _LANE_BITS, k)
    if changed >> p:
        return None, {**diag, "padding_violation": True}
    a_inv = pow(a_val, -1, p)
    inverse = AffinePermutation(p, a_inv, -a_inv * b_val % p)
    flips = apply_permutation(inverse, Word(changed, p)).value
    if flips >> y.n:
        return None, {**diag, "padding_violation": True}
    if _block_syndromes(columns, fixed ^ estimates, m):
        return None, {**diag, "block_syndrome_mismatch": True}
    if flips.bit_count() > radius:
        return None, {**diag, "promise_violation": True}
    return Word(y.value ^ flips, y.n), diag


def composite_parties(
    instance: SyncInstance, params: ProbParams, rng: Random
) -> tuple[Party, Party]:
    """Alice's and Bob's generators for composite_prob_sync, after its checks,
    which run once per shape."""
    _check_slack(params.delta, instance.bounds.alpha)
    _composite_shape(instance.n, params.k, params.s)
    return (
        composite_alice(instance.x, params, rng),
        composite_bob(instance.y, params, instance.bounds.radius),
    )


def composite_prob_sync(instance: SyncInstance, params: ProbParams, rng: Random) -> ProtocolOutcome:
    """Permute both words with a shared random affine map, sync each k-bit
    block by syndrome plus nearest-codeword choice, then heal the blocks
    that came out wrong with a Reed-Solomon layer over GF(2^k): Alice sends
    s sums of her blocks, and Bob's own sums of his estimates differ from
    them by the syndromes of his wrong blocks.

    The permutation spreads the differences so most blocks carry at most
    one and decode exactly; a block needs >= 2 differences to come out
    wrong, and the RS layer absorbs up to floor(s/2) such blocks.
    Alice sends one message, so the run is one round: the fields a and b of
    the permutation, the inner code's k parity-check columns, every block's
    syndrome and the RS sums, lowest bits first.  Every in-run sampled
    parameter (permutation, inner code) is paid for in it:
    2 bit_length(p - 1) + (k - inner_dim)(k + m) + s k bits, for p the
    least prime >= n and m = ceil(p/k).  Bob reports failure when no block
    vector within floor(s/2) of his estimates has Alice's sums, the decoded
    word has nonzero padding, a corrected block's syndrome is not Alice's,
    or the word is further from y than the promise allows; a silent wrong
    answer needs the wrong-block count to exceed floor(s/2) and the result
    to pass all of these.
    """
    return run_protocol(*composite_parties(instance, params, rng))
