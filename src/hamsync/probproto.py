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
from random import Random
from typing import Sequence

from .bitword import Word, exact_fraction, pack_fields, unpack_fields
from .errors import CapabilityError, ContractError, InvariantError, RetryLimitError
from .gf2codes import (
    AffineSolver,
    LinearCode,
    random_parity_rows,
    syndrome,
    unique_decode,
)
from .gf2k_rs import field, rs_correct, rs_extra_evals
from .hashing import is_prime, random_prime_bound, random_prime_hash
from .syncdet import SyncInstance, _check_list_radius, list_candidates
from .transport import RECV, Party, ProtocolOutcome, run_protocol

INNER_MAX_K = 14  # per-block decoding enumerates 2^inner_dim words of k bits


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

    def inverse(self) -> "AffinePermutation":
        a_inv = pow(self.a, -1, self.p)
        return AffinePermutation(self.p, a_inv, (-a_inv * self.b) % self.p)


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
    """Word with bit i equal to w's bit at (a*i + b) mod p."""
    if w.n != perm.p:
        raise ContractError(f"word length {w.n} does not match the modulus {perm.p}")
    a, b, p = perm.a, perm.b, perm.p
    bits = format(w.value, f"0{p}b")[::-1]  # bits[i] is bit i
    gathered = "".join([bits[(a * i + b) % p] for i in range(p)])
    return Word(int(gathered[::-1], 2), p)


def block_values(w: Word, k: int) -> list[int]:
    """The word split into ceil(n/k) blocks of k bits, low block first; the
    last block is implicitly zero-padded."""
    if k < 1:
        raise ContractError("block size must be >= 1")
    m = -(-w.n // k)
    mask = (1 << k) - 1
    return [(w.value >> (i * k)) & mask for i in range(m)]


# ---------------------------------------------------------------------------
# one-round hashed list decoding


def one_round_prob_alice(code: LinearCode, x: Word, oversample: int, list_cap: int, rng: Random):
    """Single message: syndrome, a random prime from the pre-agreed pool,
    and x's residue, all packed."""
    h = syndrome(code, x)
    width = random_prime_bound(code.n, list_cap, oversample).bit_length()
    q = random_prime_hash(code.n, list_cap, oversample, rng)
    yield pack_fields([(h.value, h.n), (q, width), (x.value % q, width)])
    return None


def one_round_prob_bob(code: LinearCode, radius: int, y: Word, oversample: int, list_cap: int):
    msg = yield RECV
    width = random_prime_bound(code.n, list_cap, oversample).bit_length()
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
    random_prime_bound(code.n, list_cap, oversample)  # checks oversample and list_cap
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
    inner_dim: dimension of the sampled per-block code.
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
        # them; otherwise sample_inner_code fails inside the first trial.
        if self.k >= 1 << (self.k - self.inner_dim):
            raise ContractError(f"no [{self.k}, {self.inner_dim}] code has distance >= 3")


_INNER_CODE_ATTEMPTS = 500


def _parity_columns(row_masks: Sequence[int], k: int) -> list[int]:
    """Column c of a parity-check matrix as an int whose bit r is row r's bit c."""
    rows = [format(mask, f"0{k}b") for mask in reversed(row_masks)]  # last row, top bit first
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _distance_at_least_3(row_masks: Sequence[int], k: int) -> bool:
    """Whether the binary code with these parity-check rows has minimum
    distance >= 3: a codeword of weight 1 is a zero column of H, and one of
    weight 2 is a pair of equal columns."""
    columns = _parity_columns(row_masks, k)
    return 0 not in columns and len(set(columns)) == k


def sample_inner_code(k: int, dim: int, rng: Random) -> tuple[int, ...]:
    """Parity-check rows of a random [k, dim] code, resampled until its
    minimum distance is at least 3, so blocks that picked up at most one
    difference decode exactly."""
    for _ in range(_INNER_CODE_ATTEMPTS):
        masks = random_parity_rows(k, dim, rng)
        if _distance_at_least_3(masks, k):
            return masks
    raise RetryLimitError(
        f"no [{k}, {dim}] code of distance >= 3 in {_INNER_CODE_ATTEMPTS} samples"
    )


def _block_syndromes(row_masks: Sequence[int], value: int, k: int, m: int) -> list[int]:
    """H times each of the m k-bit blocks of value (block i is bits
    [ik, ik+k)), bit-sliced: (value >> b) & lanes keeps bit b of every block
    at the bottom of its lane, and multiplying it by column b of H adds that
    column to every block with the bit set.  A column is shorter than a
    lane, so no product spills into the next block."""
    lanes = ((1 << (m * k)) - 1) // ((1 << k) - 1)  # bit ik for every i < m
    acc = 0
    for b, column in enumerate(_parity_columns(row_masks, k)):
        acc ^= ((value >> b) & lanes) * column
    mask = (1 << k) - 1
    return [(acc >> (i * k)) & mask for i in range(m)]


def composite_alice(x: Word, params: ProbParams, rng: Random):
    """Three messages, one direction: the permutation, then the inner-code
    matrix with all block syndromes, then the extra evaluations."""
    p = next_prime_at_least(x.n)
    perm = sample_permutation(p, rng)
    masks = sample_inner_code(params.k, params.inner_dim, rng)
    permuted = apply_permutation(perm, Word(x.value, p))
    blocks = block_values(permuted, params.k)
    width_p = (p - 1).bit_length()
    yield pack_fields([(perm.a, width_p), (perm.b, width_p)])
    rows = params.k - params.inner_dim
    fields = [(mask, params.k) for mask in masks]
    fields += [
        (syn, rows) for syn in _block_syndromes(masks, permuted.value, params.k, len(blocks))
    ]
    yield pack_fields(fields)
    extra = rs_extra_evals(field(params.k), blocks, params.s)
    yield pack_fields([(e, params.k) for e in extra])
    return None


def composite_bob(y: Word, params: ProbParams):
    p = next_prime_at_least(y.n)
    k, s = params.k, params.s
    rows = k - params.inner_dim
    width_p = (p - 1).bit_length()

    msg1 = yield RECV
    a_val, b_val = unpack_fields(msg1, [width_p, width_p])
    perm = AffinePermutation(p, a_val, b_val)
    permuted = apply_permutation(perm, Word(y.value, p))
    yblocks = block_values(permuted, k)
    m = len(yblocks)

    msg2 = yield RECV
    vals = unpack_fields(msg2, [k] * rows + [rows] * m)
    inner = LinearCode(k, vals[:rows])
    # A block's estimate depends only on its syndrome difference d: the
    # guessed difference is the solution t of H t = d minus t's nearest
    # codeword (ties toward the smaller value).  So decode each of the
    # 2^rows values of d once, not each block.
    solver = AffineSolver(inner.h, k)
    fix = []
    for d in range(1 << rows):
        t = solver.solve(d)
        if t is None:
            raise InvariantError("inconsistent block system under a full-rank matrix")
        fix.append(t ^ unique_decode(inner, Word(t, k)).value)
    ysyns = _block_syndromes(inner.h, permuted.value, k, m)
    estimates = [blk ^ fix[syn ^ ysyn] for blk, syn, ysyn in zip(yblocks, vals[rows:], ysyns)]

    msg3 = yield RECV
    extra = unpack_fields(msg3, [k] * s)
    fixed = rs_correct(field(k), estimates, extra)
    diag = {
        "p": p,
        "block_count": m,
        "stage1_bits": msg1.n,
        "matrix_bits": rows * k,
        "syndrome_bits": rows * m,
        "nba_bits": 0,
        "rs_bits": msg3.n,
    }
    if fixed is None:
        return None, {**diag, "rs_failure": True}
    acc = 0
    for i, blk in enumerate(fixed):
        acc |= blk << (i * k)
    if acc >> p:
        return None, {**diag, "padding_violation": True}
    unpermuted = apply_permutation(perm.inverse(), Word(acc, p))
    if unpermuted.value >> y.n:
        return None, {**diag, "padding_violation": True}
    return Word(unpermuted.value, y.n), diag


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
