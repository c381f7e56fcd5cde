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

from .bitword import Word, pack_fields, unpack_fields
from .errors import CapabilityError, ContractError, InvariantError, RetryLimitError
from .gf2codes import (
    AffineSolver,
    LinearCode,
    code_from_parity,
    list_decode_exhaustive,
    mat_vec,
    min_distance,
    random_linear_code,
    syndrome,
    unique_decode,
)
from .gf2k_rs import field, rs_correct, rs_extra_evals
from .hashing import is_prime, random_prime_bound, random_prime_hash
from .syncdet import SyncInstance, _check_list_radius, coset_representative
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

    def image(self, i: int) -> int:
        if not 0 <= i < self.p:
            raise ContractError(f"index {i} outside [0, {self.p})")
        return (self.a * i + self.b) % self.p

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
    """Uniform member of the affine family; a drawn first, then b."""
    if not is_prime(p):
        raise ContractError(f"modulus must be prime, got {p}")
    a = rng.randrange(1, p)
    b = rng.randrange(p)
    return AffinePermutation(p, a, b)


def apply_permutation(perm: AffinePermutation, w: Word) -> Word:
    """Word with bit i equal to w's bit at image(i)."""
    if w.n != perm.p:
        raise ContractError(f"word length {w.n} does not match the modulus {perm.p}")
    value = 0
    wv = w.value
    a, b, p = perm.a, perm.b, perm.p
    pos = b
    for i in range(p):
        value |= ((wv >> pos) & 1) << i
        pos += a
        if pos >= p:
            pos -= p
    return Word(value, p)


def block_values(w: Word, k: int) -> list[int]:
    """The word split into ceil(n/k) blocks of k bits, low block first; the
    last block is implicitly zero-padded."""
    if k < 1:
        raise ContractError("block size must be >= 1")
    m = -(-w.n // k)
    mask = (1 << k) - 1
    return [(w.value >> (i * k)) & mask for i in range(m)]


def dangerous_blocks(
    xp: Word, yp: Word, perm: AffinePermutation, k: int, threshold_frac
) -> int:
    """Number of blocks where the permuted words differ in at least
    threshold_frac * k positions.  Pad positions are zero on both sides, so
    they never contribute."""
    if xp.n != yp.n:
        raise ContractError("padded words must have equal length")
    thr = Fraction(threshold_frac) * k
    diff = apply_permutation(perm, xp ^ yp)
    return sum(1 for blk in block_values(diff, k) if blk.bit_count() >= thr)


# ---------------------------------------------------------------------------
# one-round hashed list decoding


def one_round_prob_alice(code: LinearCode, x: Word, oversample: int, list_cap: int, rng: Random):
    """Single message: syndrome, a random prime from the pre-agreed pool,
    and x's residue, all packed."""
    h = syndrome(code, x)
    width = random_prime_bound(code.n, list_cap, oversample).bit_length()
    q = random_prime_hash(code.n, list_cap, oversample, rng).q
    yield pack_fields([(h.value, h.n), (q, width), (x.value % q, width)])
    return None


def one_round_prob_bob(code: LinearCode, radius: int, y: Word, oversample: int, list_cap: int):
    msg = yield RECV
    width = random_prime_bound(code.n, list_cap, oversample).bit_length()
    h_val, q, residue = unpack_fields(msg, [code.n - code.k, width, width])
    y_prime = coset_representative(code, h_val, y)
    values = sorted(
        (y_prime ^ y ^ z).value for z in list_decode_exhaustive(code, y_prime, radius)
    )
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
        delta = self.delta
        if not isinstance(delta, Fraction):
            delta = Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)
            object.__setattr__(self, "delta", delta)
        if not 0 < delta < Fraction(1, 2):
            raise ContractError(f"delta must be in (0, 1/2), got {delta}")
        if not 1 <= self.inner_dim < self.k:
            raise ContractError("inner dimension must be in [1, k)")


def sample_inner_code(k: int, dim: int, rng: Random, max_attempts: int = 500) -> LinearCode:
    """Random [k, dim] code resampled until its minimum distance is at least
    3, so blocks that picked up at most one difference decode exactly."""
    for _ in range(max_attempts):
        code = random_linear_code(k, dim, rng)
        if min_distance(code) >= 3:
            return code
    raise RetryLimitError(f"no [{k}, {dim}] code of distance >= 3 in {max_attempts} samples")


def composite_alice(x: Word, params: ProbParams, rng: Random):
    """Three messages, one direction: the permutation, then the inner-code
    matrix with all block syndromes, then the extra evaluations."""
    p = next_prime_at_least(x.n)
    perm = sample_permutation(p, rng)
    inner = sample_inner_code(params.k, params.inner_dim, rng)
    blocks = block_values(apply_permutation(perm, Word(x.value, p)), params.k)
    width_p = (p - 1).bit_length()
    yield pack_fields([(perm.a, width_p), (perm.b, width_p)])
    rows = params.k - params.inner_dim
    fields = [(mask, params.k) for mask in inner.h.row_masks]
    fields += [(mat_vec(inner.h, blk), rows) for blk in blocks]
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
    yblocks = block_values(apply_permutation(perm, Word(y.value, p)), k)
    m = len(yblocks)

    msg2 = yield RECV
    vals = unpack_fields(msg2, [k] * rows + [rows] * m)
    inner = code_from_parity(tuple(vals[:rows]), k)
    solver = AffineSolver(inner.h)
    estimates = []
    for blk, syn in zip(yblocks, vals[rows:]):
        t = solver.solve(syn ^ mat_vec(inner.h, blk))
        if t is None:
            raise InvariantError("inconsistent block system under a full-rank matrix")
        z = unique_decode(inner, Word(t, k))
        estimates.append(t ^ z.value ^ blk)

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
