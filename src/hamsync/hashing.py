"""A Miller-Rabin prime test, the sieve behind random prime pools, injective
mod-prime hashing, and the candidate-set identification protocols.

The identification problem: Bob holds k distinct words, Alice holds one word
that is promised to be among them, and Bob must learn which one.  A prime
modulus that separates Bob's set lets Alice answer with a short fingerprint
instead of the word itself.

The two searches do not check their arguments.  find_injective_prime gets
k >= 1 distinct n-bit values: nba_parties and multi_nba_parties check Bob's
words with _check_candidates, and listdec_bob searches only a nonempty
list_candidates, whose values are distinct words of the code's length.
find_secondary_hash gets their residues under the prime q that
find_injective_prime returned, so k distinct values in [0, q).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from random import Random
from typing import Iterable, Sequence

from .bitword import Word, pack_fields, unpack_fields
from .errors import CapabilityError, ContractError, InvariantError, RetryLimitError
from .transport import RECV, Party, ProtocolOutcome, run_protocol


@lru_cache(maxsize=None)
def sieve_primes(limit: int) -> bytes:
    """Sieve of Eratosthenes over the odd numbers up to and including limit:
    byte j is 1 when 2j + 1 is prime, and 0 otherwise.  The one even prime,
    2, has no byte, so the primes up to limit are 2 and the odd numbers whose
    byte is set."""
    if limit < 2:
        raise ContractError(f"sieve limit must be >= 2, got {limit}")
    half = (limit + 1) // 2  # the odd numbers 1, 3, ..., up to limit
    flags = bytearray([1]) * half
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2  # p^2's byte; the odd multiples after it are p bytes apart
            flags[start::p] = bytes(len(range(start, half, p)))
    return bytes(flags)


# Miller-Rabin bases, and for each the least odd composite that passes it and
# every base before it (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
)
_MR_EXACT_BELOW = _MR_PSI[-1]
_MR_BASES_PRODUCT = math.prod(_MR_BASES)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin.  One gcd settles each m that a base
    divides; any other m is prime once it passes every base up to the first
    whose psi exceeds it.  Exact below _MR_EXACT_BELOW; larger m is refused."""
    if m >= _MR_EXACT_BELOW:
        raise ContractError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {m}")
    if m <= _MR_BASES[-1] or math.gcd(m, _MR_BASES_PRODUCT) != 1:
        return m in _MR_BASES  # every prime up to 37 is a base
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s with d odd
    d = (m - 1) >> s
    for base, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(base, d, m)
        if x != 1 and x != m - 1:
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        if m < psi:
            break
    return True


def find_injective_prime(values: Iterable[int], n: int) -> int:
    """First prime q >= ceil(k^2 * n / 2), which is >= k, that is injective
    on the k distinct n-bit values (module docstring); q <= max(2, k^2 * n).

    A prime >= B = ceil(k^2 * n / 2) fails only by dividing one of the
    C(k, 2) differences, each below 2^n and so with fewer than n / log2(B)
    such factors: at most about ln 2 of the primes in [B, k^2 * n].  Dusart's
    bounds, x / ln x * (1 + 1 / ln x) <= pi(x) for x >= 599 and pi(x) <=
    x / ln x * (1 + 1.2762 / ln x), leave more once k^2 * n >= 2^16; the tests
    count every smaller shape, and Bertrand covers k = 1."""
    vals = tuple(values)
    k = len(vals)
    top = k * k * n
    if top <= 4:  # one value, or the 1-bit words 0 and 1: 2 comes first and separates
        return 2
    for q in range((top + 1) // 2 | 1, top + 1, 2):  # past 2, only odd q can be prime
        if is_prime(q) and len({v % q for v in vals}) == k:
            return q
    raise InvariantError(f"no injective prime up to {top} for {k} values of {n} bits")


@dataclass(frozen=True, slots=True)
class SecondaryHash:
    """x -> ((s*x) mod v) mod 2k^2, compressing residues mod a prime v down
    to a range quadratic in the set size."""

    v: int
    s: int
    k: int

    def __call__(self, x: int) -> int:
        return ((self.s * x) % self.v) % (2 * self.k * self.k)

    @property
    def width(self) -> int:
        """Bits of one fingerprint, a value in [0, 2k^2)."""
        return (2 * self.k * self.k - 1).bit_length()


def find_secondary_hash(s_reduced: Iterable[int], v: int, k: int, rng: Random) -> SecondaryHash:
    """Uniformly sample s in [0, v) until the secondary hash is injective on
    the reduced set.  At least half the choices work, so the 64*k retry cap
    is only ever hit with broken inputs or astronomical bad luck.  Relies on
    k distinct values in [0, v) with v prime (module docstring)."""
    vals = tuple(s_reduced)
    for _ in range(64 * k):
        h = SecondaryHash(v, rng.randrange(v), k)
        if len({h(x) for x in vals}) == k:
            return h
    raise RetryLimitError(f"no injective secondary hash found in {64 * k} tries")


# Primes a pool may hold: 18 times problist's default pool (16 * 14 * 16^2);
# a full one keeps ~9.8 MB under tracemalloc, 8.6 of them sieve_primes' cached
# flags and 1.1 its running counts.
_PRIME_POOL_BUDGET = 1 << 20

_POOL_BLOCK = 64  # odd numbers per running count of a PrimePool


@dataclass(frozen=True, slots=True)
class PrimePool:
    """The first `count` primes, held as the sieve's flags over the odd
    numbers and, for each block of _POOL_BLOCK odd numbers, the count of
    primes before it (2 included).  `width` is the bit length of the
    largest prime, the fingerprint width both parties agree on."""

    flags: bytes
    counts: array
    count: int
    width: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", self.prime(self.count - 1).bit_length())

    def prime(self, i: int) -> int:
        """The i-th prime of the pool, from 0: one bisect over the running
        counts, then a scan of the one block that holds it."""
        if i == 0:
            return 2  # the one even prime, which the flags leave out
        counts, flags = self.counts, self.flags
        block = bisect_right(counts, i) - 1
        j = block * _POOL_BLOCK - 1
        for _ in range(i - counts[block] + 1):
            j = flags.index(1, j + 1)
        return 2 * j + 1


@lru_cache(maxsize=None)
def random_prime_pool(n: int, k: int, a: int) -> PrimePool:
    """The first a*n*k^2 primes: the pool random_prime_hash draws from.
    Both parties derive it from public parameters, so its largest prime
    fixes the fingerprint width in advance.

    The pool's largest prime is the smallest bound A with at least a*n*k^2
    primes below it, so a uniform draw collides on any fixed k-set of n-bit
    words with probability at most 1/a.  No prime is listed: the pool keeps
    sieve_primes' flags up to Rosser's bound on its largest prime and a
    running count per block of them, and finds a prime by its index.
    """
    if a < 2:
        raise ContractError(f"oversampling factor must be >= 2, got {a}")
    if n < 1 or k < 1:
        raise ContractError("n and k must be >= 1")
    count = a * n * k * k
    if count > _PRIME_POOL_BUDGET:
        raise CapabilityError(f"a pool of {count} primes is over the {_PRIME_POOL_BUDGET} budget")
    # Rosser's theorem: p_count < count*(ln count + ln ln count) for count >= 6.
    limit = 13 if count < 6 else int(count * (math.log(count) + math.log(math.log(count)))) + 1
    flags = sieve_primes(limit)
    ends = range(_POOL_BLOCK, len(flags) + _POOL_BLOCK, _POOL_BLOCK)
    per_block = map(flags.count, repeat(1), range(0, len(flags), _POOL_BLOCK), ends)
    counts = array("I", accumulate(per_block, initial=1))  # 2, then each block's odd primes
    if counts[-1] < count:
        raise InvariantError(f"sieve up to {limit} holds fewer than {count} primes")
    return PrimePool(flags, counts, count)


def random_prime_hash(n: int, k: int, a: int, rng: Random) -> int:
    """A uniform prime from the pool; x -> x mod q is the hash.  The index is
    rng.randrange(count), the draw rng.choice makes on a sequence of count
    primes."""
    pool = random_prime_pool(n, k, a)
    return pool.prime(rng.randrange(pool.count))


# ---------------------------------------------------------------------------
# identification protocols


def _nba_width(k: int, n: int) -> int:
    return max(2, k * k * n).bit_length()


def nba_alice(x: Word):
    """Alice's half: wait for the modulus, answer with her residue.

    The reply reuses the width of the received message, so no length
    negotiation is needed.  A modulus below 2 is refused: 0 has no residues
    and 1 maps every word to 0.
    """
    q_msg = yield RECV
    yield Word(x.value % _checked_modulus(q_msg.value), q_msg.n)
    return None


def _checked_modulus(q: int) -> int:
    if q < 2:
        raise ContractError(f"the modulus from bob must be >= 2, got {q}")
    return q


def nba_bob(candidates: Sequence[Word], n: int):
    """Bob's half: publish a prime separating his set, match the residue."""
    k = len(candidates)
    q = find_injective_prime((w.value for w in candidates), n)
    width = _nba_width(k, n)
    yield Word(q, width)
    (residue,) = unpack_fields((yield RECV), [width])
    matches = [w for w in candidates if w.value % q == residue]
    diag = {"q": q, "set_size": k}
    if len(matches) == 1:
        return matches[0], diag
    # Zero matches means the promise was broken; with an injective modulus
    # more than one match is impossible.
    if len(matches) > 1:
        raise InvariantError("injective modulus produced multiple matches")
    return None, diag


def nba_parties(x_alice: Word, y_bob: Iterable[Word], n: int) -> tuple[Party, Party]:
    """Alice's and Bob's generators for nba_protocol, after its checks."""
    cands = list(y_bob)
    _check_candidates(cands, n)
    if x_alice.n != n:
        raise ContractError("alice's word must have length n")
    return nba_alice(x_alice), nba_bob(cands, n)


def nba_protocol(x_alice: Word, y_bob: Iterable[Word], n: int) -> ProtocolOutcome:
    """Two-round identification: Bob sends a prime q in exactly
    bit_length(max(2, k^2*n)) bits, ceil(log2(k^2*n + 1)) once k^2*n >= 2,
    and Alice replies with x mod q in the same width: twice that in all.

    If x is among Bob's words he recovers it with certainty; if not, he
    either reports failure (no residue matched) or silently accepts a wrong
    word (a broken promise is undetectable when residues collide).
    """
    return run_protocol(*nba_parties(x_alice, y_bob, n))


def _check_candidates(cands: Sequence[Word], n: int) -> None:
    if not cands:
        raise ContractError("bob needs at least one candidate word")
    if any(w.n != n for w in cands):
        raise ContractError("all candidate words must have length n")
    if len({w.value for w in cands}) != len(cands):
        raise ContractError("candidate words must be distinct")


def multi_nba_alice(xs: Sequence[Word], k: int):
    """Alice's half when she holds several words from Bob's set: one packed
    reply carrying a short secondary-hash fingerprint per word.  A modulus
    below 2 is refused, as in nba_alice."""
    width_q = _nba_width(k, xs[0].n)
    q, s = unpack_fields((yield RECV), [width_q, width_q])
    secondary = SecondaryHash(_checked_modulus(q), s, k)
    yield pack_fields([(secondary(x.value % q), secondary.width) for x in xs])
    return None


def multi_nba_bob(candidates: Sequence[Word], n: int, l: int, rng: Random):
    k = len(candidates)
    q = find_injective_prime((w.value for w in candidates), n)
    reduced = [w.value % q for w in candidates]
    secondary = find_secondary_hash(reduced, q, k, rng)
    width_q = _nba_width(k, n)
    yield pack_fields([(q, width_q), (secondary.s, width_q)])
    reply = yield RECV
    values = unpack_fields(reply, [secondary.width] * l)
    table = {secondary(w.value % q): w for w in candidates}
    recovered: list[Word] = []
    for v in values:
        w = table.get(v)
        if w is None:
            return None, {"q": q, "s": secondary.s, "set_size": k}
        recovered.append(w)
    joined = pack_fields([(w.value, n) for w in recovered])
    return joined, {
        "q": q,
        "s": secondary.s,
        "set_size": k,
        "recovered_values": tuple(w.value for w in recovered),
    }


def multi_nba_parties(
    xs_alice: Sequence[Word], y_bob: Iterable[Word], n: int, rng: Random
) -> tuple[Party, Party]:
    """Alice's and Bob's generators for multi_nba_protocol, after its checks."""
    cands = list(y_bob)
    _check_candidates(cands, n)
    xs = list(xs_alice)
    if not 1 <= len(xs) <= len(cands):
        raise ContractError("alice needs between 1 and k words")
    if any(x.n != n for x in xs):
        raise ContractError("all of alice's words must have length n")
    return multi_nba_alice(xs, len(cands)), multi_nba_bob(cands, n, len(xs), rng)


def multi_nba_protocol(
    xs_alice: Sequence[Word], y_bob: Iterable[Word], n: int, rng: Random
) -> ProtocolOutcome:
    """Identify all l of Alice's words inside Bob's k-word set in two rounds.

    Round 1 carries the primary prime and the secondary multiplier, each in
    nba_protocol's bit_length(max(2, k^2*n)) bits; round 2 carries l
    fingerprints of ceil(log2(2k^2)) bits each, so the reply cost grows
    with log k instead of log n per word.  The recovered value is the
    concatenation of the l identified words in Alice's order (low bits
    first); per-word values are in diagnostics.
    """
    return run_protocol(*multi_nba_parties(xs_alice, y_bob, n, rng))
