"""Prime sieving, injective mod-prime hashing, and the candidate-set
identification protocols built from them.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from random import Random
from typing import Iterable, Iterator, Sequence

from .bitword import Word, pack_fields, unpack_fields
from .errors import CapabilityError, ContractError, InvariantError, RetryLimitError
from .transport import RECV, Party, ProtocolOutcome, run_protocol


@lru_cache(maxsize=None)
def sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes up to and including limit, by sieve of Eratosthenes."""
    if limit < 2:
        raise ContractError(f"sieve limit must be >= 2, got {limit}")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), flags))


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, math.isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def _primes_in_doubling_sieves() -> Iterator[int]:
    """Every prime in increasing order, sieved up to 64, 128, 256, ..., so a
    search that stops at q sieves up to at most max(64, 2q), and sieve_primes
    caches only power-of-two limits."""
    limit, done = 64, 0
    while True:
        primes = sieve_primes(limit)
        yield from primes[done:]
        limit, done = 2 * limit, len(primes)


def find_injective_prime(values: Iterable[int], n: int) -> int:
    """Smallest prime q <= max(2, k^2 * n) injective on the given k distinct
    n-bit values.  Such a prime always exists; failing to find one means the
    search itself is broken.  Relies on k >= 1 distinct n-bit values (module
    docstring).  The sieve grows with q, not with the bound, and primes
    below k are skipped.

    Each q scans the values in one fixed stride order, a step near k/phi
    coprime to k, not in the order given: values below q never collide mod
    q, so a scan of sorted values (listdec_bob's list is sorted) would meet
    its first repeated residue only after every value below q.
    """
    vals = tuple(values)
    k = len(vals)
    stride = round(k * 0.618)
    while math.gcd(stride, k) != 1:
        stride += 1
    scan = [vals[i * stride % k] for i in range(k)]
    bound = max(2, k * k * n)
    for q in _primes_in_doubling_sieves():
        if q > bound:
            break
        if q < k:
            continue
        seen = set()
        for x in scan:
            r = x % q
            if r in seen:
                break
            seen.add(r)
        else:
            return q
    raise InvariantError(f"no injective prime up to {bound} for {k} values of {n} bits")


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
# a full one keeps ~53 MB, 42 of them its primes and 11 sieve_primes' cache.
_PRIME_POOL_BUDGET = 1 << 20


@lru_cache(maxsize=None)
def random_prime_pool(n: int, k: int, a: int) -> tuple[int, ...]:
    """The first a*n*k^2 primes: the pool random_prime_hash draws from.
    Both parties derive it from public parameters, so its largest prime
    fixes the fingerprint width in advance.

    The pool's largest prime is the smallest bound A with at least a*n*k^2
    primes below it, so a uniform draw collides on any fixed k-set of n-bit
    words with probability at most 1/a.
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
    primes = sieve_primes(limit)
    if len(primes) < count:
        raise InvariantError(f"sieve up to {limit} holds fewer than {count} primes")
    return primes[:count]


def random_prime_hash(n: int, k: int, a: int, rng: Random) -> int:
    """A uniform prime from the pool; x -> x mod q is the hash."""
    return rng.choice(random_prime_pool(n, k, a))


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
