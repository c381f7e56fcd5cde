import itertools
import random

import pytest

from hamsync.bitword import Word
from hamsync.errors import ContractError
from hamsync.hashing import (
    SecondaryHash,
    find_injective_prime,
    find_secondary_hash,
    first_primes,
    is_prime,
    multi_nba_protocol,
    nba_protocol,
    random_prime_bound,
    random_prime_pool,
    sieve_primes,
)


def trial_division(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def injective(q: int, vals) -> bool:
    return len({v % q for v in vals}) == len(vals)


def test_sieve_matches_trial_division():
    table = sieve_primes(500)
    assert set(table) == {m for m in range(501) if trial_division(m)}


def test_is_prime_matches_trial_division():
    for m in range(2000):
        assert is_prime(m) == trial_division(m)


def test_first_primes_prefix():
    ps = first_primes(100)
    assert len(ps) == 100
    assert ps[:8] == (2, 3, 5, 7, 11, 13, 17, 19)
    assert ps[99] == 541
    assert first_primes(10) == ps[:10]


def test_find_injective_prime_smallest_case():
    # 1 and 3 collide mod 2; mod 3 gives residues {1, 2, 0}
    h = find_injective_prime([1, 2, 3], 4)
    assert h.q == 3
    assert h(5) == 2


def test_find_injective_prime_is_minimal():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(3, 10)
        k = rng.randint(1, 6)
        vals = rng.sample(range(1 << n), k)
        h = find_injective_prime(vals, n)
        assert h.q <= max(2, k * k * n)
        assert injective(h.q, vals)
        for q in sieve_primes(h.q):
            if q < h.q:
                assert not injective(q, vals)


def test_find_injective_prime_contracts():
    with pytest.raises(ContractError):
        find_injective_prime([], 4)
    with pytest.raises(ContractError):
        find_injective_prime([1, 1], 4)
    with pytest.raises(ContractError):
        find_injective_prime([16], 4)


def test_nba_bit_budget_frozen():
    # k=4 words of 16 bits: q fits in ceil(log2(k^2 n + 1)) = 9 bits, and the
    # reply mirrors that width, so the whole exchange is 18 bits in 2 rounds.
    rng = random.Random(22)
    words = [Word(v, 16) for v in rng.sample(range(1 << 16), 4)]
    out = nba_protocol(words[2], words, 16)
    assert out.recovered == words[2]
    assert [m.payload.n for m in out.transcript.messages] == [9, 9]
    assert out.transcript.total_bits == 18
    assert out.transcript.rounds == 2


def test_nba_exhaustive_tiny():
    n = 3
    for k in range(1, 5):
        for subset in itertools.combinations(range(1 << n), k):
            words = [Word(v, n) for v in subset]
            for x in words:
                out = nba_protocol(x, words, n)
                assert out.recovered == x


def test_nba_random_sets():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 24)
        k = rng.randint(1, min(8, 1 << n))
        vals = rng.sample(range(1 << n), k)
        words = [Word(v, n) for v in vals]
        x = words[rng.randrange(k)]
        out = nba_protocol(x, words, n)
        assert out.recovered == x
        assert out.transcript.rounds == 2


def test_nba_outside_set_never_invents_certainty():
    rng = random.Random(24)
    n = 10
    failures = 0
    for _ in range(200):
        vals = rng.sample(range(1 << n), 5)
        x = Word(vals[0], n)
        words = [Word(v, n) for v in vals[1:]]
        out = nba_protocol(x, words, n)
        if out.reported_failure:
            failures += 1
        else:
            assert out.recovered in words
    assert failures > 0


def test_secondary_hash_half_good_exact():
    # For every s the hash is ((s*x) mod v) mod 2k^2; over all s in [0, v)
    # at least half must be injective on any k-subset.
    v, k = 241, 4
    rng = random.Random(26)
    for _ in range(20):
        reduced = rng.sample(range(v), k)
        good = sum(
            1
            for s in range(v)
            if len({SecondaryHash(v, s, k)(x) for x in reduced}) == k
        )
        assert 2 * good >= v


def test_find_secondary_hash_injective():
    rng = random.Random(27)
    v, k = 1021, 8
    for _ in range(50):
        reduced = rng.sample(range(v), k)
        h = find_secondary_hash(reduced, v, k, rng)
        assert len({h(x) for x in reduced}) == k
        assert h.range_size == 2 * k * k


def test_find_secondary_hash_contracts():
    rng = random.Random(28)
    with pytest.raises(ContractError):
        find_secondary_hash([1, 2, 3], 11, 4, rng)
    with pytest.raises(ContractError):
        find_secondary_hash([1, 2, 3, 4], 12, 4, rng)
    with pytest.raises(ContractError):
        find_secondary_hash([1, 2, 3, 11], 11, 4, rng)


def test_multi_nba_bit_budget_frozen():
    # k=8, n=256: the (q, s) message is 2*15 bits, each of l=4 fingerprints
    # is ceil(log2(2k^2)) = 7 bits.
    rng = random.Random(29)
    vals = set()
    while len(vals) < 8:
        vals.add(rng.getrandbits(256))
    words = [Word(v, 256) for v in sorted(vals)]
    xs = [words[i] for i in (5, 0, 3, 6)]
    out = multi_nba_protocol(xs, words, 256, random.Random(7))
    assert [m.payload.n for m in out.transcript.messages] == [30, 28]
    assert out.transcript.rounds == 2
    assert out.diagnostics["recovered_values"] == tuple(w.value for w in xs)


def test_multi_nba_random_sets():
    rng = random.Random(30)
    for _ in range(100):
        n = rng.randint(4, 40)
        k = rng.randint(2, min(8, 1 << n))
        l = rng.randint(1, k)
        vals = rng.sample(range(1 << n), k)
        words = [Word(v, n) for v in vals]
        xs = rng.sample(words, l)
        out = multi_nba_protocol(xs, words, n, rng)
        assert not out.reported_failure
        assert out.diagnostics["recovered_values"] == tuple(w.value for w in xs)
        assert out.transcript.rounds == 2


def test_random_prime_pool_is_prime_prefix():
    pool = random_prime_pool(14, 4, 2)
    assert len(pool) == 2 * 14 * 16
    assert pool == first_primes(len(pool))
    assert random_prime_bound(14, 4, 2) == pool[-1]
    with pytest.raises(ContractError):
        random_prime_pool(14, 4, 1)
