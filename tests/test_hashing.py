import itertools
import random
from fractions import Fraction

import pytest

from hamsync import hashing
from hamsync.bitword import Bounds, Word, random_word_within
from hamsync.errors import CapabilityError, ContractError, InvariantError
from hamsync.gf2codes import random_linear_code
from hamsync.harness import ExperimentConfig, run_experiment
from hamsync.hashing import (
    SecondaryHash,
    find_injective_prime,
    find_secondary_hash,
    is_prime,
    multi_nba_parties,
    multi_nba_protocol,
    nba_parties,
    nba_protocol,
    random_prime_pool,
    sieve_primes,
)
from hamsync.syncdet import SyncInstance, listdec_sync


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


def test_find_injective_prime_smallest_case():
    # 1 and 3 collide mod 2; mod 3 gives residues {1, 2, 0}
    assert find_injective_prime([1, 2, 3], 4) == 3


def test_find_injective_prime_is_minimal():
    # Small sets, then sets whose q crosses several of the doubling sieves.
    rng = random.Random(21)
    for n_low, n_high, k_high in [(3, 10, 6)] * 100 + [(8, 16, 60)] * 60:
        n = rng.randint(n_low, n_high)
        k = rng.randint(1, k_high)
        vals = rng.sample(range(1 << n), k)
        q_min = find_injective_prime(vals, n)
        assert find_injective_prime(sorted(vals), n) == q_min  # the order callers use
        assert q_min <= max(2, k * k * n)
        assert injective(q_min, vals)
        for q in sieve_primes(q_min):
            if q < q_min:
                assert not injective(q, vals)


def test_injective_prime_sieves_follow_the_prime(monkeypatch):
    limits = []
    sieve = hashing.sieve_primes
    monkeypatch.setattr(hashing, "sieve_primes", lambda limit: limits.append(limit) or sieve(limit))
    vals = random.Random(7).sample(range(1 << 16), 200)
    assert find_injective_prime(vals, 16) == 3877
    # The bound is 200^2 * 16 = 640,000; only powers of two up to 2q are sieved.
    assert max(limits) <= 4096
    assert all(limit & (limit - 1) == 0 for limit in limits)


class _CountedInt(int):
    """An int that counts the residues taken of it."""

    residues = 0

    def __mod__(self, q):
        _CountedInt.residues += 1
        return int(self) % q


def test_injective_prime_scan_meets_collisions_early(monkeypatch):
    # listdec at n = 16, alpha = 1/2, code_k = 15 hands the search 19,624
    # sorted candidates.  A scan in that order passes every value below q
    # before a repeat: 50,531,729 residues to reach q = 65,407 from the
    # first prime above k.  The stride order takes 2,478,270.
    searched = []
    find = hashing.find_injective_prime
    # 65,537 is a prime above every 16-bit value, so injective on any of them.
    monkeypatch.setattr(
        hashing, "find_injective_prime", lambda values, n: searched.append(tuple(values)) or 65_537
    )
    params = {"code_k": 15}
    cfg = ExperimentConfig("listdec", n=16, alpha=Fraction(1, 2), trials=1, seed=1, params=params)
    run_experiment(cfg)
    (values,) = searched
    assert len(values) == 19_624 and list(values) == sorted(values)
    _CountedInt.residues = 0
    assert find([_CountedInt(v) for v in values], 16) == 65_407
    assert _CountedInt.residues < 3_000_000


def test_identification_parties_refuse_bad_candidate_sets():
    # find_injective_prime relies on k >= 1 distinct n-bit values; Bob's
    # words are refused where they enter, before either party starts.
    x = Word(1, 4)
    for words in ([], [x, x], [x, Word(1, 5)]):
        with pytest.raises(ContractError):
            nba_parties(x, words, 4)
        with pytest.raises(ContractError):
            multi_nba_parties([x], words, 4, random.Random(0))
    with pytest.raises(ContractError):
        Word(16, 4)  # a value wider than n is no word at all


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
        assert all(0 <= h(x) < 2 * k * k for x in reduced)
        assert h.width == (2 * k * k - 1).bit_length()


def test_prime_searches_get_what_they_rely_on(monkeypatch):
    # Neither search checks its arguments: every caller, nba, multinba and
    # listdec, hands it what the hashing module docstring says it relies on.
    primes, secondaries = [], []
    find_prime, find_secondary = hashing.find_injective_prime, hashing.find_secondary_hash

    def record_prime(values, n):
        primes.append((tuple(values), n))
        return find_prime(primes[-1][0], n)

    def record_secondary(reduced, v, k, rng):
        secondaries.append((tuple(reduced), v, k))
        return find_secondary(reduced, v, k, rng)

    monkeypatch.setattr(hashing, "find_injective_prime", record_prime)
    monkeypatch.setattr(hashing, "find_secondary_hash", record_secondary)
    rng = random.Random(28)
    for _ in range(100):
        n = rng.randint(1, 24)
        k = rng.randint(1, min(8, 1 << n))
        words = [Word(v, n) for v in rng.sample(range(1 << n), k)]
        nba_protocol(words[0], words, n)
        multi_nba_protocol(rng.sample(words, rng.randint(1, k)), words, n, rng)
    for n in (8, 12):
        bounds = Bounds(Fraction(1, 4), n)
        code = random_linear_code(n, n // 2, rng)
        for _ in range(5):
            y = Word(rng.getrandbits(n), n)
            x = random_word_within(y, bounds.radius, rng)
            listdec_sync(code, bounds.radius, SyncInstance(x, y, bounds))
    assert len(primes) == 210 and len(secondaries) == 100
    for values, n in primes:
        assert values and len(set(values)) == len(values)
        assert all(0 <= v < 1 << n for v in values)
    for reduced, v, k in secondaries:
        assert len(reduced) == k == len(set(reduced))
        assert is_prime(v) and all(0 <= x < v for x in reduced)


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
    # Every pool size up to 1,000 is the first that many primes.  A pool
    # holds a*n*k^2 >= 2 primes, since a >= 2.
    reference = tuple(m for m in range(7920) if trial_division(m))
    assert len(reference) == 1000
    build = random_prime_pool.__wrapped__  # past the cache, which would keep 999 pools
    for count in range(2, 1001):
        assert build(1, 1, count) == reference[:count]
    assert random_prime_pool(14, 4, 2) == reference[: 2 * 14 * 16]
    with pytest.raises(ContractError):
        random_prime_pool(14, 4, 1)


def test_prime_pool_budget_refuses_before_it_sieves(monkeypatch):
    # 100000 * 14 * 16^2 primes would be a sieve of about 8e9 bytes.
    limits = []
    monkeypatch.setattr(hashing, "sieve_primes", lambda limit: limits.append(limit) or range(limit))
    build = random_prime_pool.__wrapped__  # past the cache, which keeps the stub out
    assert len(build(1, 1, 1 << 20)) == 1 << 20
    assert limits == [17_293_287]  # Rosser's bound on the 2^20-th prime, 16,290,047
    with pytest.raises(CapabilityError):
        build(1, 1, (1 << 20) + 1)
    with pytest.raises(CapabilityError):
        random_prime_pool(14, 16, 100_000)
    with pytest.raises(CapabilityError):
        run_experiment(ExperimentConfig(protocol="problist", params={"oversample": 100_000}))
    assert len(limits) == 1
    monkeypatch.setattr(hashing, "sieve_primes", lambda limit: (2, 3))
    with pytest.raises(InvariantError):
        build(1, 1, 3)
