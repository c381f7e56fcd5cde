import bisect
import itertools
import math
import random
import tracemalloc
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
    random_prime_hash,
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


def sieved(limit: int) -> list[int]:
    """The primes up to limit, read from sieve_primes' flags over the odd numbers."""
    flags = sieve_primes(limit)
    assert len(flags) == (limit + 1) // 2
    return [2] + [2 * j + 1 for j, flag in enumerate(flags) if flag]


def pool_primes(pool) -> list[int]:
    return [pool.prime(i) for i in range(pool.count)]


def test_sieve_matches_trial_division():
    for limit in (2, 3, 4, 9, 25, 500, 501):
        assert sieved(limit) == [m for m in range(limit + 1) if trial_division(m)]


def test_is_prime_matches_trial_division():
    for m in range(200_000):
        assert is_prime(m) == trial_division(m)


def passes_strong_test(m: int, base: int) -> bool:
    """m is a strong probable prime to base, written out from the definition."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(base, d, m) == 1 or any(pow(base, d << i, m) == m - 1 for i in range(s))


# A factor of each psi_j, the least odd composite passing the first j prime bases.
PSI_FACTORS = (23, 829, 2251, 151, 6763, 1303, 10_670_053, 10_670_053) + (149_491,) * 3


def test_is_prime_rejects_each_psi_below_the_last_and_refuses_that_one():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert len(hashing._MR_PSI) == len(bases) == 12
    for j, (psi, factor) in enumerate(zip(hashing._MR_PSI, PSI_FACTORS), start=1):
        assert psi % factor == 0 and 1 < factor < psi
        assert all(passes_strong_test(psi, b) for b in bases[:j])
        assert not is_prime(psi)
    # psi_12, the first odd composite that passes all twelve bases.
    psi_12 = hashing._MR_EXACT_BELOW
    assert psi_12 == 318_665_857_834_031_151_167_461 == 399_165_290_221 * 798_330_580_441
    assert all(passes_strong_test(psi_12, b) for b in bases)
    with pytest.raises(ContractError, match="exact only below"):
        is_prime(psi_12)
    # Mersenne numbers on both sides of the limit.
    assert is_prime((1 << 61) - 1)
    assert (1 << 67) - 1 == 193_707_721 * 761_838_257_287 and not is_prime((1 << 67) - 1)
    with pytest.raises(ContractError):
        is_prime((1 << 89) - 1)


def first_separating_prime(vals, n: int) -> int:
    """The first prime from ceil(k^2 n / 2) up that separates vals, by trial division."""
    k = len(vals)
    q = (k * k * n + 1) // 2
    while not (trial_division(q) and injective(q, vals)):
        q += 1
    return q


def test_find_injective_prime_is_the_first_from_the_top_half():
    # Where k^2 n <= 4 the first prime from ceil(k^2 n / 2) is 2, and it
    # separates one value, or the 1-bit words 0 and 1.
    for vals, n in ([1], 1), ([1], 2), ([1], 3), ([0], 4), ([0, 1], 1):
        assert find_injective_prime(vals, n) == 2 == first_separating_prime(vals, n)
    assert find_injective_prime([1], 5) == 3 == first_separating_prime([1], 5)
    rng = random.Random(21)
    for n_low, n_high, k_high in [(1, 10, 6)] * 100 + [(8, 16, 60)] * 60:
        n = rng.randint(n_low, n_high)
        k = rng.randint(1, min(k_high, 1 << n))
        vals = rng.sample(range(1 << n), k)
        q = find_injective_prime(vals, n)
        assert find_injective_prime(sorted(vals), n) == q  # the order callers use
        assert q <= max(2, k * k * n)
        assert injective(q, vals)
        assert q == first_separating_prime(vals, n)


def test_find_injective_prime_passes_primes_that_collide():
    # 0 and the product of the first t primes of the top half collide modulo
    # each of them, so the search passes all t and returns the next one.
    n, k = 64, 2
    top = [q for q in range((k * k * n + 1) // 2, k * k * n + 1) if trial_division(q)]
    t, product = 0, 1
    while product * top[t] < 1 << n:
        product, t = product * top[t], t + 1
    assert t == 8
    assert find_injective_prime([0, product], n) == top[t]


def test_top_half_holds_a_separating_prime_for_every_small_shape():
    # For k >= 2 values, a prime q separates them unless it divides one of
    # their C(k, 2) differences.  Each difference is a positive number below
    # 2^n, so at most t primes >= start divide it, where start^t < 2^n.  If
    # the top half [start, k^2 n] holds more than C(k, 2) * t primes, one of
    # them separates any k distinct n-bit values.  Every shape with
    # k^2 n <= 2^16 is counted; find_injective_prime's docstring covers the
    # larger ones with Dusart's bounds.
    limit = 1 << 16
    primes = sieved(limit)
    for n in range(1, limit + 1):
        # k = 1: one prime in [ceil(n / 2), max(2, n)] (Bertrand).
        assert bisect.bisect_right(primes, max(2, n)) > bisect.bisect_left(primes, (n + 1) // 2)
    tightest = 1.0
    for k in range(2, math.isqrt(limit) + 1):
        for n in range(1, limit // (k * k) + 1):
            start = (k * k * n + 1) // 2
            assert start >= k
            count = bisect.bisect_right(primes, k * k * n) - bisect.bisect_left(primes, start)
            t = int(n / math.log2(start))
            while start**t >= 1 << n:
                t -= 1
            while start ** (t + 1) < 1 << n:
                t += 1
            failing = k * (k - 1) // 2 * t
            assert count > failing, (k, n)
            tightest = min(tightest, 1 - failing / count)
    assert 0.28 < tightest < 0.29  # at k = 48, n = 14: 1,128 of 1,582 primes may fail


class _CountedInt(int):
    """An int that counts the residues taken of it."""

    residues = 0

    def __mod__(self, q):
        _CountedInt.residues += 1
        return int(self) % q


def test_injective_prime_takes_few_passes_on_a_long_sorted_list(monkeypatch):
    # listdec at n = 16, alpha = 1/2, code_k = 15 hands the search 19,624
    # sorted candidates.  The smallest separating prime, 65,407, took
    # 2,478,270 residues to reach; from the top half the first prime tried
    # is above every 16-bit value, so one pass over the list settles it.
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
    k = len(values)
    assert k == 19_624 and list(values) == sorted(values)
    _CountedInt.residues = 0
    q = find([_CountedInt(v) for v in values], 16)
    assert (k * k * 16 + 1) // 2 <= q <= k * k * 16
    assert _CountedInt.residues <= 3 * k


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
    reference = [m for m in range(7920) if trial_division(m)]
    assert len(reference) == 1000
    build = random_prime_pool.__wrapped__  # past the cache, which would keep 999 pools
    for count in range(2, 1001):
        pool = build(1, 1, count)
        assert pool_primes(pool) == reference[:count]
        assert pool.width == reference[count - 1].bit_length()
    assert pool_primes(random_prime_pool(14, 4, 2)) == reference[: 2 * 14 * 16]
    with pytest.raises(ContractError):
        random_prime_pool(14, 4, 1)


def test_prime_pool_budget_refuses_before_it_sieves(monkeypatch):
    # 100000 * 14 * 16^2 primes would be a sieve of about 8e9 bytes.
    # The stub's flags call every odd number prime, so any count fits.
    limits = []
    monkeypatch.setattr(
        hashing, "sieve_primes", lambda limit: limits.append(limit) or b"\x01" * ((limit + 1) // 2)
    )
    build = random_prime_pool.__wrapped__  # past the cache, which keeps the stub out
    assert build(1, 1, 1 << 20).count == 1 << 20
    assert limits == [17_293_287]  # Rosser's bound on the 2^20-th prime, 16,290,047
    with pytest.raises(CapabilityError):
        build(1, 1, (1 << 20) + 1)
    with pytest.raises(CapabilityError):
        random_prime_pool(14, 16, 100_000)
    with pytest.raises(CapabilityError):
        run_experiment(ExperimentConfig(protocol="problist", params={"oversample": 100_000}))
    assert len(limits) == 1
    monkeypatch.setattr(hashing, "sieve_primes", lambda limit: b"\x00\x01")  # 2 and 3
    with pytest.raises(InvariantError):
        build(1, 1, 3)


def _first_primes(count: int) -> list[int]:
    """The first count primes, from a plain sieve over every number."""
    limit = 64
    while True:
        flags = bytearray([1]) * limit
        flags[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit - 1) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
        primes = list(itertools.compress(range(limit), flags))
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def test_default_prime_pool_lookups_and_draws_match_a_list_of_its_primes():
    # problist's default pool, 16 * 14 * 16^2 primes: every index, and
    # draws that equal rng.choice over the same primes held in a list.
    reference = _first_primes(16 * 14 * 16**2)
    assert reference[-1] == 710_527
    pool = random_prime_pool(14, 16, 16)
    assert pool.count == len(reference)
    assert pool_primes(pool) == reference
    assert pool.width == 20
    rng, chooser = random.Random(90), random.Random(90)
    draws = [random_prime_hash(14, 16, 16, rng) for _ in range(1000)]
    assert draws == [chooser.choice(reference) for _ in range(1000)]
    assert reference[-1] in draws  # seed 90 draws the last index, 82nd
    assert rng.random() == chooser.random()  # both consumed the same bits
    # At 2^10 primes, an index drawn below count - 1 would take one bit fewer.
    rng, chooser = random.Random(0), random.Random(0)
    draws = [random_prime_hash(1, 1, 1 << 10, rng) for _ in range(1000)]
    assert draws == [chooser.choice(reference[: 1 << 10]) for _ in range(1000)]


def test_small_prime_pool_finds_the_first_and_last_prime_of_every_block():
    # Block b holds the odd numbers between span * b and span * (b + 1),
    # and the pool's primes from index counts[b] to counts[b + 1] - 1: a
    # block scan that is off by one goes wrong at these edges first.
    pool = random_prime_pool(14, 4, 2)
    reference = _first_primes(pool.count)
    span = 2 * hashing._POOL_BLOCK
    assert pool.prime(0) == 2
    blocks = 0
    for block, (first, end) in enumerate(zip(pool.counts, pool.counts[1:])):
        end = min(end, pool.count)
        if first < end:
            blocks += 1
            for i in (first, end - 1):
                assert pool.prime(i) == reference[i]
                assert block * span < pool.prime(i) < (block + 1) * span
    assert blocks == len({p // span for p in reference[1:]})


def test_default_prime_pool_holds_little():
    # What problist's default pool keeps once built, sieve_primes' cached
    # flags included.  It held 2.91 MB as a tuple of its 57,344 primes.
    sieve_primes.cache_clear()
    random_prime_pool.cache_clear()
    tracemalloc.start()
    try:
        pool = random_prime_pool(14, 16, 16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pool.count == 16 * 14 * 16**2
    assert held <= 1 << 20
