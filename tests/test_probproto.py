import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hamsync.bitword import Bounds, Word, random_word_within
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import (
    AffineSolver,
    hamming_7_4,
    mat_vec,
    min_distance,
    random_linear_code,
    unique_decode,
)
from hamsync.probproto import (
    AffinePermutation,
    ProbParams,
    apply_permutation,
    block_values,
    composite_prob_sync,
    dangerous_blocks,
    next_prime_at_least,
    one_round_prob_sync,
    sample_inner_code,
    sample_permutation,
)
from hamsync.syncdet import SyncInstance


def test_affine_permutation_images():
    perm = AffinePermutation(5, 2, 3)
    assert [perm.image(i) for i in range(5)] == [3, 0, 2, 4, 1]
    inv = perm.inverse()
    assert [inv.image(perm.image(i)) for i in range(5)] == list(range(5))


def test_affine_permutation_contracts():
    with pytest.raises(ContractError):
        AffinePermutation(6, 1, 0)  # modulus not prime
    with pytest.raises(ContractError):
        AffinePermutation(5, 0, 0)  # multiplier zero
    with pytest.raises(ContractError):
        AffinePermutation(5, 5, 0)
    with pytest.raises(ContractError):
        AffinePermutation(5, 1, 5)
    with pytest.raises(ContractError):
        AffinePermutation(5, 1, 0).image(5)


def test_affine_family_exactly_pairwise_independent():
    # Full enumeration over all p(p-1) maps at p=7: single coordinates are
    # exactly uniform, and distinct pairs land on each (u, v), u != v, via
    # exactly one map.  Zero tolerance.
    p = 7
    maps = [AffinePermutation(p, a, b) for a in range(1, p) for b in range(p)]
    assert len(maps) == p * (p - 1)
    for i in range(p):
        counts = Counter(m.image(i) for m in maps)
        assert all(counts[u] * p == len(maps) for u in range(p))
    for i in range(p):
        for j in range(i + 1, p):
            pair_counts = Counter((m.image(i), m.image(j)) for m in maps)
            for u in range(p):
                for v in range(p):
                    assert pair_counts[(u, v)] == (1 if u != v else 0)


def test_affine_family_uniform_at_other_primes():
    for p in (5, 11, 13):
        maps = [AffinePermutation(p, a, b) for a in range(1, p) for b in range(p)]
        for i in (0, p - 1):
            counts = Counter(m.image(i) for m in maps)
            assert all(counts[u] == p - 1 for u in range(p))


def test_apply_invert_roundtrip():
    rng = random.Random(65)
    p = 101
    for _ in range(100):
        w = Word(rng.getrandbits(p), p)
        perm = sample_permutation(p, rng)
        assert apply_permutation(perm.inverse(), apply_permutation(perm, w)) == w
        assert apply_permutation(perm, apply_permutation(perm.inverse(), w)) == w
        assert apply_permutation(perm, w).weight() == w.weight()


def test_next_prime_at_least():
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(7) == 7
    assert next_prime_at_least(8) == 11
    assert next_prime_at_least(2048) == 2053
    with pytest.raises(ContractError):
        next_prime_at_least(1)


def test_block_values_reassemble():
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(1, 60)
        k = rng.randint(1, 12)
        w = Word(rng.getrandbits(n), n)
        blocks = block_values(w, k)
        assert len(blocks) == -(-n // k)
        acc = 0
        for i, blk in enumerate(blocks):
            assert 0 <= blk < (1 << k)
            acc |= blk << (i * k)
        assert acc == w.value  # padding bits are zero


def test_dangerous_blocks_trivial_cases():
    p = 13
    perm = AffinePermutation(p, 3, 7)
    w = Word(0b1010101010101, p)
    assert dangerous_blocks(w, w, perm, 4, Fraction(1, 4)) == 0
    m = -(-p // 4)
    assert dangerous_blocks(w, w, perm, 4, 0) == m  # zero threshold counts all


def test_dangerous_block_tail_bound_where_it_is_confident():
    # With these parameters the analytic tail bound n/(s k^2 delta^2) is
    # below 1, so the sampled frequency must respect it.  Here it is zero
    # outright: s/2 dangerous blocks would need more differing positions
    # than the pair has.
    n, k, s = 1024, 32, 64
    alpha, delta = Fraction(1, 10), Fraction(3, 20)
    p = next_prime_at_least(n)
    d = int(alpha * n)
    bound = n / (s * k * k * float(delta) ** 2)
    assert bound < 1
    rng = random.Random(70)
    y = Word(rng.getrandbits(n), n)
    x = y.flip(rng.sample(range(n), d))
    xp, yp = Word(x.value, p), Word(y.value, p)
    trials = 200
    hits = 0
    for _ in range(trials):
        perm = sample_permutation(p, rng)
        count = dangerous_blocks(xp, yp, perm, k, alpha + delta)
        assert count <= -(-p // k)
        if count >= s // 2:
            hits += 1
    se = math.sqrt(bound * (1 - bound) / trials)
    assert hits / trials <= bound + 3 * se


def test_one_round_unique_list_always_succeeds():
    # Distance-3 code at radius 1: the candidate list is never larger than
    # one word, so the hash has nothing to separate.
    code = hamming_7_4()
    rng = random.Random(71)
    bounds = Bounds(Fraction(1, 7), 7)
    for _ in range(200):
        y = Word(rng.getrandbits(7), 7)
        x = random_word_within(y, 1, rng)
        out = one_round_prob_sync(code, 1, SyncInstance(x, y, bounds), 16, rng)
        assert out.recovered == x
        assert out.transcript.rounds == 1
        assert out.diagnostics["list_size"] <= 1


def test_one_round_errors_are_always_detected():
    rng = random.Random(72)
    code = random_linear_code(14, 5, rng)
    bounds = Bounds(Fraction(3, 14), 14)
    trials = 300
    undetected = detected = 0
    for _ in range(trials):
        y = Word(rng.getrandbits(14), 14)
        x = random_word_within(y, 3, rng)
        out = one_round_prob_sync(code, 3, SyncInstance(x, y, bounds), 16, rng)
        assert out.transcript.rounds == 1
        assert out.transcript.total_bits == 9 + 2 * 20
        if out.reported_failure:
            detected += 1
            # on-promise failure can only come from a residue collision
            assert out.diagnostics["hash_collision"]
        elif out.recovered != x:
            undetected += 1
    assert undetected == 0
    assert detected / trials <= 1 / 16 + 0.05


def test_prob_params_contracts():
    assert ProbParams(11, 64, 0.15, 6).delta == Fraction(3, 20)
    with pytest.raises(ContractError):
        ProbParams(1, 64, 0.15, 1)
    with pytest.raises(ContractError):
        ProbParams(11, 1, 0.15, 6)
    with pytest.raises(ContractError):
        ProbParams(11, 64, 0.5, 6)
    with pytest.raises(ContractError):
        ProbParams(11, 64, 0.15, 11)


def test_sample_inner_code_distance():
    rng = random.Random(73)
    for k, dim in [(11, 6), (9, 5), (5, 1)]:
        code = sample_inner_code(k, dim, rng)
        assert (code.n, code.k) == (k, dim)
        assert min_distance(code) >= 3


def test_composite_identical_words():
    params = ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6)
    bounds = Bounds(Fraction(1, 20), 2048)
    rng = random.Random(74)
    x = Word(rng.getrandbits(2048), 2048)
    out = composite_prob_sync(SyncInstance(x, x, bounds), params, rng)
    assert out.recovered == x
    assert out.transcript.rounds == 1
    assert out.transcript.total_bits == 1718
    d = out.diagnostics
    assert d["stage1_bits"] == 24
    assert d["matrix_bits"] == 55
    assert d["syndrome_bits"] == 935
    assert d["rs_bits"] == 704
    assert d["nba_bits"] == 0
    assert d["block_count"] == 187


def test_composite_succeeds_when_block_errors_fit_the_budget():
    # Replay Alice's draws to count how many permuted blocks decode wrong;
    # whenever that count is within floor(s/2) the outer layer must heal
    # everything, so the run has to succeed.
    params = ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6)
    bounds = Bounds(Fraction(1, 20), 2048)
    checked = 0
    for seed in range(3):
        inst_rng = random.Random(100 + seed)
        y = Word(inst_rng.getrandbits(2048), 2048)
        x = random_word_within(y, bounds.radius, inst_rng)
        out = composite_prob_sync(
            SyncInstance(x, y, bounds), params, random.Random(200 + seed)
        )
        assert out.transcript.total_bits == 1718
        assert out.transcript.rounds == 1

        replay = random.Random(200 + seed)
        p = next_prime_at_least(2048)
        perm = sample_permutation(p, replay)
        inner = sample_inner_code(params.k, params.inner_dim, replay)
        xb = block_values(apply_permutation(perm, Word(x.value, p)), params.k)
        yb = block_values(apply_permutation(perm, Word(y.value, p)), params.k)
        solver = AffineSolver(inner.h)
        wrong = 0
        for xv, yv in zip(xb, yb):
            t = solver.solve(mat_vec(inner.h, xv) ^ mat_vec(inner.h, yv))
            z = unique_decode(inner, Word(t, params.k))
            if t ^ z.value ^ yv != xv:
                wrong += 1
        if wrong <= params.s // 2:
            checked += 1
            assert out.recovered == x
    assert checked > 0


def test_composite_parameter_guards():
    bounds = Bounds(Fraction(1, 20), 2048)
    inst = SyncInstance(Word(0, 2048), Word(0, 2048), bounds)
    with pytest.raises(ContractError):
        composite_prob_sync(inst, ProbParams(11, 64, Fraction(9, 20), 6), random.Random(0))
    with pytest.raises(CapabilityError):
        composite_prob_sync(inst, ProbParams(16, 64, Fraction(3, 20), 6), random.Random(0))
    with pytest.raises(ContractError):
        # 2^5 field cannot hold ceil(2053/5) blocks plus extras
        composite_prob_sync(inst, ProbParams(5, 64, Fraction(3, 20), 2), random.Random(0))
