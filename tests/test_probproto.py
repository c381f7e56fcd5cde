import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from hamsync.bitword import Bounds, Word, random_word_within
from hamsync.errors import CapabilityError, ContractError, RetryLimitError
from hamsync.gf2codes import (
    AffineSolver,
    _rref,
    code_from_parity,
    hamming_7_4,
    mat_vec,
    min_distance,
    random_linear_code,
    unique_decode,
)
from hamsync.probproto import (
    AffinePermutation,
    ProbParams,
    _block_syndromes,
    _distance_at_least_3,
    apply_permutation,
    block_values,
    composite_prob_sync,
    next_prime_at_least,
    one_round_prob_parties,
    one_round_prob_sync,
    sample_inner_code,
    sample_permutation,
)
from hamsync.syncdet import SyncInstance


def image(perm: AffinePermutation, i: int) -> int:
    return (perm.a * i + perm.b) % perm.p


def test_affine_permutation_images():
    perm = AffinePermutation(5, 2, 3)
    assert [image(perm, i) for i in range(5)] == [3, 0, 2, 4, 1]
    inv = perm.inverse()
    assert [image(inv, image(perm, i)) for i in range(5)] == list(range(5))
    # Bit i of the permuted word is bit (a*i + b) mod p of the input.
    rng = random.Random(64)
    for _ in range(50):
        p = rng.choice([5, 7, 11, 101])
        perm = sample_permutation(p, rng)
        w = Word(rng.getrandbits(p), p)
        out = apply_permutation(perm, w)
        assert all((out.value >> i) & 1 == (w.value >> image(perm, i)) & 1 for i in range(p))


def test_affine_permutation_contracts():
    with pytest.raises(ContractError):
        AffinePermutation(6, 1, 0)  # modulus not prime
    with pytest.raises(ContractError):
        AffinePermutation(5, 0, 0)  # multiplier zero
    with pytest.raises(ContractError):
        AffinePermutation(5, 5, 0)
    with pytest.raises(ContractError):
        AffinePermutation(5, 1, 5)


def test_affine_family_exactly_pairwise_independent():
    # Full enumeration over all p(p-1) maps at p=7: single coordinates are
    # exactly uniform, and distinct pairs land on each (u, v), u != v, via
    # exactly one map.  Zero tolerance.
    p = 7
    maps = [AffinePermutation(p, a, b) for a in range(1, p) for b in range(p)]
    assert len(maps) == p * (p - 1)
    for i in range(p):
        counts = Counter(image(m, i) for m in maps)
        assert all(counts[u] * p == len(maps) for u in range(p))
    for i in range(p):
        for j in range(i + 1, p):
            pair_counts = Counter((image(m, i), image(m, j)) for m in maps)
            for u in range(p):
                for v in range(p):
                    assert pair_counts[(u, v)] == (1 if u != v else 0)


def test_affine_family_uniform_at_other_primes():
    for p in (5, 11, 13):
        maps = [AffinePermutation(p, a, b) for a in range(1, p) for b in range(p)]
        for i in (0, p - 1):
            counts = Counter(image(m, i) for m in maps)
            assert all(counts[u] == p - 1 for u in range(p))


def test_apply_invert_roundtrip():
    rng = random.Random(65)
    p = 101
    for _ in range(100):
        w = Word(rng.getrandbits(p), p)
        perm = sample_permutation(p, rng)
        assert apply_permutation(perm.inverse(), apply_permutation(perm, w)) == w
        assert apply_permutation(perm, apply_permutation(perm.inverse(), w)) == w
        assert apply_permutation(perm, w).value.bit_count() == w.value.bit_count()


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
        code = code_from_parity(sample_inner_code(k, dim, rng), k)
        assert (code.n, code.k) == (k, dim)
        assert min_distance(code) >= 3


def test_block_syndromes_match_per_block_products():
    rng = random.Random(75)
    for _ in range(200):
        k = rng.randint(2, 14)
        rows = rng.randint(1, k - 1)
        masks = tuple(rng.getrandbits(k) for _ in range(rows))
        n = rng.randint(1, 300)  # n % k != 0 leaves a zero-padded last block
        w = Word(rng.getrandbits(n), n)
        blocks = block_values(w, k)
        assert _block_syndromes(masks, w.value, k, len(blocks)) == [
            mat_vec(masks, blk) for blk in blocks
        ]


@pytest.mark.parametrize("k, rows", [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (6, 2), (5, 3)])
def test_column_test_matches_min_distance(k, rows):
    # Every full-rank parity-check matrix of this shape, both ways.
    passed = 0
    for masks in itertools.product(range(1 << k), repeat=rows):
        if len(_rref(masks, k)[1]) != rows:
            continue
        expected = min_distance(code_from_parity(masks, k)) >= 3
        assert _distance_at_least_3(masks, k) == expected
        passed += expected
    assert passed or (1 << rows) - 1 < k  # some draws pass whenever any can


def _old_sample_inner_code(k, dim, rng):
    """sample_inner_code as it was: build every full-rank draw, then
    enumerate its codewords for the distance."""
    for _ in range(500):
        code = random_linear_code(k, dim, rng)
        if min_distance(code) >= 3:
            return code
    raise RetryLimitError("no code")


def test_sample_inner_code_matches_the_old_sampler():
    for seed in range(200):
        for k, dim in [(11, 6), (9, 5), (5, 2)]:
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            old = _old_sample_inner_code(k, dim, old_rng)
            assert sample_inner_code(k, dim, new_rng) == old.h
            assert new_rng.getstate() == old_rng.getstate()
    # No [8, 6] code reaches distance 3: both give up after the same draws.
    new_rng, old_rng = random.Random(1), random.Random(1)
    with pytest.raises(RetryLimitError):
        sample_inner_code(8, 6, new_rng)
    with pytest.raises(RetryLimitError):
        _old_sample_inner_code(8, 6, old_rng)
    assert new_rng.getstate() == old_rng.getstate()


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
        inner = code_from_parity(sample_inner_code(params.k, params.inner_dim, replay), params.k)
        xb = block_values(apply_permutation(perm, Word(x.value, p)), params.k)
        yb = block_values(apply_permutation(perm, Word(y.value, p)), params.k)
        solver = AffineSolver(inner.h, params.k)
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


def test_composite_outcomes_pinned():
    # 300 trials at smith-stress scale, where s = 2 heals one wrong block, so
    # all three outcomes occur.  The counts and the digest of every recovered
    # value and diagnostic were captured from the Lagrange/Euclid decoder and
    # the per-block nearest-codeword search this implementation replaced.
    n = 512
    bounds = Bounds(Fraction(1, 32), n)
    params = ProbParams(k=9, s=2, delta=Fraction(1, 10), inner_dim=5)
    rng = random.Random(2007)
    counts = Counter()
    digest = hashlib.sha256()
    for _ in range(300):
        y = Word(rng.getrandbits(n), n)
        x = y.flip(rng.sample(range(n), bounds.radius))
        out = composite_prob_sync(SyncInstance(x, y, bounds), params, rng)
        if out.reported_failure:
            counts["reported"] += 1
        elif out.recovered == x:
            counts["exact"] += 1
        else:
            counts["silent"] += 1
        value = None if out.recovered is None else out.recovered.value
        digest.update(repr((value, sorted(out.diagnostics.items()))).encode())
    assert counts == {"exact": 169, "reported": 120, "silent": 11}
    assert digest.hexdigest() == (
        "44b869cab5c8d77698a913292bfba8cf09d14559e0fb609eb49c7473aef525b6"
    )


def _composite_transcript_digest(n, alpha, params, trials, seed):
    """SHA-256 over every message (sender, length, payload), recovered value
    and diagnostic of `trials` composite runs on promise pairs with exactly
    floor(alpha n) flips."""
    bounds = Bounds(alpha, n)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(trials):
        y = Word(rng.getrandbits(n), n)
        x = y.flip(rng.sample(range(n), bounds.radius))
        out = composite_prob_sync(SyncInstance(x, y, bounds), params, rng)
        for msg in out.transcript.messages:
            digest.update(repr((msg.sender.value, msg.payload.n, msg.payload.value)).encode())
        value = None if out.recovered is None else out.recovered.value
        digest.update(repr((value, sorted(out.diagnostics.items()))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "n, alpha, params, trials, expected",
    [
        # the registry defaults, as the smith-2048 benchmark workload runs them
        (
            2048,
            Fraction(1, 20),
            ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6),
            40,
            "cb030d8042710ae9aee667b1fd7e2be798cfd99f85204ad8cb921521ff75bfd9",
        ),
        # the smith-stress parameters, where all three outcomes occur
        (
            512,
            Fraction(1, 32),
            ProbParams(k=9, s=2, delta=Fraction(1, 10), inner_dim=5),
            300,
            "2805361d1a1001730fa11aa2f9b8e9a34ded3665231646e8068ac6944a30b50b",
        ),
    ],
    ids=["smith-2048", "smith-stress"],
)
def test_composite_transcripts_pinned(n, alpha, params, trials, expected):
    # Captured before the RS layer, the block syndromes and the inner-code
    # sampler moved to packed-lane kernels; any change to Alice's draws or
    # to a payload bit shows here.
    assert _composite_transcript_digest(n, alpha, params, trials, 2026) == expected


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


def test_one_round_parameter_guards():
    # Checked before either party starts, so the caller gets the
    # ContractError itself, not a ProtocolExecutionError from inside Alice.
    code = hamming_7_4()
    inst = SyncInstance(Word(0, 7), Word(0, 7), Bounds(Fraction(1, 7), 7))
    with pytest.raises(ContractError):
        one_round_prob_sync(code, 1, inst, 1, random.Random(0))  # oversample < 2
    with pytest.raises(ContractError):
        one_round_prob_sync(code, 1, inst, 16, random.Random(0), list_cap=0)


def test_one_round_parties_check_the_list_decoding_limits():
    # Rejected before either party starts, not inside Bob's first step.
    code = hamming_7_4()
    inst = SyncInstance(Word(0, 7), Word(0, 7), Bounds(Fraction(1, 7), 7))
    with pytest.raises(ContractError):
        one_round_prob_parties(code, 8, inst, 16, random.Random(0))  # radius above n
    code = random_linear_code(30, 5, random.Random(1))
    inst = SyncInstance(Word(0, 30), Word(0, 30), Bounds(Fraction(1, 10), 30))
    with pytest.raises(CapabilityError):
        one_round_prob_parties(code, 3, inst, 16, random.Random(0))  # too long to enumerate
