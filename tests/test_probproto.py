import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hamsync import gf2codes, probproto
from hamsync.bitword import Bounds, Word, pack_fields, random_word_within, unpack_fields
from hamsync.errors import CapabilityError, ContractError, RetryLimitError
from hamsync.gf2codes import (
    AffineSolver,
    LinearCode,
    hamming_7_4,
    mat_vec,
    min_distance,
    random_linear_code,
    rank,
    unique_decode,
)
from hamsync.gf2k_rs import field, rs_correct, rs_extra_evals
from hamsync.harness import ExperimentConfig, run_experiment
from hamsync.probproto import (
    INNER_MAX_K,
    AffinePermutation,
    ProbParams,
    _block_syndromes,
    _fix_table,
    _relane,
    _split,
    _transpose,
    _unpermuted,
    apply_permutation,
    composite_alice,
    composite_bob,
    composite_parties,
    composite_prob_sync,
    next_prime_at_least,
    one_round_prob_parties,
    one_round_prob_sync,
    sample_inner_code,
    sample_permutation,
)
from hamsync.syncdet import SyncInstance
from hamsync.transport import RECV


def image(perm: AffinePermutation, i: int) -> int:
    return (perm.a * i + perm.b) % perm.p


def inverse(perm: AffinePermutation) -> AffinePermutation:
    a_inv = pow(perm.a, -1, perm.p)
    return AffinePermutation(perm.p, a_inv, (-a_inv * perm.b) % perm.p)


def test_affine_permutation_images():
    perm = AffinePermutation(5, 2, 3)
    assert [image(perm, i) for i in range(5)] == [3, 0, 2, 4, 1]
    inv = inverse(perm)
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
        assert apply_permutation(inverse(perm), apply_permutation(perm, w)) == w
        assert apply_permutation(perm, apply_permutation(inverse(perm), w)) == w
        assert apply_permutation(perm, w).value.bit_count() == w.value.bit_count()


def _gather_bit_by_bit(perm, w):
    """The gather apply_permutation replaced: one character per bit."""
    a, b, p = perm.a, perm.b, perm.p
    bits = format(w.value, f"0{p}b")[::-1]  # bits[i] is bit i
    gathered = "".join([bits[(a * i + b) % p] for i in range(p)])
    return Word(int(gathered[::-1], 2), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_strided_gather_matches_bit_by_bit_for_every_map(p):
    # Word t has bit i equal to bit t of i, so together the words spell out
    # the input index each output bit reads, and equality on all of them
    # pins the whole map.  p = 2 is where a step c = p would leave e = 0.
    planes = [Word(sum(((i >> t) & 1) << i for i in range(p)), p) for t in range(p.bit_length())]
    for a in range(1, p):
        for b in range(p):
            perm = AffinePermutation(p, a, b)
            for w in planes:
                assert apply_permutation(perm, w) == _gather_bit_by_bit(perm, w)


@pytest.mark.parametrize("p", [2053, 32771])
def test_strided_gather_matches_bit_by_bit_on_random_maps(p):
    rng = random.Random(p)
    words = [0, (1 << p) - 1, 1 << (p - 1)]  # zero, all ones, top bit only
    maps = [(1, 0), (p - 1, 0), (1, p - 1), (p - 1, p - 1)]
    cases = [(a, b, v) for a, b in maps for v in words]
    cases += [(rng.randrange(1, p), rng.randrange(p), rng.choice(words)) for _ in range(20)]
    cases += [(rng.choice([1, p - 1]), rng.randrange(p), rng.getrandbits(p)) for _ in range(20)]
    cases += [(rng.randrange(1, p), 0, rng.getrandbits(p)) for _ in range(20)]
    cases += [(rng.randrange(1, p), rng.randrange(p), rng.getrandbits(p)) for _ in range(150)]
    assert len(cases) >= 200
    for a, b, v in cases:
        perm, w = AffinePermutation(p, a, b), Word(v, p)
        assert apply_permutation(perm, w) == _gather_bit_by_bit(perm, w)


def test_next_prime_at_least():
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(7) == 7
    assert next_prime_at_least(8) == 11
    assert next_prime_at_least(2048) == 2053
    with pytest.raises(ContractError):
        next_prime_at_least(1)


def test_split_blocks_reassemble():
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(1, 60)
        k = rng.randint(1, 12)
        w = Word(rng.getrandbits(n), n)
        blocks = _split(w.value, -(-n // k), k)
        assert len(blocks) == -(-n // k)
        acc = 0
        for i, blk in enumerate(blocks):
            assert 0 <= blk < (1 << k)
            acc |= blk << (i * k)
        assert acc == w.value  # padding bits are zero


def _blocks_by_shifts(value, count, k):
    """The per-field shift loop that _split replaced."""
    return [(value >> (i * k)) & ((1 << k) - 1) for i in range(count)]


def _relane_by_fields(value, count, src, dst):
    return sum(v << (i * dst) for i, v in enumerate(_blocks_by_shifts(value, count, src)))


def _relane_shapes():
    """(count, src, dst) for every relayout smith makes at an accepted shape
    with k <= 14 and n in {7, 100, 512, 2048}, with s in {2, 64} where the
    field holds it, and counts 1, 2 and 3 at each width pair."""
    shapes = set()
    for n in (7, 100, 512, 2048):
        p = next_prime_at_least(n)
        for k in range(2, INNER_MAX_K + 1):
            for dim in range(1, k):
                try:
                    ProbParams(k, 64, Fraction(1, 10), dim)
                except ContractError:
                    continue
                m, rows = -(-p // k), k - dim
                counts = [1, 2, 3, m, rows] + [s for s in (2, 64) if m + s < 1 << k]
                for src, dst in ((k, rows), (k, 16)):
                    shapes.update((count, src, dst) for count in counts)
    return sorted(shapes)


def test_relane_matches_the_field_loop_both_ways():
    rng = random.Random(81)
    shapes = _relane_shapes()
    assert len(shapes) > 500
    for count, src, dst in shapes:
        narrow = min(src, dst)
        for fields in (
            [(1 << narrow) - 1] * count,
            [rng.getrandbits(narrow) for _ in range(count)],
        ):
            value = sum(v << (i * src) for i, v in enumerate(fields))
            moved = _relane(value, count, src, dst)
            assert moved == _relane_by_fields(value, count, src, dst)
            assert _relane(moved, count, dst, src) == value


def test_split_matches_the_shift_loop():
    rng = random.Random(82)
    for k in (1, 2, 9, 11, 14, 16):
        for n in (1, k - 1, k, k + 1, 7, 100, 2053, rng.randint(1, 3000)):
            if n < 1:
                continue
            count = -(-n // k)
            for value in (0, (1 << n) - 1, rng.getrandbits(n)):
                assert _split(value, count, k) == _blocks_by_shifts(value, count, k)


def test_sparse_unpermute_matches_the_inverse_gather():
    rng = random.Random(83)
    for p in (2, 3, 13, 101, 2053):
        for _ in range(30):
            perm = sample_permutation(p, rng)
            diffs = [0, 1, 1 << (p - 1), (1 << p) - 1, rng.getrandbits(p)]
            diffs.append(sum(1 << i for i in rng.sample(range(p), min(p, 5))))
            for diff in diffs:
                gathered = apply_permutation(inverse(perm), Word(diff, p))
                assert _unpermuted(perm, diff) == gathered.value


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
    # 8 distinct nonzero columns of 2 bits do not exist: no [8, 6] code has
    # distance 3, while [7, 4] (the Hamming code) is the largest of 3 rows.
    with pytest.raises(ContractError, match="distance"):
        ProbParams(8, 64, 0.15, 6)
    with pytest.raises(ContractError, match="distance"):
        ProbParams(8, 64, 0.15, 5)
    assert ProbParams(7, 64, 0.15, 4).inner_dim == 4


@pytest.mark.parametrize(
    "delta, cause",
    [
        ("abc", ValueError),
        (math.nan, ValueError),
        (math.inf, ValueError),
        ("1/0", ZeroDivisionError),
        (None, TypeError),
    ],
)
def test_prob_params_rejects_a_malformed_delta(delta, cause):
    with pytest.raises(ContractError) as info:
        ProbParams(11, 64, delta, 6)
    assert isinstance(info.value.__cause__, cause)


def _inner_code(k, dim, rng):
    """The LinearCode of one sample_inner_code draw."""
    return LinearCode(k, _transpose(sample_inner_code(k, dim, rng), k - dim))


def test_sample_inner_code_distance():
    # Every shape ProbParams accepts can be drawn.  The old sampler drew
    # whole row sets and gave up after 500 of them, which [13, 9] and
    # [14, 10] always did and [7, 4] often did.
    rng = random.Random(73)
    shapes = 0
    for k in range(2, INNER_MAX_K + 1):
        for dim in range(1, k):
            try:
                ProbParams(k, 64, Fraction(1, 10), dim)
            except ContractError:
                continue
            shapes += 1
            code = _inner_code(k, dim, rng)
            assert (code.n, code.k, len(code.h)) == (k, dim, k - dim)
            assert min_distance(code) >= 3
    assert shapes == 60


def test_sample_inner_code_draws_at_a_seed_the_old_sampler_gave_up_on():
    # The old sampler raised RetryLimitError here after 500 draws of [9, 5]
    # row sets (smith-stress's shape) without one of distance 3.
    code = _inner_code(9, 5, random.Random(2633507))
    assert min_distance(code) >= 3


@pytest.mark.parametrize(
    "params",
    [
        {"k": 7, "inner_dim": 4, "s": 4},
        {"k": 13, "inner_dim": 9, "s": 4},
        {"k": 14, "inner_dim": 10, "s": 4},
    ],
    ids=["7-4", "13-9", "14-10"],
)
def test_smith_runs_at_shapes_the_old_sampler_could_not_draw(params):
    # Each of these raised ProtocolExecutionError from inside Alice with the
    # old sampler.
    cfg = ExperimentConfig(
        protocol="smith", n=64, alpha=Fraction(1, 32), trials=20, seed=1, params=params
    )
    (row,) = run_experiment(cfg)
    assert row.trials == 20


def test_sample_inner_code_support():
    # Four distinct nonzero columns of 3 bits always span, so at [4, 1]
    # every one of the 7*6*5*4 column orders is a valid draw, and the draw
    # is uniform over them.
    valid = [cols for cols in itertools.permutations(range(1, 8), 4) if rank(cols) == 3]
    assert len(valid) == 840
    rng = random.Random(78)
    per_order = 40
    counts = Counter(tuple(sample_inner_code(4, 1, rng)) for _ in range(840 * per_order))
    assert set(counts) == set(valid)
    chi2 = sum((c - per_order) ** 2 / per_order for c in counts.values())
    assert chi2 < 839 + 5 * math.sqrt(2 * 839)  # 839 degrees of freedom, 5 sd


def test_block_syndromes_match_per_block_products():
    rng = random.Random(75)
    for _ in range(200):
        k = rng.randint(2, 14)
        rows = rng.randint(1, k - 1)
        masks = tuple(rng.getrandbits(k) for _ in range(rows))
        n = rng.randint(1, 300)  # n % k != 0 leaves a zero-padded last block
        w = Word(rng.getrandbits(n), n)
        blocks = _split(w.value, -(-n // k), k)
        packed = _block_syndromes(_transpose(masks, k), w.value, k, len(blocks))
        assert _split(packed, len(blocks), k) == [
            mat_vec(masks, blk) for blk in blocks
        ]


_SMALL_SHAPES = [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (6, 2), (5, 3)]


def _full_rank_row_sets(k, rows):
    return [masks for masks in itertools.product(range(1 << k), repeat=rows) if rank(masks) == rows]


@pytest.mark.parametrize("k, rows", _SMALL_SHAPES)
def test_column_test_matches_min_distance(k, rows):
    # sample_inner_code rests on this equivalence: a code has distance >= 3
    # exactly when its parity-check columns are distinct and nonzero.
    # Checked on every full-rank parity-check matrix of this shape.
    passed = 0
    for masks in _full_rank_row_sets(k, rows):
        columns = [sum(((mask >> c) & 1) << r for r, mask in enumerate(masks)) for c in range(k)]
        distinct_nonzero = 0 not in columns and len(set(columns)) == k
        assert distinct_nonzero == (min_distance(LinearCode(k, masks)) >= 3)
        passed += distinct_nonzero
    assert passed or (1 << rows) - 1 < k  # some draws pass whenever any can


def _assert_top_bits_are_free(code):
    pivots = set(code.solver.pivot_cols)
    for c in gf2codes.codewords(code):
        if c:
            assert c.bit_length() - 1 not in pivots


@pytest.mark.parametrize("k, rows", _SMALL_SHAPES)
def test_codeword_top_bits_are_never_pivots(k, rows):
    # The fix table's tie rule rests on this: a nonzero codeword's top bit
    # is a column that depends on lower ones, so it is a free column, the
    # solver's t is 0 there, and the smaller codeword t ^ w is t ^ (the
    # smaller word w).
    for masks in _full_rank_row_sets(k, rows):
        _assert_top_bits_are_free(LinearCode(k, masks))


def test_codeword_top_bits_are_never_pivots_on_random_codes():
    rng = random.Random(81)
    for n in range(2, 15):
        for k in range(1, n):
            for _ in range(3):
                _assert_top_bits_are_free(random_linear_code(n, k, rng))


def _fix_by_full_decoding(inner):
    """Solve and decode every syndrome difference, as Bob once did."""
    solver = AffineSolver(inner.h, inner.n)
    fix = {}
    for d in range(1 << len(inner.h)):
        t = solver.solve(d)
        fix[d] = t ^ unique_decode(inner, Word(t, inner.n)).value
    return fix


@pytest.fixture
def solves(monkeypatch):
    """Every right-hand side AffineSolver.solve is called with."""
    solved = []
    solve = AffineSolver.solve

    def recording_solve(self, b):
        solved.append(b)
        return solve(self, b)

    monkeypatch.setattr(AffineSolver, "solve", recording_solve)
    return solved


def test_fix_table_matches_full_decoding_at_every_shape(monkeypatch, solves):
    # The table settles every syndrome by the weight walk, solving and
    # decoding nothing.
    def no_decode(code, y):
        raise AssertionError("the fix table decoded a word")

    monkeypatch.setattr(gf2codes, "unique_decode", no_decode)
    assert not hasattr(probproto, "unique_decode")
    rng = random.Random(79)
    shapes = 0
    for k in range(2, 12):
        for dim in range(1, k):
            try:
                ProbParams(k, 64, Fraction(1, 10), dim)
            except ContractError:
                continue
            shapes += 1
            for _ in range(3):
                columns = sample_inner_code(k, dim, rng)
                fix = _fix_table(columns, k - dim)
                assert solves == []
                assert fix == _fix_by_full_decoding(LinearCode(k, _transpose(columns, k - dim)))
                solves.clear()
    assert shapes == 33


def test_fix_table_takes_the_smaller_word_with_zero_or_repeated_columns(solves):
    # With a zero or a repeated column the code has distance < 3, and two
    # weight-1 words can share a syndrome; the smaller one takes it.  A set
    # of columns that does not span the syndromes comes from dependent rows.
    rng = random.Random(80)
    cases = [
        (3, [1, 2, 4, 0, 3, 3]),
        (2, [1, 1, 2, 2]),
        (2, [0, 1, 2, 0]),
        (3, [3, 1, 2, 3, 0, 5, 4]),
        (3, [1, 2, 3, 0, 1]),
    ]
    while len(cases) < 300:
        rows = rng.randint(1, 4)
        columns = [rng.randrange(1 << rows) for _ in range(rng.randint(rows + 1, 11))]
        if 0 in columns or len(set(columns)) < len(columns):
            cases.append((rows, columns))
    checked = dependent = 0
    for rows, columns in cases:
        if rank(columns) < rows:
            with pytest.raises(ContractError, match="dependent"):
                _fix_table(columns, rows)
            dependent += 1
            continue
        fix = _fix_table(columns, rows)
        assert solves == []
        assert fix == _fix_by_full_decoding(LinearCode(len(columns), _transpose(columns, rows)))
        solves.clear()
        checked += 1
    assert checked >= 200 and dependent >= 10


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
        inner = _inner_code(params.k, params.inner_dim, replay)
        m = -(-p // params.k)
        xb = _split(apply_permutation(perm, Word(x.value, p)).value, m, params.k)
        yb = _split(apply_permutation(perm, Word(y.value, p)).value, m, params.k)
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


def _packed_messages(perm, columns, blocks, params):
    """Smith's three messages as pack_fields builds them from per-block
    fields: the map, the matrix rows and each block's syndrome, the extras."""
    k, rows = params.k, params.k - params.inner_dim
    width_p = (perm.p - 1).bit_length()
    matrix = _transpose(columns, rows)
    syndromes = [(mat_vec(matrix, blk), rows) for blk in blocks]
    return [
        pack_fields([(perm.a, width_p), (perm.b, width_p)]),
        pack_fields([(row, k) for row in matrix] + syndromes),
        pack_fields([(e, k) for e in rs_extra_evals(field(k), blocks, params.s)]),
    ]


_SHAPES = [
    (7, ProbParams(k=3, s=2, delta=Fraction(1, 10), inner_dim=1)),
    (100, ProbParams(k=8, s=4, delta=Fraction(1, 10), inner_dim=4)),
    (512, ProbParams(k=9, s=2, delta=Fraction(1, 10), inner_dim=5)),
    (2048, ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6)),
    (2048, ProbParams(k=14, s=16, delta=Fraction(1, 10), inner_dim=10)),
]


def test_alice_messages_equal_pack_fields_of_the_same_fields():
    for n, params in _SHAPES:
        for seed in range(3):
            x = Word(random.Random(seed).getrandbits(n), n)
            sent = list(composite_alice(x, params, random.Random(500 + seed)))
            replay = random.Random(500 + seed)
            p = next_prime_at_least(n)
            perm = sample_permutation(p, replay)
            columns = sample_inner_code(params.k, params.inner_dim, replay)
            permuted = apply_permutation(perm, Word(x.value, p)).value
            blocks = _blocks_by_shifts(permuted, -(-p // params.k), params.k)
            assert sent == _packed_messages(perm, columns, blocks, params)


def _bob(y, params, messages):
    """composite_bob's (recovered, diagnostics) on these messages."""
    bob = composite_bob(y, params)
    assert next(bob) is RECV
    for msg in messages[:-1]:
        assert bob.send(msg) is RECV
    with pytest.raises(StopIteration) as stop:
        bob.send(messages[-1])
    return stop.value.value


def _reference_bob(y, params, messages):
    """Bob as he was before the lanes: per-field unpacking, a fully decoded
    fix table, per-block syndromes, reassembly and the inverse gather."""
    k, s = params.k, params.s
    rows = k - params.inner_dim
    p = next_prime_at_least(y.n)
    width_p = (p - 1).bit_length()
    perm = AffinePermutation(p, *unpack_fields(messages[0], [width_p, width_p]))
    permuted = apply_permutation(perm, Word(y.value, p)).value
    m = -(-p // k)
    vals = unpack_fields(messages[1], [k] * rows + [rows] * m)
    inner = LinearCode(k, vals[:rows])
    fix = _fix_by_full_decoding(inner)
    yblocks = _blocks_by_shifts(permuted, m, k)
    estimates = [
        blk ^ fix[syn ^ mat_vec(inner.h, blk)] for blk, syn in zip(yblocks, vals[rows:])
    ]
    fixed = rs_correct(field(k), estimates, unpack_fields(messages[2], [k] * s))
    diag = {
        "p": p,
        "block_count": m,
        "stage1_bits": messages[0].n,
        "matrix_bits": rows * k,
        "syndrome_bits": rows * m,
        "nba_bits": 0,
        "rs_bits": messages[2].n,
    }
    if fixed is None:
        return None, {**diag, "rs_failure": True}
    acc = 0
    for i, blk in enumerate(fixed):
        acc |= blk << (i * k)
    if acc >> p:
        return None, {**diag, "padding_violation": True}
    unpermuted = apply_permutation(inverse(perm), Word(acc, p))
    if unpermuted.value >> y.n:
        return None, {**diag, "padding_violation": True}
    return Word(unpermuted.value, y.n), diag


def _outcome(x, recovered, diag):
    """"x", or the failure flags Bob set, or "wrong word"."""
    if recovered == x:
        return "x"
    sizes = {"p", "block_count", "stage1_bits", "matrix_bits", "syndrome_bits", "nba_bits", "rs_bits"}
    return " ".join(sorted(diag.keys() - sizes)) or "wrong word"


def test_bob_failure_paths_match_the_reference():
    # n = 2048 pads to p = 2053 and 187 blocks of 11 bits, so bits 2053..2056
    # are block padding and 2048..2052 are permutation padding.
    n, params = _SHAPES[3]
    p, m, k = 2053, 187, params.k
    rng = random.Random(84)
    outcomes = Counter()
    for _ in range(4):
        y = Word(rng.getrandbits(n), n)
        perm = sample_permutation(p, rng)
        columns = sample_inner_code(k, params.inner_dim, rng)
        x = y.flip(rng.sample(range(n), 102))
        permuted = apply_permutation(perm, Word(y.value, p)).value
        padded = Word(y.value | 1 << rng.randrange(n, p), p)
        cases = {
            "x": apply_permutation(perm, Word(x.value, p)).value,
            "bit above p": permuted ^ (1 << rng.randrange(p, m * k)),
            "bit in [n, p)": apply_permutation(perm, padded).value,
        }
        for name, value in cases.items():
            messages = _packed_messages(perm, columns, _blocks_by_shifts(value, m, k), params)
            recovered, diag = _bob(y, params, messages)
            assert (recovered, diag) == _reference_bob(y, params, messages)
            outcomes[name, _outcome(x, recovered, diag)] += 1
        messages[2] = Word(rng.getrandbits(params.s * k), params.s * k)
        recovered, diag = _bob(y, params, messages)
        assert (recovered, diag) == _reference_bob(y, params, messages)
        outcomes["garbage extras", _outcome(x, recovered, diag)] += 1
    assert outcomes == {
        ("x", "x"): 4,
        ("bit above p", "padding_violation"): 4,
        ("bit in [n, p)", "padding_violation"): 4,
        ("garbage extras", "rs_failure"): 4,
    }


def test_bob_rejects_messages_of_the_wrong_length():
    n, params = _SHAPES[2]
    x = Word(random.Random(85).getrandbits(n), n)
    messages = list(composite_alice(x, params, random.Random(86)))
    assert _bob(x, params, messages) == _reference_bob(x, params, messages)
    for i in (1, 2):
        for extra_bits in (-1, 1):
            wrong = list(messages)
            wrong[i] = Word(messages[i].value >> max(0, -extra_bits), messages[i].n + extra_bits)
            with pytest.raises(ContractError):
                _bob(x, params, wrong)


def test_bob_rejects_dependent_matrix_rows():
    # Message 2 starts with the inner code's rows, k bits each; a copy of
    # row 0 in place of row 1 keeps the length but not the rank.
    n, params = _SHAPES[2]
    k = params.k
    x = Word(random.Random(87).getrandbits(n), n)
    messages = list(composite_alice(x, params, random.Random(88)))
    row0 = messages[1].value & ((1 << k) - 1)
    value = messages[1].value & ~(((1 << k) - 1) << k) | row0 << k
    messages[1] = Word(value, messages[1].n)
    with pytest.raises(ContractError, match="dependent"):
        _bob(x, params, messages)


def test_composite_round_trips_at_n_2_15():
    # Exactly floor(alpha*n) = 163 flips over 2731 blocks of 12 bits leave a
    # handful of blocks with two or more, well within floor(s/2) = 32.
    n = 1 << 15
    params = ProbParams(k=12, s=64, delta=Fraction(1, 10), inner_dim=8)
    bounds = Bounds(Fraction(1, 200), n)
    p = next_prime_at_least(n)
    m = -(-p // params.k)
    rows = params.k - params.inner_dim
    bits = 2 * (p - 1).bit_length() + rows * (params.k + m) + params.s * params.k
    assert bits == 11772
    for seed in range(5):
        rng = random.Random(300 + seed)
        y = Word(rng.getrandbits(n), n)
        x = Word(y.value ^ sum(1 << i for i in rng.sample(range(n), bounds.radius)), n)
        assert (x.value ^ y.value).bit_count() == 163
        out = composite_prob_sync(SyncInstance(x, y, bounds), params, random.Random(400 + seed))
        assert out.recovered == x
        assert out.transcript.total_bits == bits


def _composite_outcomes(trials=300, seed=2007):
    """Outcome counts and a SHA-256 of every recovered value and diagnostic
    of `trials` runs at smith-stress scale, where s = 2 heals one wrong
    block, so all three outcomes occur."""
    n = 512
    bounds = Bounds(Fraction(1, 32), n)
    params = ProbParams(k=9, s=2, delta=Fraction(1, 10), inner_dim=5)
    rng = random.Random(seed)
    counts = Counter()
    digest = hashlib.sha256()
    for _ in range(trials):
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
    return counts, digest.hexdigest()


def test_composite_outcomes_pinned():
    # Captured when the inner code became one draw of k distinct nonzero
    # parity-check columns; the old sampler's pin is checked below.
    counts, digest = _composite_outcomes()
    assert counts == {"exact": 175, "reported": 119, "silent": 6}
    assert digest == (
        "f238373233ae45623e4eb5c9e5b7bc4f6b03b7449054919c54d5c0c614a4fc66"
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


# (n, alpha, params, trials) per benchmark size, seeded with 2026
_TRANSCRIPT_CASES = {
    # the registry defaults, as the smith-2048 benchmark workload runs them
    "smith-2048": (
        2048, Fraction(1, 20), ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6), 40
    ),
    # the smith-stress parameters, where all three outcomes occur
    "smith-stress": (
        512, Fraction(1, 32), ProbParams(k=9, s=2, delta=Fraction(1, 10), inner_dim=5), 300
    ),
}


@pytest.mark.parametrize(
    "case, expected",
    [
        ("smith-2048", "c4719d925828f1c10d0fa1aead44cfe8896006568dd805f2c61c204b608bad97"),
        ("smith-stress", "6a8fe260b174e6b6c399739882519b52ac673f4e04191f47dc665b4640015fee"),
    ],
    ids=["smith-2048", "smith-stress"],
)
def test_composite_transcripts_pinned(case, expected):
    # Captured when the inner code became one draw of k distinct nonzero
    # parity-check columns; any change to Alice's draws or to a payload bit
    # shows here.
    assert _composite_transcript_digest(*_TRANSCRIPT_CASES[case], 2026) == expected


def _flip_positions(pattern, n, r, rng):
    """r distinct positions in [0, n): uniform, one run of consecutive
    positions, or every c-th bit for pattern "stride-c", from a random start."""
    if pattern == "uniform":
        return rng.sample(range(n), r)
    step = 1 if pattern == "burst" else int(pattern.removeprefix("stride-"))
    start = rng.randrange(n - step * (r - 1))
    return range(start, start + step * r, step)


def _pattern_outcomes(case, pattern, trials, seed):
    """Outcome counts and a SHA-256 of every recovered value and diagnostic
    of `trials` composite runs with exactly floor(alpha n) flips in this
    pattern."""
    n, alpha, params, _ = _TRANSCRIPT_CASES[case]
    bounds = Bounds(alpha, n)
    rng = random.Random(seed)
    counts = Counter()
    digest = hashlib.sha256()
    for _ in range(trials):
        y = Word(rng.getrandbits(n), n)
        x = y.flip(_flip_positions(pattern, n, bounds.radius, rng))
        assert (x.value ^ y.value).bit_count() == bounds.radius
        out = composite_prob_sync(SyncInstance(x, y, bounds), params, rng)
        if out.reported_failure:
            counts["reported"] += 1
        elif out.recovered == x:
            counts["exact"] += 1
        else:
            counts["silent"] += 1
        value = None if out.recovered is None else out.recovered.value
        digest.update(repr((value, sorted(out.diagnostics.items()))).encode())
    return counts, digest.hexdigest()


# case, pattern, trials: (exact, reported, silent), digest
_PATTERN_PINS = {
    ("smith-2048", "uniform", 150): (
        (150, 0, 0), "6bae50699da6360436a7bd2d9e94e5a6fbbce78bc27b0cc580b4038670c04dbf"
    ),
    ("smith-2048", "burst", 150): (
        (147, 3, 0), "f0b600afb4d934fdf58311d0e8d0ec707130a99e5a7ce29f7ced70ef8161ca46"
    ),
    ("smith-2048", "stride-2", 150): (
        (148, 2, 0), "650dd18da4b183778d82b02415b1e3a45a02b01db2a5a794819666efc674bc07"
    ),
    ("smith-2048", "stride-11", 150): (
        (144, 6, 0), "5550bbe9c630a59706f19295963c6174b708d953a3d6d5ad5def20e70c98159e"
    ),
    ("smith-stress", "uniform", 300): (
        (170, 109, 21), "8640ddf9d76300ccfba8e835a05644472224f67f4054a2c41ce65d4879a8246a"
    ),
    ("smith-stress", "burst", 300): (
        (234, 60, 6), "0bfd35d07c0574f377367b11664675e71fa1c8dd0ac144142f4b840e086df332"
    ),
    ("smith-stress", "stride-2", 300): (
        (244, 48, 8), "285b7660b15412fb35ee789b8f8b4fdc93747ded5b03d02c7c5746c3ff1eb2d3"
    ),
    ("smith-stress", "stride-11", 300): (
        (226, 64, 10), "08b557cde3559915e88d6fc3cd02d8ef9b9747112f4e4a27895165adccf63f97"
    ),
}


@pytest.mark.parametrize(
    "key", _PATTERN_PINS, ids=[f"{case}-{pattern}" for case, pattern, _ in _PATTERN_PINS]
)
def test_composite_flip_patterns_pinned(key):
    # Bursts and strides put several flips in one block, where the fix
    # table's ties decide the estimate.  Stride 11 is smith-2048's block
    # size, so before the permutation every flip sits at one offset of its
    # own block.  Captured before the fix table's tie rule became "the
    # smaller word".
    (exact, reported, silent), expected = _PATTERN_PINS[key]
    counts, digest = _pattern_outcomes(*key, seed=2039)
    assert (counts["exact"], counts["reported"], counts["silent"]) == (exact, reported, silent)
    assert digest == expected


@pytest.mark.parametrize("case", _TRANSCRIPT_CASES)
def test_smith_builds_no_code_and_no_solver(monkeypatch, case):
    # Bob's fix table comes from the received columns alone: no trial
    # reduces the rows into a LinearCode or an AffineSolver.
    built = Counter()

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            built[cls.__name__] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counting(AffineSolver, "__init__")
    counting(LinearCode, "__post_init__")
    LinearCode(3, (1, 2))
    assert built == {"AffineSolver": 1, "LinearCode": 1}  # the counters count
    built.clear()
    n, alpha, params, _ = _TRANSCRIPT_CASES[case]
    bounds = Bounds(alpha, n)
    rng = random.Random(2040)
    for _ in range(50):
        y = Word(rng.getrandbits(n), n)
        x = y.flip(rng.sample(range(n), bounds.radius))
        composite_prob_sync(SyncInstance(x, y, bounds), params, rng)
    assert built == {}


def _old_sample_inner_code(k, dim, rng):
    """sample_inner_code before the column draw: random full-rank row sets,
    each built into a code and kept once its distance reaches 3, with the
    accepted code's parity-check columns returned."""
    for _ in range(500):
        code = random_linear_code(k, dim, rng)
        if min_distance(code) >= 3:
            return _transpose(code.h, k)
    raise RetryLimitError("no code")


def test_old_sampler_reproduces_the_old_pins(monkeypatch):
    # The pins above moved only because the inner code is drawn differently
    # (from the same distribution): with the old sampler patched back in,
    # every transcript, outcome and diagnostic is the one pinned before.
    monkeypatch.setattr(probproto, "sample_inner_code", _old_sample_inner_code)
    counts, digest = _composite_outcomes()
    assert counts == {"exact": 169, "reported": 120, "silent": 11}
    assert digest == "44b869cab5c8d77698a913292bfba8cf09d14559e0fb609eb49c7473aef525b6"
    assert _composite_transcript_digest(*_TRANSCRIPT_CASES["smith-2048"], 2026) == (
        "cb030d8042710ae9aee667b1fd7e2be798cfd99f85204ad8cb921521ff75bfd9"
    )
    assert _composite_transcript_digest(*_TRANSCRIPT_CASES["smith-stress"], 2026) == (
        "2805361d1a1001730fa11aa2f9b8e9a34ded3665231646e8068ac6944a30b50b"
    )


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
    # The RS layer needs a spare field element: at n = p = 37 and k = 4 there
    # are m = 10 blocks, so s = 5 leaves one element of GF(16) spare and
    # s = 6 leaves none.
    bounds = Bounds(Fraction(1, 37), 37)
    x = Word(random.Random(1).getrandbits(37), 37)
    inst = SyncInstance(x, x.flip([3]), bounds)
    out = composite_prob_sync(inst, ProbParams(4, 5, Fraction(1, 10), 1), random.Random(0))
    assert out.recovered == x
    with pytest.raises(ContractError, match="cannot hold"):
        composite_parties(inst, ProbParams(4, 6, Fraction(1, 10), 1), random.Random(0))
    # The RS layer's largest column table holds (m + s) s lanes, at most
    # 2^20: at n = 64 (p = 67) and k = 12 there are m = 6 blocks, so s = 1021
    # is the last s inside.  s = 2000 would take about 0.9 s and 26 MB.
    bounds = Bounds(Fraction(1, 64), 64)
    x = Word(random.Random(2).getrandbits(64), 64)
    inst = SyncInstance(x, x.flip([5]), bounds)
    out = composite_prob_sync(inst, ProbParams(12, 1021, Fraction(1, 10), 8), random.Random(0))
    assert out.recovered == x
    for s in (1022, 2000):
        with pytest.raises(CapabilityError, match="budget"):
            composite_parties(inst, ProbParams(12, s, Fraction(1, 10), 8), random.Random(0))


def test_rs_layer_gets_what_it_relies_on(monkeypatch):
    # rs_extra_evals and rs_correct check nothing; smith hands them 1 <= m,
    # m + s < 2^k and k-bit values, here up to the field's last spare element.
    calls = []  # (k, m, s, every value passed)

    def encode(fld, blocks, s):
        calls.append((fld.k, len(blocks), s, list(blocks)))
        return rs_extra_evals(fld, blocks, s)

    def correct(fld, received, extra):
        calls.append((fld.k, len(received), len(extra), [*received, *extra]))
        return rs_correct(fld, received, extra)

    monkeypatch.setattr(probproto, "rs_extra_evals", encode)
    monkeypatch.setattr(probproto, "rs_correct", correct)
    rng = random.Random(9)
    for n, k, s, inner_dim in [(2, 3, 2, 1), (37, 4, 5, 1), (100, 8, 200, 4), (512, 9, 2, 5)]:
        bounds = Bounds(Fraction(1, 32), n)
        params = ProbParams(k, s, Fraction(1, 10), inner_dim)
        for _ in range(3):
            y = Word(rng.getrandbits(n), n)
            inst = SyncInstance(random_word_within(y, bounds.radius, rng), y, bounds)
            composite_prob_sync(inst, params, rng)
    assert len(calls) == 24
    for k, m, s, values in calls:
        assert 1 <= m and m + s < 1 << k
        assert all(0 <= v < 1 << k for v in values)


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
