import functools
import hashlib
import itertools
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from test_gf2codes import min_distance

from hamsync import gf2codes, probproto
from hamsync.bitword import Bounds, Word, pack_fields, random_word_within, unpack_fields
from hamsync.errors import CapabilityError, ContractError, RetryLimitError
from hamsync.gf2codes import (
    LEADER_MAX_N,
    AffineSolver,
    LinearCode,
    hamming_7_4,
    mat_vec,
    random_linear_code,
    rank,
    unique_decode,
)
from hamsync.gf2k_rs import _pack_lanes, _unpack_lanes, field, rs_correct, rs_extra_evals
from hamsync.harness import ExperimentConfig, run_experiment
from hamsync.hashing import is_prime
from hamsync.probproto import (
    AffinePermutation,
    ProbParams,
    _block_syndromes,
    _columns_from_matrix,
    _gather_plan,
    _matrix_from_columns,
    _relane,
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


def _transpose(masks, width):
    """Int c < width has bit r equal to bit c of masks[r]: columns from rows,
    or back, through one string per mask."""
    rows = [format(mask, f"0{width}b") for mask in reversed(masks)]  # last mask, top bit first
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


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


@pytest.mark.parametrize("p", [q for q in range(62) if is_prime(q)] + [101])
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


@pytest.mark.parametrize("p", [521, 2053])
def test_strided_gather_matches_bit_by_bit_for_every_multiplier(p):
    rng = random.Random(p + 1)
    for a in range(1, p):
        for b in (0, p - 1, rng.randrange(p)):
            perm, w = AffinePermutation(p, a, b), Word(rng.getrandbits(p), p)
            assert apply_permutation(perm, w) == _gather_bit_by_bit(perm, w)


@pytest.mark.parametrize("p", [2053, 32771])
def test_strided_gather_matches_bit_by_bit_on_random_maps(p):
    rng = random.Random(p)
    words = [0, (1 << p) - 1, 1 << (p - 1)]  # zero, all ones, top bit only
    edges = (1, 2, p - 2, p - 1, (p - 1) // 2, (p + 1) // 2)
    maps = [(a, b) for a in edges for b in (0, p - 1)]
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


def _blocks_by_shifts(value, count, k):
    """value's count fields of k bits, low field first, one shift each."""
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
        for k in range(2, LEADER_MAX_N + 1):
            for dim in range(1, k):
                try:
                    ProbParams(k, 64, Fraction(1, 10), dim)
                except ContractError:
                    continue
                m, rows = -(-p // k), k - dim
                counts = [1, 2, 3, m, rows] + [s for s in (2, 64) if m + s < 1 << k]
                for src, dst in ((k, 16), (16, k), (rows, 16), (16, rows)):
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


def test_inverse_gather_undoes_the_gather():
    # Bob undoes the permutation by gathering with the inverse map, on
    # differences that are mostly sparse.
    rng = random.Random(83)
    for p in (2, 3, 13, 101, 2053, 32771):
        for _ in range(30):
            perm = sample_permutation(p, rng)
            diffs = [0, 1, 1 << (p - 1), (1 << p) - 1, rng.getrandbits(p)]
            diffs.append(sum(1 << i for i in rng.sample(range(p), min(p, 5))))
            for diff in diffs:
                w = Word(diff, p)
                assert apply_permutation(inverse(perm), apply_permutation(perm, w)) == w
                assert apply_permutation(perm, apply_permutation(inverse(perm), w)) == w


def _gather_bound(p):
    """apply_permutation's stated ratio K, and its slice and copy bounds,
    which hold at every p."""
    ratio = min(64, max(4, (1 << 17) // p))
    return ratio, 2 * math.isqrt(p) + 1, ratio + 2


def _slice_count(p, c, e, copies):
    """The slices apply_permutation takes on this plan: class r's
    (p - 1 - r) // c + 1 places in runs of (copies - 1) p // |e|."""
    run = (copies - 1) * p // abs(e)
    q, t = divmod(p, c)  # t classes of q + 1 places, c - t of q
    return t * -(-(q + 1) // run) + (c - t) * -(-q // run)


def _largest_smith_prime():
    """The largest p that composite_parties accepts: k = LEADER_MAX_N and the
    fewest extras, s = 2, leave m = ceil(p / k) <= 2^k - 3 blocks."""
    p = LEADER_MAX_N * ((1 << LEADER_MAX_N) - 3)
    while not is_prime(p):
        p -= 1
    return p


def _check_plan(a, p):
    ratio, most_slices, most_copies = _gather_bound(p)
    c, e, copies = _gather_plan(a, p)
    assert (a * c - e) % p == 0
    slices = _slice_count(p, c, e, copies)
    assert c <= slices <= most_slices
    assert copies <= most_copies  # R*p <= (K + 2)*p bytes copied
    return slices


@functools.lru_cache(maxsize=None)
def _slices_by_multiplier(p):
    """a -> the slices of a's plan, for every multiplier, each plan checked
    against the bounds."""
    return {a: _check_plan(a, p) for a in range(1, p)}


def _uncapped_gather_plan(a, p):
    """_gather_plan as it was when it capped the step at sqrt(p) only past
    p = 2^15, and below that walked on until a step within K."""
    ratio = min(64, max(4, (1 << 17) // p))
    most = math.isqrt(p) if p > 1 << 15 else p
    pos, neg = (1, a), (1, a - p)
    c, e = pos if 2 * a <= p else neg
    while abs(e) > ratio * c:
        (c0, e0), (dc, de) = (pos, neg) if pos[1] > -neg[1] else (neg, pos)
        i = min(abs(e0) // abs(de), -(-(abs(e0) - ratio * c0) // (abs(de) + ratio * dc)))
        if c0 + i * dc > most:
            i = (most - c0) // dc
            if not i:
                return dc, de, ratio + 2
        c, e = c0 + i * dc, e0 + i * de
        if e > 0:
            pos = (c, e)
        else:
            neg = (c, e)
    span = -(-p // c) * abs(e)
    return c, e, 1 + -(-span // p)


@pytest.mark.parametrize("p", [521, 2053, 4093])
def test_gather_plan_is_unchanged_up_to_4093(p):
    # The sqrt(p) cap never binds here, so smith-stress (p = 521) and
    # smith-2048 (p = 2053) gather with the plans the uncapped walk gave.
    assert all(_gather_plan(a, p) == _uncapped_gather_plan(a, p) for a in range(1, p))


def test_gather_plan_first_changes_at_4099():
    changed = [a for a in range(1, 4099) if _gather_plan(a, 4099) != _uncapped_gather_plan(a, 4099)]
    assert changed
    for a in changed:
        assert _check_plan(a, 4099) < _slice_count(4099, *_uncapped_gather_plan(a, 4099))


def test_gather_plan_stays_within_its_stated_bounds():
    # A count, not a timing: the step rule must keep the slices and the
    # copied bytes inside apply_permutation's docstring bounds.
    for p in (521, 2053):
        ratio = _gather_bound(p)[0]
        slices = _slices_by_multiplier(p)
        # every class is one slice, and there are at most ceil(p / 2K)
        assert all(count == _gather_plan(a, p)[0] for a, count in slices.items())
        assert max(slices.values()) <= -(-p // (2 * ratio))
    assert _gather_bound(2053) == (63, 91, 65)
    assert max(slices.values()) == 17
    assert sum(slices.values()) <= 6 * len(slices)  # 5.63 slices on average at p = 2053

    p = _largest_smith_prime()
    params = ProbParams(LEADER_MAX_N, 2, Fraction(1, 10), 8)
    for n in (p, p + 1):
        y = Word(0, n)
        instance = SyncInstance(y, y, Bounds(Fraction(1, 100), n))
        if n == p:
            composite_parties(instance, params, random.Random(0))
        else:
            with pytest.raises(ContractError):
                composite_parties(instance, params, random.Random(0))
    ratio = _gather_bound(p)[0]
    rng = random.Random(84)
    hard = [1, 2, p - 2, p - 1, (p - 1) // 2, (p + 1) // 2, ratio + 1, p - ratio - 1]
    for a in hard + [rng.randrange(1, p) for _ in range(300)]:
        _check_plan(a, p)
    for a in hard[-2:] + [rng.randrange(1, p)]:
        perm, w = AffinePermutation(p, a, rng.randrange(p)), Word(rng.getrandbits(p), p)
        assert apply_permutation(perm, w) == _gather_bit_by_bit(perm, w)


def test_gather_plan_bounds_every_multiplier_past_2_15():
    # Past 2^15 a class may take several slices, so that no multiplier
    # needs more than 2 sqrt(p) + 1; the step-only rule took 3,642 at a = 5.
    p = 32771
    slices = _slices_by_multiplier(p)
    assert slices[5] < 200
    assert max(slices.values()) <= 2 * math.isqrt(p) + 1
    # Just below 2^15 the same bound holds: the uncapped walk took 3,639
    # slices at the worst multiplier of 32749.
    assert max(_slices_by_multiplier(32749).values()) == 180


@pytest.mark.parametrize("p, worst, uncapped", [(8209, 90, 265), (16411, 128, 1095)])
def test_gather_plan_bounds_every_multiplier_below_2_15(p, worst, uncapped):
    slices = _slices_by_multiplier(p)
    assert max(slices.values()) == worst <= 2 * math.isqrt(p) + 1
    assert max(_slice_count(p, *_uncapped_gather_plan(a, p)) for a in range(1, p)) == uncapped


def test_split_gather_matches_the_map_at_the_worst_multipliers():
    rng = random.Random(85)
    for p in (16411, 32749, 32771):
        counts = _slices_by_multiplier(p)
        worst = sorted(counts, key=counts.get)[-3:]
        split = [a for a, count in counts.items() if _gather_plan(a, p)[0] < count][:3]
        assert split  # some classes do take more than one slice
        for a in [5, p - 5, *worst, *split]:
            for b in (0, rng.randrange(p)):
                perm, w = AffinePermutation(p, a, b), Word(rng.getrandbits(p), p)
                out = apply_permutation(perm, w)
                assert out == _gather_bit_by_bit(perm, w)
                assert apply_permutation(inverse(perm), out) == w


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
    for k in range(2, LEADER_MAX_N + 1):
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


def test_matrix_packing_matches_the_string_transpose_both_ways():
    # Every k <= LEADER_MAX_N and rows < k, on columns that may repeat or be 0.
    rng = random.Random(86)
    for k in range(2, LEADER_MAX_N + 1):
        for rows in range(1, k):
            for columns in (
                [(1 << rows) - 1] * k,
                [rng.getrandbits(rows) for _ in range(k)],
                [rng.getrandbits(rows) for _ in range(k)],
            ):
                matrix = _matrix_from_columns(columns, rows)
                rows_by_string = _transpose(columns, rows)
                assert matrix == sum(row << (r * k) for r, row in enumerate(rows_by_string))
                assert _columns_from_matrix(matrix, rows, k) == columns


def test_block_syndromes_match_per_block_products():
    rng = random.Random(75)
    for _ in range(200):
        k = rng.randint(2, 14)
        rows = rng.randint(1, k - 1)
        masks = tuple(rng.getrandbits(k) for _ in range(rows))
        n = rng.randint(1, 300)  # n % k != 0 leaves a zero-padded last block
        w = Word(rng.getrandbits(n), n)
        blocks = _blocks_by_shifts(w.value, -(-n // k), k)
        packed = _block_syndromes(_transpose(masks, k), _pack_lanes(blocks), len(blocks))
        assert _unpack_lanes(packed, len(blocks)) == [mat_vec(masks, blk) for blk in blocks]


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
        xb = _blocks_by_shifts(apply_permutation(perm, Word(x.value, p)).value, m, params.k)
        yb = _blocks_by_shifts(apply_permutation(perm, Word(y.value, p)).value, m, params.k)
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
    fields: the map, the matrix rows and each block's syndrome, the RS sums."""
    k, rows = params.k, params.k - params.inner_dim
    width_p = (perm.p - 1).bit_length()
    matrix = _transpose(columns, rows)
    syndromes = [(mat_vec(matrix, blk), rows) for blk in blocks]
    sums = rs_extra_evals(field(k), _pack_lanes(blocks), len(blocks), params.s)
    return [
        pack_fields([(perm.a, width_p), (perm.b, width_p)]),
        pack_fields([(row, k) for row in matrix] + syndromes),
        pack_fields([(e, k) for e in _unpack_lanes(sums, params.s)]),
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


def _bob(y, params, radius, messages):
    """composite_bob's (recovered, diagnostics) on these messages, with
    d(x, y) <= radius promised."""
    bob = composite_bob(y, params, radius)
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
    sums = unpack_fields(messages[2], [k] * s)
    fixed = rs_correct(field(k), _pack_lanes(estimates), _pack_lanes(sums), m, s)
    fixed = None if fixed is None else _unpack_lanes(fixed, m)
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
            recovered, diag = _bob(y, params, 102, messages)
            assert (recovered, diag) == _reference_bob(y, params, messages)
            outcomes[name, _outcome(x, recovered, diag)] += 1
        messages[2] = Word(rng.getrandbits(params.s * k), params.s * k)
        recovered, diag = _bob(y, params, 102, messages)
        assert (recovered, diag) == _reference_bob(y, params, messages)
        outcomes["garbage sums", _outcome(x, recovered, diag)] += 1
    assert outcomes == {
        ("x", "x"): 4,
        ("bit above p", "padding_violation"): 4,
        ("bit in [n, p)", "padding_violation"): 4,
        ("garbage sums", "rs_failure"): 4,
    }


def test_bob_rejects_messages_of_the_wrong_length():
    n, params = _SHAPES[2]
    x = Word(random.Random(85).getrandbits(n), n)
    messages = list(composite_alice(x, params, random.Random(86)))
    assert _bob(x, params, 0, messages) == _reference_bob(x, params, messages)
    for i in (1, 2):
        for extra_bits in (-1, 1):
            wrong = list(messages)
            wrong[i] = Word(messages[i].value >> max(0, -extra_bits), messages[i].n + extra_bits)
            with pytest.raises(ContractError):
                _bob(x, params, 0, wrong)


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
        _bob(x, params, 0, messages)


# n, alpha, params, and whether x is exactly floor(alpha n) flips from y
# (item 2's rows in ROADMAP.md) or a uniform distance within it (as the
# smith-stress benchmark workload draws it)
_CHECK_CASES = {
    "smith-stress": (512, Fraction(1, 32), ProbParams(9, 2, Fraction(1, 10), 5), False),
    "n512-exact": (512, Fraction(1, 32), ProbParams(9, 2, Fraction(1, 10), 5), True),
    "n256-exact": (256, Fraction(1, 16), ProbParams(8, 2, Fraction(1, 10), 4), True),
}


@pytest.mark.parametrize("case", _CHECK_CASES)
def test_bob_refuses_only_what_was_a_silent_wrong_word(case):
    # The block-syndrome and promise checks cost no bit and cannot refuse x:
    # Bob before them (_reference_bob) and Bob now, on the same messages,
    # agree on every trial except where the reference returned a wrong word
    # without a report, which Bob now refuses with one of the new reasons.
    n, alpha, params, exact_flips = _CHECK_CASES[case]
    radius = Bounds(alpha, n).radius
    rng = random.Random(2041)
    outcomes = Counter()
    for _ in range(1000):
        y = Word(rng.getrandbits(n), n)
        if exact_flips:
            x = y.flip(rng.sample(range(n), radius))
        else:
            x = random_word_within(y, radius, rng)
        messages = list(composite_alice(x, params, rng))
        recovered, diag = _bob(y, params, radius, messages)
        reference = _reference_bob(y, params, messages)
        new_reasons = diag.keys() & {"block_syndrome_mismatch", "promise_violation"}
        if new_reasons:
            assert recovered is None
            assert reference[0] not in (None, x)
            outcomes["refused a wrong word", *new_reasons] += 1
        else:
            assert (recovered, diag) == reference
            outcomes[_outcome(x, recovered, diag)] += 1
    assert outcomes["x"] > 100
    assert outcomes["refused a wrong word", "block_syndrome_mismatch"] > 0
    if case != "smith-stress":
        assert outcomes["refused a wrong word", "promise_violation"] > 0
    assert outcomes["wrong word"] < sum(
        count for key, count in outcomes.items() if key[0] == "refused a wrong word"
    )


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
    # Captured when Bob began refusing a corrected block whose syndrome is
    # not Alice's and a word past the promise radius: 5 of the 6 silent
    # wrong words became reported failures, with the same 175 exact.  The
    # old sampler's pin is checked below.
    counts, digest = _composite_outcomes()
    assert counts == {"exact": 175, "reported": 124, "silent": 1}
    assert digest == (
        "348a93634f8c678485d03f174dd1938e26ed9cda4a890a2134d27b316554cc68"
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
        ("smith-2048", "511d582f9ee990b28af3554deb56e6ebe71ed91564a649cc6a7b62998e85c6d6"),
        ("smith-stress", "fbc5d437e9427e256e1b19056b156dc1f31b7180cce3b41202fe8c71d1db5477"),
    ],
    ids=["smith-2048", "smith-stress"],
)
def test_composite_transcripts_pinned(case, expected):
    # Captured when the inner code became one draw of k distinct nonzero
    # parity-check columns; any change to Alice's draws or to a payload bit
    # shows here.  smith-stress's was captured again, with every message
    # unchanged, when Bob began refusing words that contradict the block
    # syndromes or the promise radius.  Both were captured again when the
    # third message became Alice's RS sums in place of her extra evaluations,
    # an invertible image of them in as many bits.
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
        (170, 130, 0), "0fa40d9ae1afab2c2bd402adc455259d940348de1702bafedff8a3a4ea8cd3de"
    ),
    ("smith-stress", "burst", 300): (
        (234, 66, 0), "391fd964e3d1717f7cde80c579ac4d56f0425f0e8ef106fdb5ee522535b4937a"
    ),
    ("smith-stress", "stride-2", 300): (
        (244, 55, 1), "c6314425d8916e4d6eb2ae20afc796bfff1878efc4cdd4751703cff8f2b9e087"
    ),
    ("smith-stress", "stride-11", 300): (
        (226, 73, 1), "31471953da89daec0e365e5353df5c31cc2c38acbffc008fcf1be0d169d77e7c"
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
    # smaller word"; smith-stress's were captured again, with the same exact
    # counts, when Bob began refusing words that contradict the block
    # syndromes or the promise radius.  smith-stress-burst's was captured
    # again, with the same exact count, when Bob began locating RS errors
    # among the blocks only: its one silent wrong word is now reported.
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
    # The smith-stress values were captured again when Bob began refusing
    # words that contradict the block syndromes or the promise radius: the
    # same 169 exact, and all 11 silent wrong words reported.  The two
    # transcript digests were captured again when the third message became
    # Alice's RS sums, with the same outcomes.
    monkeypatch.setattr(probproto, "sample_inner_code", _old_sample_inner_code)
    counts, digest = _composite_outcomes()
    assert counts == {"exact": 169, "reported": 131}
    assert digest == "191b260403c3eee94f2ad2fbd571349fa66bc8dadc21db3b3c20bf96878b3a42"
    assert _composite_transcript_digest(*_TRANSCRIPT_CASES["smith-2048"], 2026) == (
        "6305b49f42bc645826e53f02f19ad74ce165ce42b4d4648700cd086a1443c545"
    )
    assert _composite_transcript_digest(*_TRANSCRIPT_CASES["smith-stress"], 2026) == (
        "e0468da109a5b5f58f5a7da61706a96ba2dab4976b2707ebd82237ac6b9964ff"
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


def test_smith_proves_p_prime_in_its_first_trial_only(monkeypatch):
    # p, m and the widths are settled once per shape, and AffinePermutation
    # remembers each p it proved prime, so no later trial divides.
    tests = []

    def counted(m):
        tests.append(m)
        return is_prime(m)

    monkeypatch.setattr(probproto, "is_prime", counted)
    probproto._composite_shape.cache_clear()
    probproto._proved_prime.cache_clear()
    bounds = Bounds(Fraction(1, 32), 512)
    params = ProbParams(9, 2, Fraction(1, 10), 5)
    rng = random.Random(21)
    per_trial = []
    for _ in range(20):
        y = Word(rng.getrandbits(512), 512)
        before = len(tests)
        instance = SyncInstance(random_word_within(y, 16, rng), y, bounds)
        composite_prob_sync(instance, params, rng)
        per_trial.append(len(tests) - before)
    assert per_trial[0] > 0 and 521 in tests
    assert per_trial[1:] == [0] * 19


def test_shape_caches_fill_alike_from_many_threads():
    # Four threads on two vCPUs run smith on shapes none has seen, switching
    # every microsecond, and each gets what one thread alone got.
    shapes = [(97, 7), (203, 8), (389, 9)]
    shapes = [(n, ProbParams(k, 2, Fraction(1, 10), k - 4)) for n, k in shapes]

    def runs():
        out = []
        for seed, (n, params) in enumerate(shapes):
            rng = random.Random(seed)
            y = Word(rng.getrandbits(n), n)
            bounds = Bounds(Fraction(1, 32), n)
            instance = SyncInstance(random_word_within(y, bounds.radius, rng), y, bounds)
            got = composite_prob_sync(instance, params, rng)
            out.append((got.transcript, got.recovered, got.diagnostics))
        return out

    probproto._composite_shape.cache_clear()
    probproto._check_slack.cache_clear()
    probproto._proved_prime.cache_clear()
    results = []
    threads = [threading.Thread(target=lambda: results.append(runs())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [runs()] * 4


def test_rs_layer_gets_what_it_relies_on(monkeypatch):
    # rs_extra_evals and rs_correct check nothing; smith hands them 1 <= m,
    # m + s < 2^k and k-bit values, here up to the field's last spare element.
    calls = []  # (k, m, s, every value passed)

    def encode(fld, blocks, m, s):
        calls.append((fld.k, m, s, _unpack_lanes(blocks, m)))
        return rs_extra_evals(fld, blocks, m, s)

    def correct(fld, values, sums, m, s):
        calls.append((fld.k, m, s, _unpack_lanes(values, m) + _unpack_lanes(sums, s)))
        return rs_correct(fld, values, sums, m, s)

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
        one_round_prob_parties(code, 8, inst, 16, random.Random(0))  # a ball over the walk budget


def test_one_round_round_trips_at_n_64_radius_2():
    # Past the codeword scan's reach: the ball table walks 2,081 words.
    rng = random.Random(1213)
    code = random_linear_code(64, 40, rng)
    bounds = Bounds(Fraction(2, 64), 64)
    for flips in (0, 1, 2, 2, 2):
        y = Word(rng.getrandbits(64), 64)
        inst = SyncInstance(y.flip(rng.sample(range(64), flips)), y, bounds)
        out = one_round_prob_sync(code, 2, inst, 16, rng)
        assert out.recovered == inst.x and not out.reported_failure
