import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from hamsync import gf2codes, probproto
from hamsync.bitword import Bounds, Word, ball_volume
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import (
    WALK_BUDGET,
    AffineSolver,
    LinearCode,
    _rref,
    _walk,
    ball_table,
    check_walk_budget,
    codewords,
    coset_leaders,
    hamming_7_4,
    list_decode_exhaustive,
    mat_vec,
    parity_columns,
    random_linear_code,
    rank,
    syndrome,
    unique_decode,
)
from hamsync.harness import ExperimentConfig, run_experiment
from hamsync.probproto import ProbParams, sample_inner_code
from hamsync.syncdet import SyncInstance, _message_columns, brute_sync, syndrome_sync


def min_distance(code):
    """Minimum weight of a nonzero codeword, over all 2^k of them."""
    return min(c.bit_count() for c in codewords(code) if c)


def mat_vec_oracle(rows: tuple[int, ...], cols: int, x: int) -> int:
    out = 0
    for r, mask in enumerate(rows):
        acc = 0
        for c in range(cols):
            acc ^= (mask >> c) & (x >> c) & 1
        out |= acc << r
    return out


def rank_oracle(masks) -> int:
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return (len(span) - 1).bit_length()


def test_mat_vec_matches_oracle():
    rng = random.Random(31)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 12)
        h = tuple(rng.getrandbits(cols) for _ in range(rows))
        x = rng.getrandbits(cols)
        assert mat_vec(h, x) == mat_vec_oracle(h, cols, x)


def test_rank_matches_span_size():
    # LinearCode checks the rank: it accepts exactly the full-rank rows.
    rng = random.Random(32)
    seen = set()
    for _ in range(100):
        cols = rng.randint(2, 8)
        rows = rng.randint(1, cols - 1)
        masks = tuple(rng.getrandbits(cols) for _ in range(rows))
        full_rank = rank_oracle(masks) == rows
        seen.add(full_rank)
        if full_rank:
            assert LinearCode(cols, masks).k == cols - rows
        else:
            with pytest.raises(ContractError):
                LinearCode(cols, masks)
    assert seen == {True, False}


def test_parity_check_contracts():
    # LinearCode's checks, directly and through dataclasses.replace
    code = hamming_7_4()
    # no rows
    with pytest.raises(ContractError):
        dataclasses.replace(code, h=())
    with pytest.raises(ContractError):
        LinearCode(3, ())
    # as many rows as columns, which leaves no message bit
    with pytest.raises(ContractError):
        dataclasses.replace(code, h=tuple(1 << c for c in range(7)))
    with pytest.raises(ContractError):
        LinearCode(3, (0b001, 0b010, 0b100))
    # a bit outside the block length
    with pytest.raises(ContractError):
        dataclasses.replace(code, h=(code.h[0] | 1 << 7, *code.h[1:]))
    with pytest.raises(ContractError):
        LinearCode(3, (0b1001,))


def test_affine_solver_matches_exhaustive():
    # Independent rows only, as LinearCode builds its solver: every b has
    # solutions, and solve returns the one that is zero off the pivots.
    rng = random.Random(34)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(rows, 7)
        h = ()
        while rank(h) < rows:
            h = tuple(rng.getrandbits(cols) for _ in range(rows))
        solver = AffineSolver(h, cols)
        pivots = sum(1 << c for c in solver.pivot_cols)
        for b in range(1 << rows):
            solutions = [t for t in range(1 << cols) if mat_vec(h, t) == b]
            assert [t for t in solutions if t & ~pivots == 0] == [solver.solve(b)]


def test_linear_code_rejects_dependent_rows():
    with pytest.raises(ContractError):
        LinearCode(3, (0b101, 0b101))
    with pytest.raises(ContractError):
        LinearCode(4, (0b0011, 0b0110, 0b0101))


def _old_code_from_parity(row_masks, n):
    """The constructor LinearCode replaced, returning (k, g_rows,
    message_positions) as it built them."""
    nrows = len(row_masks)
    if not 1 <= nrows < n:
        raise ContractError("need between 1 and n-1 parity rows")
    reduced, pivots = _rref(row_masks, n)
    if len(pivots) != nrows:
        raise ContractError("parity rows are linearly dependent")
    pivot_set = set(pivots)
    free_cols = tuple(c for c in range(n) if c not in pivot_set)
    g_rows = []
    for f in free_cols:
        w = 1 << f
        for row, p in zip(reduced, pivots):
            if (row >> f) & 1:
                w |= 1 << p
        g_rows.append(w)
    return n - nrows, tuple(g_rows), free_cols


def encode(code, message):
    """The codeword whose message positions, the columns _rref leaves free,
    carry the message bits: brute's Alice sent its other bits."""
    _, g_rows, _ = _old_code_from_parity(code.h, code.n)
    if message.n != code.k:
        raise ContractError(f"message must have {code.k} bits")
    w = 0
    for i, g in enumerate(g_rows):
        if (message.value >> i) & 1:
            w ^= g
    return Word(w, code.n)


def extract_message(code, codeword):
    """The bits of codeword at the message positions, in order."""
    _, _, positions = _old_code_from_parity(code.h, code.n)
    return Word(sum(((codeword.value >> pos) & 1) << i for i, pos in enumerate(positions)), code.k)


def _assert_same_code(masks, n, enumerate_codewords):
    """LinearCode refuses what the old constructor refused; otherwise it has
    the same k, brute's message columns are H's columns at the old message
    positions, and the codewords are the span of the old generator rows."""
    try:
        old = _old_code_from_parity(masks, n)
    except ContractError:
        with pytest.raises(ContractError):
            LinearCode(n, masks)
        return False
    code = LinearCode(n, masks)
    k, _, positions = old
    assert code.k == k
    assert _message_columns(code) == tuple(mat_vec(masks, 1 << f) for f in positions)
    if enumerate_codewords:
        words = [0]
        for g in old[1]:
            words += [w ^ g for w in words]
        assert codewords(code) == tuple(sorted(words))
    return True


@pytest.mark.parametrize("n, rows", [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (6, 2), (5, 3)])
def test_linear_code_derives_what_the_old_constructor_built(n, rows):
    # Every row set of the small shapes, dependent ones included.
    built = [
        _assert_same_code(masks, n, True)
        for masks in itertools.product(range(1 << n), repeat=rows)
    ]
    assert any(built) and not all(built)


def test_linear_code_matches_the_old_constructor_on_random_rows():
    rng = random.Random(42)
    dependent = 0
    for _ in range(300):
        n = rng.randint(2, 24)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(1, n - 1))]
        if len(masks) > 2 and rng.random() < 0.25:
            masks[-1] = masks[0] ^ masks[1]
        # codewords() spans 2^k words, so only the small-k codes enumerate
        dependent += not _assert_same_code(tuple(masks), n, n - len(masks) <= 12)
    assert dependent


def test_hamming_7_4_frozen_facts():
    code = hamming_7_4()
    assert (code.n, code.k) == (7, 4)
    # The message positions are 2, 4, 5 and 6; the check columns at 0, 1
    # and 3 are the unit vectors in order, so brute's check bits are the
    # syndrome of its message columns.
    assert _old_code_from_parity(code.h, 7)[2] == (2, 4, 5, 6)
    assert _message_columns(code) == (3, 5, 6, 7)
    assert parity_columns(code) == (1, 2, 3, 4, 5, 6, 7)
    assert min_distance(code) == 3
    for i in range(7):
        # the syndrome of a single flip at position i spells out i+1
        assert syndrome(code, Word(1 << i, 7)).value == i + 1


def test_hamming_corrects_every_single_error():
    code = hamming_7_4()
    for msg in range(16):
        c = encode(code, Word(msg, 4))
        assert syndrome(code, c).value == 0
        assert extract_message(code, c) == Word(msg, 4)
        for i in range(7):
            assert unique_decode(code, c.flip([i])) == c


def test_codewords_enumeration():
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        members = [v for v in range(1 << n) if mat_vec(code.h, v) == 0]
        assert list(codewords(code)) == members  # ascending and complete
        assert len(members) == 1 << k


def test_min_distance_matches_pairwise():
    rng = random.Random(36)
    for _ in range(20):
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        members = [v for v in range(1 << n) if mat_vec(code.h, v) == 0]
        best = min((a ^ b).bit_count() for a in members for b in members if a != b)
        assert min_distance(code) == best


def test_list_decode_matches_cube_scan():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(4, 10)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        y = Word(rng.getrandbits(n), n)
        r = rng.randint(0, n)
        expected = [
            v
            for v in range(1 << n)
            if mat_vec(code.h, v) == 0 and (v ^ y.value).bit_count() <= r
        ]
        assert [w.value for w in list_decode_exhaustive(code, y, r)] == expected


def test_unique_decode_is_nearest():
    rng = random.Random(38)
    for _ in range(30):
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        y = Word(rng.getrandbits(n), n)
        got = unique_decode(code, y)
        best = min((y.value ^ c).bit_count() for c in codewords(code))
        assert (y.value ^ got.value).bit_count() == best


def test_unique_decode_tie_breaks_low():
    code = LinearCode(2, (0b11,))  # codewords {00, 11}
    assert unique_decode(code, Word(0b01, 2)) == Word(0, 2)
    assert unique_decode(code, Word(0b10, 2)) == Word(0, 2)


def test_rank_matches_oracle():
    rng = random.Random(38)
    for _ in range(300):
        width = rng.randint(1, 8)  # narrow, so many sets are dependent
        masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 10))]
        assert rank(masks) == rank_oracle(masks)
        assert rank(masks) == len(_rref(masks, width)[1])
    assert rank([]) == 0
    assert rank([0, 0]) == 0
    assert rank([0b110, 0b011, 0b101]) == 2
    assert rank([0b001, 0b011, 0b111]) == 3


def test_rank_counts_the_pivots_of_rref_at_sampler_and_code_shapes():
    # rank keeps an xor basis and stops once it is as wide as the masks;
    # _rref's pivot count is the reference, on smith's inner-code draws
    # (k distinct nonzero columns of k - dim bits) and on wide parity rows.
    rng = random.Random(41)
    for _ in range(400):
        k = rng.randint(3, 14)
        width = rng.randint(1, k - 1)
        count = min(k, (1 << width) - 1)
        masks = rng.sample(range(1, 1 << width), count)
        assert rank(masks) == len(_rref(masks, width)[1])
        width = rng.randint(1, 40)
        masks = [rng.choice([0, rng.getrandbits(width)]) for _ in range(rng.randint(1, 20))]
        masks += rng.sample(masks, min(3, len(masks)))  # repeats are dependent
        assert rank(masks) == len(_rref(masks, width)[1])


def test_random_linear_code_draws_as_before():
    # The listdec and problist codes, and so their reports, depend on these
    # exact draws: n - k rows of getrandbits(n) per try until full rank.
    n, k = 6, 4  # two rows of 6 bits are often dependent
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        code = random_linear_code(n, k, rng)
        while True:
            masks = tuple(ref.getrandbits(n) for _ in range(n - k))
            if len(_rref(masks, n)[1]) == n - k:
                break
        assert code.h == masks
        assert rng.getstate() == ref.getstate()


def test_random_linear_code_shape():
    rng = random.Random(39)
    for _ in range(30):
        n = rng.randint(2, 16)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        assert (code.n, code.k) == (n, k)
        assert rank_oracle(code.h) == n - k
        assert len(_message_columns(code)) == k


def test_random_linear_code_refuses_a_wide_shape_before_any_draw(monkeypatch):
    # n (n - k) parity-check entries over the budget are refused from the
    # shape alone: no row is drawn and no LinearCode is built.  At listdec's
    # default k = 5, n = 2,050 is the widest code admitted.
    built = []
    monkeypatch.setattr(gf2codes, "LinearCode", lambda *args: built.append(args))

    class NoDraws(random.Random):
        def getrandbits(self, bits):
            raise AssertionError("drew before refusing")

    assert 2050 * (2050 - 5) <= gf2codes._RANDOM_CODE_BUDGET < 2051 * (2051 - 5)
    for n, k in [(2051, 5), (20000, 5), (4097, 3073)]:
        assert n * (n - k) > gf2codes._RANDOM_CODE_BUDGET
        with pytest.raises(CapabilityError, match="budget"):
            random_linear_code(n, k, NoDraws())
    assert built == []


def test_a_listdec_run_over_the_code_budget_builds_no_code(monkeypatch):
    # n = 20,000 at r = 1 is inside the walk budget, so only the code's
    # width refuses it, before any LinearCode is built.
    built = []
    monkeypatch.setattr(gf2codes, "LinearCode", lambda *args: built.append(args))
    config = ExperimentConfig(protocol="listdec", n=20000, alpha=Fraction(1, 20000), trials=1)
    with pytest.raises(CapabilityError, match="budget"):
        run_experiment(config)
    assert built == []


def test_encode_extract_roundtrip():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randint(2, 12)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        msg = Word(rng.getrandbits(k), k)
        c = encode(code, msg)
        assert syndrome(code, c).value == 0
        assert extract_message(code, c) == msg


def test_enumeration_budget_guards():
    rng = random.Random(41)
    wide = random_linear_code(30, 25, rng)
    with pytest.raises(CapabilityError):
        codewords(wide)
    # The list protocols' walk budget is checked where they start:
    # test_listdec_parties_check_the_list_decoding_limits and
    # test_one_round_parties_check_the_list_decoding_limits.


def _transpose(masks, width):
    """Int c < width has bit r equal to bit c of masks[r]: columns from rows,
    or back."""
    return [sum(((mask >> c) & 1) << r for r, mask in enumerate(masks)) for c in range(width)]


def _leaders_by_full_decoding(code):
    """Solve and decode every syndrome: the pivot-only solution t xor the
    codeword unique_decode finds nearest to it."""
    solver = AffineSolver(code.h, code.n)
    leaders = {}
    for d in range(1 << len(code.h)):
        t = solver.solve(d)
        leaders[d] = t ^ unique_decode(code, Word(t, code.n)).value
    return leaders


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


def test_coset_leaders_match_full_decoding_at_every_shape(monkeypatch, solves):
    # The table settles every syndrome by the weight walk, solving and
    # decoding nothing.
    def no_decode(code, y):
        raise AssertionError("the leader table decoded a word")

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
                fix = coset_leaders(columns, k - dim)
                assert solves == []
                assert fix == _leaders_by_full_decoding(LinearCode(k, _transpose(columns, k - dim)))
                solves.clear()
    assert shapes == 33


def test_coset_leaders_take_the_smaller_word_with_zero_or_repeated_columns(solves):
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
                coset_leaders(columns, rows)
            dependent += 1
            continue
        fix = coset_leaders(columns, rows)
        assert solves == []
        assert fix == _leaders_by_full_decoding(LinearCode(len(columns), _transpose(columns, rows)))
        solves.clear()
        checked += 1
    assert checked >= 200 and dependent >= 10


def test_unique_decoders_build_each_ball_table_once():
    # Hamming's parity-check column c is c + 1, so syndrome c + 1 lists the
    # single error in position c alone.  Syndrome decodes at radius 1
    # through the code's table, which also checks brute's radius, and brute
    # through the table of its message columns 3, 5, 6 and 7.  A second run
    # of each builds nothing.
    code = hamming_7_4()
    ball_table.cache_clear()
    bounds = {n: Bounds(Fraction(1, n), n) for n in (4, 7)}
    files = SyncInstance(Word(5, 4), Word(7, 4), bounds[4])
    words = SyncInstance(Word(9, 7), Word(8, 7), bounds[7])
    for _ in range(2):
        assert brute_sync(code, files).recovered.value == 5
        assert syndrome_sync(code, words).recovered.value == 9
        info = ball_table.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
    columns = parity_columns(code)
    assert ball_table(columns, 1) is ball_table(columns, 1)
    assert ball_table(columns, 1) == {0: (0,), **{c + 1: (1 << c,) for c in range(7)}}
    assert ball_table(_message_columns(code), 1) == {0: (0,), 3: (1,), 5: (2,), 6: (4,), 7: (8,)}
    for n in range(3, 9):
        code = random_linear_code(n, 2, random.Random(n))
        table = ball_table(parity_columns(code), len(code.h))  # every coset leader is in the ball
        assert {d: es[0] for d, es in table.items()} == _leaders_by_full_decoding(code)


def test_walk_is_the_cube_by_weight_cut_at_the_radius():
    for n in range(1, 13):
        cube = sorted(range(1, 1 << n), key=int.bit_count)
        for radius in range(n + 2):
            walk = _walk(n, radius)
            assert [w for w, _, _ in walk] == [w for w in cube if w.bit_count() <= radius]
            # each word's place of itself less its lowest set bit, and that bit
            words = [0] + [w for w, _, _ in walk]
            assert all(words[rest] == w & (w - 1) == w ^ 1 << low for w, rest, low in walk)


def test_ball_table_lists_each_syndrome_in_walk_order():
    rng = random.Random(81)
    for _ in range(40):
        n = rng.randint(2, 10)
        code = random_linear_code(n, rng.randint(1, n - 1), rng)
        radius = rng.randint(0, n)
        expected = {}
        for e in [0] + sorted(range(1, 1 << n), key=int.bit_count):
            if e.bit_count() <= radius:
                expected.setdefault(mat_vec(code.h, e), []).append(e)
        columns = parity_columns(code)
        assert columns == tuple(mat_vec(code.h, 1 << c) for c in range(n))
        assert ball_table(columns, radius) == {d: tuple(es) for d, es in expected.items()}
        if radius >= len(code.h):  # every coset leader is in the ball
            table = ball_table(columns, radius)
            assert {d: es[0] for d, es in table.items()} == coset_leaders(columns, len(code.h))


def test_ball_table_refuses_one_word_over_the_budget(monkeypatch):
    # V(17, 8) is the budget exactly; V(65536, 1) is the one ball one word
    # over it, and too wide to build here, so the budget is cut to V(12, 3).
    assert ball_volume(8, 17) == WALK_BUDGET == ball_volume(1, 1 << 16) - 1
    rng = random.Random(83)
    monkeypatch.setattr(gf2codes, "WALK_BUDGET", ball_volume(3, 12) - 1)
    with pytest.raises(CapabilityError, match="walk budget"):
        check_walk_budget(12, 3)  # from the shape alone, before any code exists
    with pytest.raises(CapabilityError, match="walk budget"):
        ball_table(parity_columns(random_linear_code(12, 4, rng)), 3)
    monkeypatch.setattr(gf2codes, "WALK_BUDGET", ball_volume(3, 12))
    table = ball_table(parity_columns(random_linear_code(12, 4, rng)), 3)
    assert sum(map(len, table.values())) == 299


def test_ball_table_memory_at_the_walk_budget():
    # n = 361 at radius 2 walks 65,342 words, the most of any radius-2 ball
    # inside the budget, and with 61 parity rows each has its own syndrome,
    # the most entries a table can have.  The walk it caches is counted too.
    assert ball_volume(2, 361) <= WALK_BUDGET < ball_volume(2, 362)
    columns = parity_columns(random_linear_code(361, 300, random.Random(82)))
    _walk.cache_clear()
    tracemalloc.start()
    try:
        table = ball_table(columns, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _walk.cache_clear()
        ball_table.cache_clear()
    assert len(table) == ball_volume(2, 361)
    assert held < 20 << 20 and peak < 32 << 20


def test_walk_and_table_caches_are_bounded():
    # At most 16 walks and 32 tables stay cached, each inside the budget:
    # room for the 18 tables of the benchmark's round-robin of protocols.
    assert (_walk.cache_info().maxsize, ball_table.cache_info().maxsize) == (16, 32)
