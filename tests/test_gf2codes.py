import dataclasses
import itertools
import random

import pytest

from hamsync.bitword import Word
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import (
    AffineSolver,
    LinearCode,
    _rref,
    codewords,
    encode,
    extract_message,
    hamming_7_4,
    list_decode_exhaustive,
    mat_vec,
    min_distance,
    random_linear_code,
    rank,
    syndrome,
    unique_decode,
)


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
    # LinearCode counts pivots: it accepts exactly the full-rank rows.
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


def _assert_same_code(masks, n, enumerate_codewords):
    try:
        old = _old_code_from_parity(masks, n)
    except ContractError:
        with pytest.raises(ContractError):
            LinearCode(n, masks)
        return False
    code = LinearCode(n, masks)
    assert (code.k, code.g_rows, code.message_positions) == old
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
    assert code.message_positions == (2, 4, 5, 6)
    assert code.check_positions == (0, 1, 3)
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
        assert len(code.g_rows) == k
        for g in code.g_rows:
            assert mat_vec(code.h, g) == 0


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
    # list_decode_exhaustive's cap on n is checked where the list protocols
    # start: test_listdec_parties_check_the_list_decoding_limits and
    # test_one_round_parties_check_the_list_decoding_limits.
