import random
from fractions import Fraction

import pytest

from hamsync.bitword import Bounds, Word, ball_volume, random_word_within
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import hamming_7_4, mat_vec, random_linear_code, syndrome
from hamsync.syncdet import (
    SyncInstance,
    brute_sync,
    build_greedy_coloring,
    coloring_oracle_sync,
    coset_representative,
    listdec_alice,
    listdec_bob,
    listdec_sync,
    syndrome_alice,
    syndrome_bob,
    syndrome_sync,
)
from hamsync.transport import run_protocol


def test_sync_instance_guards():
    b = Bounds(Fraction(1, 7), 7)
    SyncInstance(Word(0, 7), Word(1, 7), b)
    with pytest.raises(ContractError):
        SyncInstance(Word(0, 7), Word(3, 7), b)  # distance 2 > radius 1
    with pytest.raises(ContractError):
        SyncInstance(Word(0, 6), Word(0, 7), b)


def test_coset_representative_identity():
    # t = solve(H x + H y) differs from x + y by a codeword, for any code
    # and any pair of words, promise or not.
    rng = random.Random(60)
    for _ in range(50):
        n = rng.randint(3, 12)
        k = rng.randint(1, n - 1)
        code = random_linear_code(n, k, rng)
        x = Word(rng.getrandbits(n), n)
        y = Word(rng.getrandbits(n), n)
        t = coset_representative(code, syndrome(code, x).value, y)
        assert mat_vec(code.h, (t ^ x ^ y).value) == 0


def test_brute_exhaustive_hamming():
    code = hamming_7_4()
    bounds = Bounds(Fraction(1, 4), 4)
    for xv in range(16):
        x = Word(xv, 4)
        for mask in (0, 1, 2, 4, 8):
            out = brute_sync(code, SyncInstance(x, Word(xv ^ mask, 4), bounds))
            assert out.recovered == x
            assert out.transcript.total_bits == 3
            assert out.transcript.rounds == 1


def test_brute_rejects_uncovered_radius():
    code = hamming_7_4()
    inst = SyncInstance(Word(0, 4), Word(0, 4), Bounds(Fraction(1, 2), 4))
    with pytest.raises(ContractError):
        brute_sync(code, inst)  # radius 2 needs distance 5, Hamming has 3
    with pytest.raises(ContractError):
        brute_sync(code, SyncInstance(Word(0, 7), Word(0, 7), Bounds(Fraction(1, 7), 7)))


def test_syndrome_exhaustive_hamming():
    code = hamming_7_4()
    bounds = Bounds(Fraction(1, 7), 7)
    for xv in range(128):
        x = Word(xv, 7)
        for mask in (0, 1, 2, 4, 8, 16, 32, 64):
            out = syndrome_sync(code, SyncInstance(x, Word(xv ^ mask, 7), bounds))
            assert out.recovered == x
            assert out.transcript.total_bits == 3
            assert out.transcript.rounds == 1


def test_syndrome_output_always_consistent():
    # Even off the promise, anything Bob outputs satisfies H out = H x.
    rng = random.Random(61)
    code = hamming_7_4()
    for _ in range(100):
        x = Word(rng.getrandbits(7), 7)
        y = Word(rng.getrandbits(7), 7)
        out = run_protocol(syndrome_alice(code, x), syndrome_bob(code, y, 1))
        if not out.reported_failure:
            assert syndrome(code, out.recovered) == syndrome(code, x)
        assert out.diagnostics["syndrome_bits"] == 3


def test_syndrome_rejects_mismatched_code():
    code = hamming_7_4()
    inst = SyncInstance(Word(0, 8), Word(0, 8), Bounds(Fraction(1, 8), 8))
    with pytest.raises(ContractError):
        syndrome_sync(code, inst)


def test_listdec_recovers_and_lists_match_cube_oracle():
    rng = random.Random(62)
    for _ in range(20):
        n = rng.randint(6, 12)
        k = rng.randint(2, n - 2)
        code = random_linear_code(n, k, rng)
        radius = rng.randint(1, 3)
        y = Word(rng.getrandbits(n), n)
        x = random_word_within(y, radius, rng)
        inst = SyncInstance(x, y, Bounds(Fraction(radius, n), n))
        out = listdec_sync(code, radius, inst)
        assert out.recovered == x
        assert out.transcript.rounds == 3
        h = syndrome(code, x).value
        expected = sorted(
            u
            for u in range(1 << n)
            if mat_vec(code.h, u) == h and (u ^ y.value).bit_count() <= radius
        )
        assert list(out.diagnostics["candidates"]) == expected
        assert out.diagnostics["list_size"] == len(expected)


def test_listdec_empty_list_reports_failure():
    rng = random.Random(63)
    code = random_linear_code(8, 3, rng)
    y = Word(rng.getrandbits(8), 8)
    pos = next(i for i in range(8) if mat_vec(code.h, 1 << i) != 0)
    x = y.flip([pos])
    # radius 0 and a syndrome y cannot satisfy: the candidate list is empty
    out = run_protocol(listdec_alice(code, x), listdec_bob(code, 0, y))
    assert out.reported_failure
    assert out.diagnostics["list_size"] == 0
    assert out.transcript.rounds == 3  # the dummy exchange keeps the shape


def test_listdec_radius_must_cover_promise():
    rng = random.Random(64)
    code = random_linear_code(10, 4, rng)
    inst = SyncInstance(Word(0, 10), Word(0, 10), Bounds(Fraction(2, 10), 10))
    with pytest.raises(ContractError):
        listdec_sync(code, 1, inst)


def test_coloring_is_proper():
    for n, d in [(6, 2), (8, 3), (10, 2)]:
        colors = build_greedy_coloring(n, d)
        masks = [m for m in range(1, 1 << n) if m.bit_count() <= d]
        for w in range(1 << n):
            for m in masks:
                assert colors[w] != colors[w ^ m]
        assert max(colors) + 1 <= ball_volume(d, n)


def test_coloring_exhaustive_small():
    bounds = Bounds(Fraction(1, 6), 6)
    for xv in range(64):
        x = Word(xv, 6)
        for mask in (0, 1, 2, 4, 8, 16, 32):
            out = coloring_oracle_sync(SyncInstance(x, Word(xv ^ mask, 6), bounds))
            assert out.recovered == x
            assert out.transcript.rounds == 1
            assert out.diagnostics["n_colors"] <= ball_volume(2, 6)


def test_coloring_zero_radius_sends_nothing():
    out = coloring_oracle_sync(
        SyncInstance(Word(9, 6), Word(9, 6), Bounds(Fraction(0), 6))
    )
    assert out.recovered == Word(9, 6)
    assert out.transcript.total_bits == 0
    assert out.transcript.rounds == 0


def test_coloring_oracle_radius_guard():
    b = Bounds(Fraction(1, 6), 6)
    inst = SyncInstance(Word(0, 6), Word(1, 6), b)
    with pytest.raises(ContractError):
        coloring_oracle_sync(inst, radius=0)  # distance 1 exceeds radius 0


def test_coloring_budget_guards():
    with pytest.raises(CapabilityError):
        build_greedy_coloring(15, 1)
    with pytest.raises(CapabilityError):
        build_greedy_coloring(14, 8)
    # the oracle raises the same error before either party starts
    inst = SyncInstance(Word(0, 15), Word(0, 15), Bounds(Fraction(1, 15), 15))
    with pytest.raises(CapabilityError):
        coloring_oracle_sync(inst)
