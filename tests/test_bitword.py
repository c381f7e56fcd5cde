import math
import random
from fractions import Fraction

import pytest

from hamsync.bitword import (
    Bounds,
    Word,
    ball_volume,
    binary_entropy,
    hamming_distance,
    log2_big,
    lower_bound_bits,
    pack_fields,
    random_word_within,
    unpack_fields,
)
from hamsync.errors import ContractError


def distance_oracle(a: Word, b: Word) -> int:
    # Bit-by-bit count, independent of the popcount path under test.
    return sum(1 for i in range(a.n) if (a.value >> i) & 1 != (b.value >> i) & 1)


def volume_oracle(r: int, n: int) -> int:
    # Pascal recurrence for sum_{i<=r} C(n, i).
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return sum(row[: r + 1])


def test_word_bit_order():
    # Position i is bit i of the value, low bit first.
    assert Word(0, 4).flip([0, 1, 3]) == Word(0b1011, 4)
    assert Word(0, 8).flip([7]).value == 128


def test_word_bounds_checked():
    with pytest.raises(ContractError):
        Word(16, 4)
    with pytest.raises(ContractError):
        Word(-1, 4)
    with pytest.raises(ContractError):
        Word(0, 0)


def test_word_flip():
    w = Word(0b0001, 4)
    assert w.flip([0, 3]) == Word(0b1000, 4)
    with pytest.raises(ContractError):
        w.flip([4])


def test_hamming_distance_matches_oracle():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 64)
        a = Word(rng.getrandbits(n), n)
        b = Word(rng.getrandbits(n), n)
        assert hamming_distance(a, b) == distance_oracle(a, b)


def test_ball_volume_matches_oracle():
    for n in range(1, 16):
        for r in range(n + 1):
            assert ball_volume(r, n) == volume_oracle(r, n)
    assert ball_volume(0, 10) == 1
    assert ball_volume(2, 10) == 56
    assert ball_volume(10, 10) == 1024


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-15
    assert abs(binary_entropy(0.1) - binary_entropy(0.9)) < 1e-12


def test_log2_big_small_and_huge():
    assert log2_big(1) == 0.0
    assert log2_big(1024) == 10.0
    assert log2_big(1 << 1000) == 1000.0
    # relative agreement with exact value for a dense huge integer
    x = (1 << 900) + (1 << 899) + 12345
    assert abs(log2_big(x) - 900.584962500721156) < 1e-9
    with pytest.raises(ContractError):
        log2_big(0)


def test_lower_bound_is_log_volume():
    for n, alpha in [(7, Fraction(1, 7)), (14, Fraction(3, 14)), (100, Fraction(1, 10))]:
        r = Bounds(alpha, n).radius
        assert abs(lower_bound_bits(alpha, n) - log2_big(ball_volume(r, n))) < 1e-12


def test_bounds_radius_floors():
    assert Bounds(Fraction(1, 7), 7).radius == 1
    assert Bounds(Fraction(3, 14), 14).radius == 3
    assert Bounds(Fraction(1, 10), 9).radius == 0
    assert Bounds(Fraction(1, 2), 9).radius == 4
    assert Bounds(Fraction(0), 9).radius == 0


def test_bounds_float_alpha_is_decimal():
    assert Bounds(0.15, 20).alpha == Fraction(3, 20)
    assert Bounds(0.1, 10).alpha == Fraction(1, 10)
    with pytest.raises(ContractError):
        Bounds(0.6, 10)
    with pytest.raises(ContractError):
        Bounds(-0.1, 10)
    # The bound follows the same rule: radius 3, not the radius 2 of the
    # binary double just below 0.15.
    assert lower_bound_bits(0.15, 20) == lower_bound_bits(Fraction(3, 20), 20)


MALFORMED_RATES = [
    ("abc", ValueError),
    (float("nan"), ValueError),
    (float("inf"), ValueError),
    ("1/0", ZeroDivisionError),
    (None, TypeError),
]


@pytest.mark.parametrize("alpha, cause", MALFORMED_RATES)
def test_bounds_rejects_a_malformed_alpha(alpha, cause):
    with pytest.raises(ContractError) as info:
        Bounds(alpha, 10)
    assert isinstance(info.value.__cause__, cause)


def test_random_word_within_respects_radius():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 40)
        r = rng.randint(0, n)
        y = Word(rng.getrandbits(n), n)
        x = random_word_within(y, r, rng)
        assert x.n == n
        assert hamming_distance(x, y) <= r


def test_random_word_within_hits_all_distances():
    rng = random.Random(15)
    y = Word(0, 8)
    seen = {hamming_distance(random_word_within(y, 3, rng), y) for _ in range(400)}
    assert seen == {0, 1, 2, 3}


def test_pack_unpack_roundtrip():
    rng = random.Random(16)
    for _ in range(200):
        widths = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        values = [rng.getrandbits(w) for w in widths]
        packed = pack_fields(list(zip(values, widths)))
        assert packed.n == sum(widths)
        assert unpack_fields(packed, widths) == values


def test_pack_low_bits_first():
    w = pack_fields([(0b1, 2), (0b11, 2)])
    assert w == Word(0b1101, 4)


def test_unpack_width_mismatch():
    with pytest.raises(ContractError):
        unpack_fields(Word(0, 4), [3])
    with pytest.raises(ContractError):
        pack_fields([(4, 2)])
