import itertools
import random
import tracemalloc
from collections import Counter
from functools import reduce
from operator import ne, xor

import pytest

from hamsync import gf2k_rs
from hamsync.errors import ContractError
from hamsync.gf2k_rs import (
    _LANE_BITS,
    IRREDUCIBLE,
    Field,
    _barycentric_weights,
    _berlekamp_massey,
    _encoder_columns,
    _lane_map,
    _locate,
    _pack_lanes,
    _repunit,
    _root_columns,
    _slot_map,
    _slot_masks,
    _syndrome_columns,
    _table_map,
    _unpack_lanes,
    field,
    rs_correct,
    rs_extra_evals,
)


# The RS layer takes and returns values packed in 16-bit lanes; these give
# the same calls on lists.


def extra_evals(fld: Field, blocks: list[int], s: int) -> list[int]:
    return _unpack_lanes(rs_extra_evals(fld, _pack_lanes(blocks), len(blocks), s), s)


def correct(fld: Field, received: list[int], extra: list[int]):
    fixed = rs_correct(fld, _pack_lanes([*received, *extra]), len(received), len(extra))
    return None if fixed is None else _unpack_lanes(fixed, len(received))


def lane_map(fld: Field, values: list[int], columns, lanes: int) -> list[int]:
    """The bit-sliced kernel on plain columns."""
    return _unpack_lanes(_lane_map(fld, _pack_lanes(values), columns, lanes), lanes)


def slot_map(fld: Field, values: list[int], columns, lanes: int) -> list[int]:
    """The slot-mask kernel on plain columns, at any shape: the masks are
    built uncached, so a shape whose masks exceed the cap leaves nothing
    behind."""
    wide = [c * _repunit(fld.k, lanes * _LANE_BITS) for c in columns]
    masks = _slot_masks.__wrapped__(fld.k, lanes)
    return _unpack_lanes(_slot_map(fld, _pack_lanes(values), wide, masks, lanes), lanes)


def table_map(fld: Field, values: list[int], table, lanes: int) -> list[int]:
    """The product with a cached table, by the kernel its shape selects."""
    return _unpack_lanes(_table_map(fld, _pack_lanes(values), table, lanes), lanes)


def plain_columns(table, lanes: int) -> list[int]:
    """A cached table's columns as _lane_map takes them: a widened column
    keeps its plain value in the lowest slot."""
    columns, masks = table
    low_slot = (1 << lanes * _LANE_BITS) - 1
    return list(columns) if masks is None else [c & low_slot for c in columns]


def kernels_used(monkeypatch) -> dict[str, int]:
    """Counts of the cached-table products by the kernel they ran."""
    used = {"slot": 0, "bit-sliced": 0}
    inner = gf2k_rs._table_map

    def counted(fld, values, table, lanes):
        used["bit-sliced" if table[1] is None else "slot"] += 1
        return inner(fld, values, table, lanes)

    monkeypatch.setattr(gf2k_rs, "_table_map", counted)
    return used

# Reference polynomial arithmetic for checking the evaluation layer: coefficient
# lists, low degree first, and Lagrange interpolation through scalar products.


def mul(fld: Field, a: int, b: int) -> int:
    """The product a*b, through the log and exp tables."""
    if a == 0 or b == 0:
        return 0
    return fld.exp[fld.log[a] + fld.log[b]]


def inv(fld: Field, a: int) -> int:
    """The inverse of a nonzero a, through the log table."""
    return fld.exp[-fld.log[a] % (fld.size - 1)]


def poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(fld: Field, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = mul(fld, acc, x) ^ c
    return acc


def interpolate(fld: Field, points) -> list[int]:
    """Unique polynomial of degree < len(points) through the given points."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x")
    out = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [1], 1
        for xj in xs[:i] + xs[i + 1 :]:
            # basis * (x - xj), and the basis polynomial's value at xi
            basis = [hi ^ mul(fld, lo, xj) for hi, lo in zip([0] + basis, basis + [0])]
            denom = mul(fld, denom, xi ^ xj)
        scale = mul(fld, yi, inv(fld, denom))
        out = [o ^ mul(fld, scale, b) for o, b in zip(out, basis)]
    return poly_trim(out)


def slow_mul(a: int, b: int, modulus: int, k: int) -> int:
    # Shift-and-xor carryless multiply with reduction, independent of the
    # table-based path under test.
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= modulus
    return acc


def test_tables_match_slow_multiplication():
    for k in (2, 3, 4, 8):
        fld = field(k)
        rng = random.Random(50 + k)
        for _ in range(300):
            a = rng.randrange(fld.size)
            b = rng.randrange(fld.size)
            assert mul(fld, a, b) == slow_mul(a, b, fld.modulus, k)


def test_field_axioms_sampled():
    for k in (3, 4, 8):
        fld = field(k)
        rng = random.Random(51)
        for _ in range(200):
            a, b, c = (rng.randrange(fld.size) for _ in range(3))
            assert mul(fld, a, b) == mul(fld, b, a)
            assert mul(fld, a, mul(fld, b, c)) == mul(fld, mul(fld, a, b), c)
            assert mul(fld, a, b ^ c) == mul(fld, a, b) ^ mul(fld, a, c)
            assert mul(fld, a, 1) == a
            if a:
                assert mul(fld, a, inv(fld, a)) == 1


def test_generator_spans_all_nonzero():
    for k in (2, 3, 4, 6):
        fld = field(k)
        g = fld.exp[1]
        seen = set()
        x = 1
        for _ in range(fld.size - 1):
            seen.add(x)
            x = mul(fld, x, g)
        assert x == 1
        assert len(seen) == fld.size - 1


def test_all_moduli_build():
    for k in IRREDUCIBLE:
        fld = field(k)
        assert fld.size == 1 << k
        top = fld.size - 1
        assert mul(fld, top, inv(fld, top)) == 1


def test_missing_and_reducible_moduli_rejected(monkeypatch):
    with pytest.raises(ContractError):
        field(99)
    monkeypatch.setitem(IRREDUCIBLE, 6, 0b1000001)  # x^6 + 1 = (x^3 + 1)^2
    with pytest.raises(ContractError):
        Field(6)


def test_poly_eval_matches_power_sum():
    fld = field(5)
    rng = random.Random(53)
    for _ in range(100):
        coeffs = [rng.randrange(32) for _ in range(rng.randint(0, 6))]
        x = rng.randrange(32)
        acc, power = 0, 1
        for c in coeffs:
            acc ^= mul(fld, c, power)
            power = mul(fld, power, x)
        assert poly_eval(fld, coeffs, x) == acc


def test_interpolate_matches_points():
    fld = field(4)
    rng = random.Random(54)
    for _ in range(100):
        npts = rng.randint(1, 16)
        xs = rng.sample(range(16), npts)
        pts = [(x, rng.randrange(16)) for x in xs]
        poly = interpolate(fld, pts)
        assert len(poly) <= npts
        for x, y in pts:
            assert poly_eval(fld, poly, x) == y
    with pytest.raises(ValueError):
        interpolate(fld, [(1, 2), (1, 3)])


def test_interpolation_subsets_agree():
    # any 4 of 8 evaluations of a degree < 4 polynomial recover it exactly
    fld = field(4)
    poly = [3, 7, 0, 9]
    values = [poly_eval(fld, poly, a) for a in range(8)]
    for subset in itertools.combinations(range(8), 4):
        pts = [(a, values[a]) for a in subset]
        assert poly_trim(interpolate(fld, pts)) == poly


def test_extra_evals_of_constant_blocks():
    fld = field(4)
    assert extra_evals(fld, [9, 9, 9, 9], 4) == [9, 9, 9, 9]
    assert extra_evals(fld, [5], 3) == [5, 5, 5]
    assert extra_evals(fld, [1, 2, 3], 0) == []
    assert extra_evals(fld, [1] * 10, 5) == [1] * 5  # 15 points and a spare
    # 16 or more points leave no spare element; composite_parties refuses
    # them (test_composite_parameter_guards).


def test_extra_evals_match_lagrange():
    for k, max_m in [(3, 6), (4, 12), (8, 40), (11, 40)]:
        fld = field(k)
        rng = random.Random(60 + k)
        for _ in range(20):
            m = rng.randint(1, max_m)
            s = rng.randint(0, min(20, fld.size - 1 - m))
            blocks = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(m)]
            poly = interpolate(fld, list(enumerate(blocks)))
            expected = [poly_eval(fld, poly, a) for a in range(m, m + s)]
            assert extra_evals(fld, blocks, s) == expected


def _codewords(fld: Field, m: int, n_points: int) -> list[tuple[int, ...]]:
    """Every evaluation vector (f(0), ..., f(N-1)) with deg f < m."""
    return [
        tuple(poly_eval(fld, coeffs, a) for a in range(n_points))
        for coeffs in itertools.product(range(fld.size), repeat=m)
    ]


def test_rs_correct_matches_brute_force_decoding(monkeypatch):
    # The unique codeword within floor(s/2) of the m+s values, found by
    # scanning every codeword, or None when no codeword is that close.
    # GF(8) and GF(16) take the slot-mask kernel at every size; GF(256) at
    # s = 17 and 20 has too many lanes for it and takes the bit-sliced one.
    used = kernels_used(monkeypatch)
    returned = failed = 0
    for k, m_values, s_values in [
        (3, (1, 2, 3), range(1, 7)),
        (4, (1, 2, 3), (1, 2, 3, 5, 8, 12)),
        (8, (1,), (17, 20)),
    ]:
        fld = field(k)
        rng = random.Random(61 + k)
        for m in m_values:
            for s in s_values:
                n_points = m + s
                if n_points >= fld.size:
                    continue
                codewords = _codewords(fld, m, n_points)
                radius = s // 2
                for kind in ("random", "near", "beyond") * 12:
                    if kind == "random":
                        word = [rng.randrange(fld.size) for _ in range(n_points)]
                    else:
                        word = list(rng.choice(codewords))
                        if kind == "near":
                            errors = rng.randint(0, radius)
                        else:
                            errors = min(n_points, rng.randint(radius + 1, radius + 3))
                        for pos in rng.sample(range(n_points), errors):
                            word[pos] ^= rng.randrange(1, fld.size)
                    close = [c for c in codewords if sum(map(ne, c, word)) <= radius]
                    assert len(close) <= 1  # minimum distance s + 1
                    expected = list(close[0][:m]) if close else None
                    assert correct(fld, word[:m], word[m:]) == expected
                    if kind == "beyond":
                        returned += expected is not None
                        failed += expected is None
    assert returned > 0 and failed > 0
    assert used["slot"] > 0 and used["bit-sliced"] > 0


def test_rs_correct_clean():
    fld = field(8)
    rng = random.Random(55)
    for _ in range(50):
        m = rng.randint(1, 20)
        s = rng.randint(0, 20)
        blocks = [rng.randrange(256) for _ in range(m)]
        extra = extra_evals(fld, blocks, s)
        assert correct(fld, blocks, extra) == blocks


def test_rs_single_error_exhaustive():
    # m=4, s=4 over GF(16): every position (data and redundancy alike), every
    # wrong value, always corrected since floor(s/2) = 2.
    fld = field(4)
    rng = random.Random(56)
    blocks = [rng.randrange(16) for _ in range(4)]
    extra = extra_evals(fld, blocks, 4)
    full = blocks + extra
    for pos in range(8):
        for wrong in range(16):
            if wrong == full[pos]:
                continue
            corrupted = list(full)
            corrupted[pos] = wrong
            assert correct(fld, corrupted[:4], corrupted[4:]) == blocks


def test_rs_two_errors_in_capacity():
    fld = field(4)
    rng = random.Random(57)
    blocks = [rng.randrange(16) for _ in range(4)]
    extra = extra_evals(fld, blocks, 4)
    full = blocks + extra
    for p1, p2 in itertools.combinations(range(8), 2):
        corrupted = list(full)
        corrupted[p1] ^= 5
        corrupted[p2] ^= 9
        assert correct(fld, corrupted[:4], corrupted[4:]) == blocks


def test_rs_gf256_random_errors_in_capacity():
    fld = field(8)
    rng = random.Random(58)
    for _ in range(100):
        m = rng.randint(4, 32)
        s = rng.randint(2, 16)
        blocks = [rng.randrange(256) for _ in range(m)]
        full = blocks + extra_evals(fld, blocks, s)
        for pos in rng.sample(range(m + s), rng.randint(0, s // 2)):
            full[pos] ^= rng.randrange(1, 256)
        assert correct(fld, full[:m], full[m:]) == blocks


def test_rs_output_always_agrees_with_majority():
    # Whatever garbage comes in, a non-None answer interpolates to a
    # polynomial matching at least (m + s + m) / 2 of the given values.
    fld = field(4)
    rng = random.Random(59)
    returned = failed = 0
    for _ in range(300):
        m = rng.randint(1, 6)
        s = rng.randint(0, 10 - m)
        values = [rng.randrange(16) for _ in range(m + s)]
        got = correct(fld, values[:m], values[m:])
        if got is None:
            failed += 1
            continue
        returned += 1
        poly = interpolate(fld, list(enumerate(got)))
        agree = sum(1 for a, v in enumerate(values) if poly_eval(fld, poly, a) == v)
        assert 2 * agree >= 2 * m + s
    assert returned > 0 and failed > 0


# Test-local copies of the per-element loops that the packed-lane kernels
# replaced: direct products for the weights and M(a), the barycentric sum per
# extra point, the term-by-term syndrome loop and the Horner root scan.


def old_weights(fld: Field, npoints: int) -> list[int]:
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    return [
        exp[-sum(log[i ^ j] for j in range(npoints) if j != i) % order] for i in range(npoints)
    ]


def old_extra_evals(fld: Field, blocks, s: int) -> list[int]:
    m = len(blocks)
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    log_master = [sum(log[a ^ i] for i in range(m)) % order for a in range(m, m + s)]
    lifted = [
        (i, (log[w] + log[b]) % order + order)
        for i, (w, b) in enumerate(zip(old_weights(fld, m), blocks))
        if b
    ]
    out = []
    for a, lm in zip(range(m, m + s), log_master):
        acc = reduce(xor, [exp[lt - log[a ^ i]] for i, lt in lifted], 0)
        out.append(exp[lm + log[acc]] if acc else 0)
    return out


def old_syndromes(fld: Field, values, s: int) -> list[int]:
    n_points = len(values)
    exp, log = fld.exp, fld.log
    log_loc = [log[i ^ n_points] for i in range(n_points)]
    terms = [exp[log[w] + log[r]] for w, r in zip(old_weights(fld, n_points), values) if r]
    term_locs = [lx for lx, r in zip(log_loc, values) if r]
    syndromes = []
    for _ in range(s):
        syndromes.append(reduce(xor, terms, 0))
        terms = [exp[log[t] + lx] for t, lx in zip(terms, term_locs)]
    return syndromes


def old_root_scan(fld: Field, lam, n_points: int) -> list[int]:
    """lam evaluated at 1/X_i for every point i, X_i = i + n_points."""
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    out = []
    for i in range(n_points):
        log_x = order - log[i ^ n_points]
        acc = 0
        for c in reversed(lam):
            if acc:
                acc = exp[log[acc] + log_x]
            acc ^= c
        out.append(acc)
    return out


def _kernel_sizes():
    """(k, m, s): s = 2, full fields (m + s = 2^k - 1) up to k = 8, random
    sizes, and the composite protocol's default size."""
    rng = random.Random(90)
    for k in (3, 4, 5, 8, 11):
        size = 1 << k
        yield k, 1, 2
        if k <= 8:
            yield k, size - 3, 2
            yield k, 1, size - 2
            yield k, size // 2, size - 1 - size // 2
        for _ in range(3):
            m = rng.randint(1, min(size - 3, 300))
            yield k, m, rng.randint(2, min(size - 1 - m, 80))
    yield 11, 187, 64


@pytest.mark.parametrize("k, m, s", list(_kernel_sizes()))
def test_lane_kernels_match_the_loops_they_replace(k, m, s):
    # Both kernels on every table, and the product by whichever kernel the
    # table's shape selects.
    fld = field(k)
    rng = random.Random(k * 1000 + m * 10 + s)
    n_points = m + s
    tables = [
        (_encoder_columns(k, m, s), s),
        (_syndrome_columns(k, n_points, s), s),
        (_root_columns(k, n_points, s), n_points),
    ]
    for _ in range(3):
        blocks = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(m)]
        values = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(n_points)]
        lam = [1] + [rng.randrange(fld.size) for _ in range(rng.randint(0, s // 2))]
        expected = [
            old_extra_evals(fld, blocks, s),
            old_syndromes(fld, values, s),
            old_root_scan(fld, lam, n_points),
        ]
        assert extra_evals(fld, blocks, s) == expected[0]
        for (table, lanes), vector, want in zip(tables, (blocks, values, lam), expected):
            columns = plain_columns(table, lanes)
            assert lane_map(fld, vector, columns, lanes) == want
            assert slot_map(fld, vector, columns, lanes) == want
            assert table_map(fld, vector, table, lanes) == want


@pytest.mark.parametrize(
    "k, m, s, kernel",
    [(9, 58, 2, "slot"), (11, 187, 64, "bit-sliced")],  # smith-stress's and smith-2048's shapes
)
def test_each_shape_selects_the_kernel_its_masks_allow(monkeypatch, k, m, s, kernel):
    # One encode and one correction with s/2 wrong blocks: the encoder, the
    # syndromes and, at s = 64, the root scan.
    used = kernels_used(monkeypatch)
    fld = field(k)
    rng = random.Random(k)
    blocks = [rng.randrange(fld.size) for _ in range(m)]
    full = blocks + extra_evals(fld, blocks, s)
    for pos in rng.sample(range(m), s // 2):
        full[pos] ^= rng.randrange(1, fld.size)
    assert correct(fld, full[:m], full[m:]) == blocks
    other = "bit-sliced" if kernel == "slot" else "slot"
    assert used[kernel] == (2 if s == 2 else 3) and used[other] == 0


def test_degree_one_locators_find_their_root_without_a_scan(monkeypatch):
    # The syndromes (1, lambda_1) give the locator 1 + lambda_1 x, which has
    # its root at the point lambda_1 ^ N when that is below N, and no root
    # among the points otherwise, where its one root is too few.
    used = kernels_used(monkeypatch)
    for k, n_points in [(3, 5), (4, 9), (9, 60), (11, 251)]:
        fld = field(k)
        inside = outside = 0
        for lam1 in range(fld.size):
            scan = [i for i, v in enumerate(old_root_scan(fld, [1, lam1], n_points)) if not v]
            located = _locate(fld, [1, lam1], _pack_lanes([1, lam1]), n_points)
            assert located == (([1, lam1], scan) if scan else None)
            inside += bool(scan)
            outside += not scan
        assert inside == n_points and outside == fld.size - n_points
    assert used == {"slot": 0, "bit-sliced": 0}


@pytest.mark.parametrize("k, m, s", [(4, 3, 4), (4, 5, 6), (5, 20, 8), (8, 40, 6)])
def test_locate_refuses_a_long_locator_and_a_wrong_root_count(k, m, s):
    # _locate keeps Berlekamp-Massey's (Lambda, L) exactly when 2L <= s and
    # Lambda has L roots among the points, and then returns those roots.
    # The syndromes are those of random words and of codewords with 1 to
    # floor(s/2) + 2 wrong values, and 0, ..., 0, 1, whose L is s.
    fld = field(k)
    n_points = m + s
    rng = random.Random(k * 100 + s)
    sequences = [[0] * (s - 1) + [1]]
    for errors in [None, *range(1, s // 2 + 3)] * 30:
        if errors is None:
            values = [rng.randrange(fld.size) for _ in range(n_points)]
        else:
            values = [rng.randrange(fld.size) for _ in range(m)]
            values += extra_evals(fld, values, s)
            for pos in rng.sample(range(n_points), errors):
                values[pos] ^= rng.randrange(1, fld.size)
        sequences.append(table_map(fld, values, _syndrome_columns(k, n_points, s), s))
    seen = Counter()
    for seq in filter(any, sequences):
        (lam, length), _ = old_berlekamp_massey(fld, seq)
        located = _locate(fld, seq, _pack_lanes(seq), n_points)
        roots = [i for i, v in enumerate(old_root_scan(fld, lam, n_points)) if not v]
        if 2 * length > s:
            seen["too long"] += 1
            assert located is None
        elif len(roots) != length:
            seen["wrong root count"] += 1
            assert located is None
        else:
            seen["kept"] += 1
            assert located == (lam, roots)
    assert seen.keys() == {"too long", "wrong root count", "kept"}


def test_a_degree_one_locator_outside_the_points_is_a_decode_failure():
    # At s = 2 every nonzero syndrome pair gives a degree-1 locator; where
    # its root lies past the points, no codeword is within one value.
    fld = field(4)
    m, s = 3, 2
    rng = random.Random(62)
    codewords = _codewords(fld, m, m + s)
    failures = 0
    for _ in range(200):
        word = [rng.randrange(fld.size) for _ in range(m + s)]
        syndromes = lane_map(fld, word, plain_columns(_syndrome_columns(4, m + s, s), s), s)
        lam, length = _berlekamp_massey(fld, syndromes, _pack_lanes(syndromes))
        if length != 1 or lam[1] ^ (m + s) < m + s:
            continue
        failures += 1
        assert _locate(fld, syndromes, _pack_lanes(syndromes), m + s) is None
        assert correct(fld, word[:m], word[m:]) is None
        assert all(sum(map(ne, c, word)) > 1 for c in codewords)
    assert failures > 0


@pytest.mark.parametrize("k, m, s", [(9, 58, 2), (11, 187, 64)])
def test_rs_layer_holds_little_after_one_encode_and_one_correct(k, m, s):
    # What the RS layer caches for one size, its field tables aside: the
    # slot-mask kernel must not buy speed with a table that would move
    # smith's peak memory (2.75 MiB of masks at n = 2048's k = 11, s = 64).
    fld = field(k)
    caches = (_barycentric_weights, _encoder_columns, _syndrome_columns, _root_columns, _slot_masks)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(k)
    blocks = [rng.randrange(fld.size) for _ in range(m)]
    errors = [0] * (m + s)
    for pos in rng.sample(range(m), max(1, s // 2)):
        errors[pos] = rng.randrange(1, fld.size)
    packed, error_lanes = _pack_lanes(blocks), _pack_lanes(errors)
    tracemalloc.start()
    try:
        extra = rs_extra_evals(fld, packed, m, s)
        fixed = rs_correct(fld, (packed | extra << (m * _LANE_BITS)) ^ error_lanes, m, s)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fixed == packed
    assert held <= 256 * 1024


def test_barycentric_weights_match_direct_products():
    for k in range(3, 13):
        fld = field(k)
        sizes = {1, 2, 3, (1 << k) - 1} if k <= 9 else {1, 187, 251, 300}
        for npoints in sorted(sizes):
            assert list(_barycentric_weights(k, npoints)) == old_weights(fld, npoints)


def old_berlekamp_massey(fld: Field, syndromes):
    """The per-step loop _berlekamp_massey batches the settled tail of:
    (lambda, L), and each step's discrepancy and L before the step."""
    order = fld.size - 1
    exp, log = fld.exp, fld.log
    lam, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    steps = []
    for n, s_n in enumerate(syndromes):
        disc = s_n
        for lam_i, s_i in zip(lam[1:], reversed(syndromes[n - length : n])):
            if lam_i and s_i:
                disc ^= exp[log[lam_i] + log[s_i]]
        steps.append((disc, length))
        if disc == 0:
            shift += 1
            continue
        log_coef = (log[disc] - log[prev_disc]) % order
        new = lam + [0] * (len(prev) + shift - len(lam))
        for i, p in enumerate(prev):
            if p:
                new[i + shift] ^= exp[log_coef + log[p]]
        if 2 * length <= n:
            prev, length, prev_disc, shift = lam, n + 1 - length, disc, 1
        else:
            shift += 1
        lam = new
    return (lam[: length + 1], length), steps


def _resumes(steps) -> bool:
    """Whether a step n with 2L <= n and discrepancy 0, where the batch
    starts, is followed by a nonzero discrepancy, where the loop resumes."""
    settled = [n for n, (disc, length) in enumerate(steps) if not disc and 2 * length <= n]
    return bool(settled) and any(disc for disc, _ in steps[settled[0] + 1 :])


def _bm_sequences(k: int, s: int, rng: random.Random):
    """Syndrome sequences of length s over GF(2^k): all zero; random, dense
    and sparse; the syndromes of a codeword with errors within, at and
    beyond floor(s/2), where m + s < 2^k leaves room for one; and an LFSR's
    output with a later term changed, where the batch sees the change."""
    size = 1 << k
    yield [0] * s
    yield [rng.randrange(size) for _ in range(s)]
    yield [rng.choice([0, 0, 0, rng.randrange(size)]) for _ in range(s)]
    room = size - 1 - s
    if room >= 1:
        fld = field(k)
        for _ in range(2):
            m = rng.randint(1, min(room, 200))
            for errors in (1, s // 2, s // 2 + 1, min(m + s, s // 2 + 5)):
                values = [rng.randrange(size) for _ in range(m)]
                values += extra_evals(fld, values, s)
                for pos in rng.sample(range(m + s), min(errors, m + s)):
                    values[pos] ^= rng.randrange(1, size)
                yield table_map(fld, values, _syndrome_columns(k, m + s, s), s)
    for length in range(s // 2):
        taps = [rng.randrange(size) for _ in range(length)]
        seq = [rng.randrange(1, size) for _ in range(length)]
        while len(seq) < s:
            seq.append(reduce(xor, (mul(field(k), t, seq[-1 - i]) for i, t in enumerate(taps)), 0))
        seq[rng.randrange(min(s - 1, 2 * length + 1), s)] ^= rng.randrange(1, size)
        yield seq


@pytest.mark.parametrize("k", [4, 5, 8, 11])
@pytest.mark.parametrize("s", [2, 4, 64])
def test_berlekamp_massey_matches_the_per_step_loop(k, s):
    fld = field(k)
    rng = random.Random(k * 100 + s)
    resumed = 0
    for _ in range(4):
        for seq in _bm_sequences(k, s, rng):
            expected, steps = old_berlekamp_massey(fld, seq)
            assert _berlekamp_massey(fld, seq, _pack_lanes(seq)) == expected
            resumed += _resumes(steps)
    assert resumed > 0
