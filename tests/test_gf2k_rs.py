import itertools
import random
import tracemalloc
from collections import Counter, defaultdict
from functools import lru_cache, reduce
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


def power_sums(fld: Field, blocks: list[int], s: int) -> list[int]:
    """Alice's s sums H (b || 0) of the blocks."""
    return _unpack_lanes(rs_extra_evals(fld, _pack_lanes(blocks), len(blocks), s), s)


def correct(fld: Field, estimates: list[int], sums: list[int]):
    """Bob's correction of his estimates with Alice's sums, or None."""
    fixed = rs_correct(fld, _pack_lanes(estimates), _pack_lanes(sums), len(estimates), len(sums))
    return None if fixed is None else _unpack_lanes(fixed, len(estimates))


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


def _block_vectors_by_sums(fld: Field, m: int, s: int) -> dict[tuple, list[tuple]]:
    """Every vector of m blocks, keyed by its sums H (b || 0), each summed
    term by term."""
    by_sums = defaultdict(list)
    for blocks in itertools.product(range(fld.size), repeat=m):
        by_sums[tuple(old_syndromes(fld, [*blocks, *[0] * s], s))].append(blocks)
    return by_sums


def test_power_sums_are_the_syndromes_of_the_lagrange_extras():
    # Alice's sums H (b || 0) equal H (0 || extras) for the s values at
    # points m..m+s-1 of the polynomial through her blocks, since (b || extras)
    # is a codeword, and each equals its term-by-term sum.
    for k, max_m in [(3, 6), (4, 12), (8, 40), (11, 40)]:
        fld = field(k)
        rng = random.Random(60 + k)
        for _ in range(20):
            m = rng.randint(1, max_m)
            s = rng.randint(0, min(20, fld.size - 1 - m))
            blocks = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(m)]
            poly = interpolate(fld, list(enumerate(blocks)))
            extras = [poly_eval(fld, poly, a) for a in range(m, m + s)]
            sums = power_sums(fld, blocks, s)
            assert sums == old_syndromes(fld, [*blocks, *[0] * s], s)
            assert sums == old_syndromes(fld, [*[0] * m, *extras], s)


def test_rs_correct_matches_brute_force_decoding(monkeypatch):
    # The unique block vector within floor(s/2) of the estimates whose sums
    # are the given ones, found by scanning every block vector, or None when
    # no block vector is that close.  GF(8) and GF(16) take the slot-mask
    # kernel at every size; GF(256) at s = 17 and 20 has too many lanes for
    # it and takes the bit-sliced one.
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
                if m + s >= fld.size:
                    continue
                by_sums = _block_vectors_by_sums(fld, m, s)
                radius = s // 2
                for kind in ("random", "near", "beyond") * 12:
                    if kind == "random":
                        estimates = [rng.randrange(fld.size) for _ in range(m)]
                        sums = [rng.randrange(fld.size) for _ in range(s)]
                    else:
                        blocks = [rng.randrange(fld.size) for _ in range(m)]
                        sums = power_sums(fld, blocks, s)
                        if kind == "near":
                            errors = rng.randint(0, radius)
                        else:
                            errors = rng.randint(radius + 1, radius + 3)
                        estimates = list(blocks)
                        for pos in rng.sample(range(m), min(m, errors)):
                            estimates[pos] ^= rng.randrange(1, fld.size)
                    close = [
                        v for v in by_sums[tuple(sums)] if sum(map(ne, v, estimates)) <= radius
                    ]
                    assert len(close) <= 1  # any s columns of H are independent
                    expected = list(close[0]) if close else None
                    assert correct(fld, estimates, sums) == expected
                    returned += expected is not None and kind != "near"
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
        assert correct(fld, blocks, power_sums(fld, blocks, s)) == blocks


def test_rs_single_error_exhaustive():
    # m=4, s=4 over GF(16): every block and every wrong value, always
    # corrected since floor(s/2) = 2.  The sums of a codeword with one wrong
    # extra, which a decoder over all m + s points would correct, locate an
    # error at an extra point, and rs_correct refuses them.
    fld = field(4)
    rng = random.Random(56)
    blocks = [rng.randrange(16) for _ in range(4)]
    sums = power_sums(fld, blocks, 4)
    for pos in range(4):
        for error in range(1, 16):
            corrupted = list(blocks)
            corrupted[pos] ^= error
            assert correct(fld, corrupted, sums) == blocks
            extra_error = [0] * 4
            extra_error[pos] = error
            moved = list(map(xor, sums, old_syndromes(fld, [0] * 4 + extra_error, 4)))
            assert correct(fld, blocks, moved) is None


def test_rs_two_errors_in_capacity():
    fld = field(4)
    rng = random.Random(57)
    blocks = [rng.randrange(16) for _ in range(4)]
    sums = power_sums(fld, blocks, 4)
    for p1, p2 in itertools.combinations(range(4), 2):
        corrupted = list(blocks)
        corrupted[p1] ^= 5
        corrupted[p2] ^= 9
        assert correct(fld, corrupted, sums) == blocks


def test_rs_gf256_random_errors_in_capacity():
    fld = field(8)
    rng = random.Random(58)
    for _ in range(100):
        m = rng.randint(4, 32)
        s = rng.randint(2, 16)
        blocks = [rng.randrange(256) for _ in range(m)]
        estimates = list(blocks)
        for pos in rng.sample(range(m), rng.randint(0, min(m, s // 2))):
            estimates[pos] ^= rng.randrange(1, 256)
        assert correct(fld, estimates, power_sums(fld, blocks, s)) == blocks


def test_rs_output_always_agrees_with_majority():
    # Whatever garbage comes in, a non-None answer and the s extras whose
    # sums were given interpolate to one polynomial, which matches all the
    # extras and at least (m + s + m) / 2 of the given values.
    fld = field(4)
    rng = random.Random(59)
    returned = failed = 0
    for _ in range(300):
        m = rng.randint(1, 6)
        s = rng.randint(0, 10 - m)
        values = [rng.randrange(16) for _ in range(m + s)]
        got = correct(fld, values[:m], old_syndromes(fld, [*[0] * m, *values[m:]], s))
        if got is None:
            failed += 1
            continue
        returned += 1
        poly = interpolate(fld, list(enumerate(got)))
        agree = [poly_eval(fld, poly, a) == v for a, v in enumerate(values)]
        assert all(agree[m:])
        assert 2 * sum(agree) >= 2 * m + s
    assert returned > 0 and failed > 0


# Test-local copies of the per-element loops that the packed-lane kernels
# replaced: direct products for the weights and M(a), the barycentric sum per
# extra point, the term-by-term syndrome loop and the Horner root scan; and
# the decoder over all m + s points that rs_correct replaced.


@lru_cache(maxsize=None)
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


def old_rs_correct(fld: Field, values, m: int, s: int):
    """The decoder over all N = m + s received values, m blocks then s
    extras, term by term: the syndromes over the N points, Berlekamp-Massey,
    a root scan over the N points and Forney's formula with the formal
    derivative.  Returns (the m corrected blocks or None, the roots found)."""
    n_points = m + s
    syndromes = old_syndromes(fld, values, s)
    if not any(syndromes):
        return list(values[:m]), []
    (lam, length), _ = old_berlekamp_massey(fld, syndromes)
    roots = [i for i, v in enumerate(old_root_scan(fld, lam, n_points)) if not v]
    if 2 * length > s or len(roots) != length:
        return None, roots
    omega = [0] * length  # S Lambda mod x^L
    for u, c in enumerate(lam):
        for t, s_t in enumerate(syndromes[: max(0, length - u)], u):
            omega[t] ^= mul(fld, c, s_t)
    derivative = [c if j % 2 else 0 for j, c in enumerate(lam)][1:]
    weights = old_weights(fld, n_points)
    fixed = list(values)
    for i in roots:
        x = i ^ n_points
        num = poly_eval(fld, omega, inv(fld, x))
        den = poly_eval(fld, derivative, inv(fld, x))
        if not num or not den:
            return None, roots
        fixed[i] ^= mul(fld, mul(fld, x, num), inv(fld, mul(fld, den, weights[i])))
    return fixed[:m], roots


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
    # Both kernels on both tables, and the product by whichever kernel the
    # table's shape selects: the sums equal their term-by-term loop over
    # (b || 0), and the root scan the Horner scan at the block points.
    fld = field(k)
    rng = random.Random(k * 1000 + m * 10 + s)
    tables = [(_syndrome_columns(k, m, s), s), (_root_columns(k, m, s), m)]
    for _ in range(3):
        blocks = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(m)]
        lam = [1] + [rng.randrange(fld.size) for _ in range(rng.randint(0, s // 2))]
        expected = [
            old_syndromes(fld, [*blocks, *[0] * s], s),
            old_root_scan(fld, lam, m + s)[:m],
        ]
        assert power_sums(fld, blocks, s) == expected[0]
        for (table, lanes), vector, want in zip(tables, (blocks, lam), expected):
            columns = plain_columns(table, lanes)
            assert lane_map(fld, vector, columns, lanes) == want
            assert slot_map(fld, vector, columns, lanes) == want
            assert table_map(fld, vector, table, lanes) == want


def _comparison_shapes():
    """(k, m, s): GF(16) shapes from one block to a full field, and
    smith-stress's and smith-2048's."""
    yield from [(4, 1, 2), (4, 3, 4), (4, 4, 4), (4, 5, 6), (4, 7, 8), (4, 10, 4), (4, 2, 13)]
    yield from [(9, 58, 2), (11, 187, 64)]


@pytest.mark.parametrize("k, m, s", list(_comparison_shapes()))
def test_rs_correct_ends_as_the_old_decoder_refusing_roots_at_extras(k, m, s):
    # Alice's sums H (b || 0) equal H (0 || extras) for her extra values, so
    # Bob's syndromes are the old decoder's over all m + s points.  Where
    # every root the old decoder found is a block point the two agree, and
    # otherwise rs_correct refuses, as the extras arrive exact.
    fld = field(k)
    rng = random.Random(k * 1000 + m * 10 + s)
    trials = 40 if k == 4 else 2
    seen = Counter()
    for errors in list(range(s // 2 + 4)) * trials:
        blocks = [rng.randrange(fld.size) for _ in range(m)]
        estimates = list(blocks)
        for pos in rng.sample(range(m), min(m, errors)):
            estimates[pos] ^= rng.randrange(1, fld.size)
        old, roots = old_rs_correct(fld, estimates + old_extra_evals(fld, blocks, s), m, s)
        new = correct(fld, estimates, power_sums(fld, blocks, s))
        if all(i < m for i in roots):
            assert new == old
            seen["x" if new == blocks else "wrong" if new else "refused"] += 1
        else:
            assert new is None
            seen["root at an extra"] += 1
    assert seen["x"] > 0
    if k == 4 and m > s // 2:  # room for more than floor(s/2) wrong blocks
        assert seen["root at an extra"] > 0


@pytest.mark.parametrize(
    "k, m, s, kernel",
    [(9, 58, 2, "slot"), (11, 187, 64, "bit-sliced")],  # smith-stress's and smith-2048's shapes
)
def test_each_shape_selects_the_kernel_its_masks_allow(monkeypatch, k, m, s, kernel):
    # Alice's sums and one correction with s/2 wrong blocks: the syndrome
    # table twice and, at s = 64, the root scan's table.
    used = kernels_used(monkeypatch)
    fld = field(k)
    rng = random.Random(k)
    blocks = [rng.randrange(fld.size) for _ in range(m)]
    sums = power_sums(fld, blocks, s)
    estimates = list(blocks)
    for pos in rng.sample(range(m), s // 2):
        estimates[pos] ^= rng.randrange(1, fld.size)
    assert correct(fld, estimates, sums) == blocks
    other = "bit-sliced" if kernel == "slot" else "slot"
    assert used[kernel] == (2 if s == 2 else 3) and used[other] == 0


def test_degree_one_locators_find_their_root_without_a_scan(monkeypatch):
    # At s = 2 the syndromes (1, lambda_1) give the locator 1 + lambda_1 x,
    # which has its root at the point lambda_1 ^ (m + 2) when that is a block
    # point, and no root among the blocks otherwise, where its one root is
    # too few.
    used = kernels_used(monkeypatch)
    for k, m in [(3, 3), (4, 7), (9, 58), (11, 249)]:
        fld = field(k)
        inside = outside = 0
        for lam1 in range(fld.size):
            scan = [i for i, v in enumerate(old_root_scan(fld, [1, lam1], m + 2)[:m]) if not v]
            located = _locate(fld, [1, lam1], _pack_lanes([1, lam1]), m)
            assert located == (([1, lam1], scan) if scan else None)
            inside += bool(scan)
            outside += not scan
        assert inside == m and outside == fld.size - m
    assert used == {"slot": 0, "bit-sliced": 0}


@pytest.mark.parametrize("k, m, s", [(4, 3, 4), (4, 5, 6), (5, 20, 8), (8, 40, 6)])
def test_locate_refuses_a_long_locator_and_a_wrong_root_count(k, m, s):
    # _locate keeps Berlekamp-Massey's (Lambda, L) exactly when 2L <= s and
    # Lambda has L roots among the block points, and then returns those
    # roots.  The syndromes are random ones, those of 1 to floor(s/2) + 2
    # wrong blocks, and 0, ..., 0, 1, whose L is s.
    fld = field(k)
    rng = random.Random(k * 100 + s)
    sequences = [[0] * (s - 1) + [1]]
    for errors in [None, *range(1, s // 2 + 3)] * 30:
        if errors is None:
            sequences.append([rng.randrange(fld.size) for _ in range(s)])
            continue
        error = [0] * m
        for pos in rng.sample(range(m), min(m, errors)):
            error[pos] = rng.randrange(1, fld.size)
        sequences.append(table_map(fld, error, _syndrome_columns(k, m, s), s))
    seen = Counter()
    for seq in filter(any, sequences):
        (lam, length), _ = old_berlekamp_massey(fld, seq)
        located = _locate(fld, seq, _pack_lanes(seq), m)
        roots = [i for i, v in enumerate(old_root_scan(fld, lam, m + s)[:m]) if not v]
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
    # its root is not a block point (an extra point, or past the points), no
    # block vector within one of the estimates has the given sums.
    fld = field(4)
    m, s = 3, 2
    rng = random.Random(62)
    by_sums = _block_vectors_by_sums(fld, m, s)
    columns = plain_columns(_syndrome_columns(4, m, s), s)
    where = Counter()
    for _ in range(200):
        estimates = [rng.randrange(fld.size) for _ in range(m)]
        sums = [rng.randrange(fld.size) for _ in range(s)]
        syndromes = list(map(xor, lane_map(fld, estimates, columns, s), sums))
        lam, length = _berlekamp_massey(fld, syndromes, _pack_lanes(syndromes))
        if length != 1 or lam[1] ^ (m + s) < m:
            continue
        where["extra" if lam[1] ^ (m + s) < m + s else "past the points"] += 1
        assert _locate(fld, syndromes, _pack_lanes(syndromes), m) is None
        assert correct(fld, estimates, sums) is None
        assert all(sum(map(ne, v, estimates)) > 1 for v in by_sums[tuple(sums)])
    assert where["extra"] > 0 and where["past the points"] > 0


@pytest.mark.parametrize("k, m, s", [(9, 58, 2), (11, 187, 64)])
def test_rs_layer_holds_little_after_one_encode_and_one_correct(k, m, s):
    # What the RS layer caches for one size, its field tables aside: the
    # weights, the syndrome and root-scan tables and the slot masks.  The
    # slot-mask kernel must not buy speed with a table that would move
    # smith's peak memory (2.75 MiB of masks at n = 2048's k = 11, s = 64).
    fld = field(k)
    caches = (_barycentric_weights, _syndrome_columns, _root_columns, _slot_masks)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(k)
    blocks = [rng.randrange(fld.size) for _ in range(m)]
    errors = [0] * m
    for pos in rng.sample(range(m), max(1, s // 2)):
        errors[pos] = rng.randrange(1, fld.size)
    packed, error_lanes = _pack_lanes(blocks), _pack_lanes(errors)
    tracemalloc.start()
    try:
        sums = rs_extra_evals(fld, packed, m, s)
        fixed = rs_correct(fld, packed ^ error_lanes, sums, m, s)
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
    and sparse; the syndromes of m blocks with errors within, at and beyond
    floor(s/2), where m + s < 2^k leaves room for them; and an LFSR's
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
            for errors in (1, s // 2, s // 2 + 1, s // 2 + 5):
                blocks = [rng.randrange(size) for _ in range(m)]
                estimates = list(blocks)
                for pos in rng.sample(range(m), min(errors, m)):
                    estimates[pos] ^= rng.randrange(1, size)
                yield list(map(xor, power_sums(fld, blocks, s), power_sums(fld, estimates, s)))
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
