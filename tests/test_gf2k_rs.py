import itertools
import random
from functools import reduce
from operator import ne, xor

import pytest

from hamsync.errors import ContractError
from hamsync.gf2k_rs import (
    IRREDUCIBLE,
    Field,
    _barycentric_weights,
    _berlekamp_massey,
    _lane_map,
    _pack_lanes,
    _root_columns,
    _syndrome_columns,
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
    return _unpack_lanes(_lane_map(fld, _pack_lanes(values), columns, lanes), lanes)

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


def test_rs_correct_matches_brute_force_decoding():
    # The unique codeword within floor(s/2) of the m+s values, found by
    # scanning every codeword, or None when no codeword is that close.
    returned = failed = 0
    for k, s_values in [(3, range(1, 7)), (4, (1, 2, 3, 5, 8, 12))]:
        fld = field(k)
        rng = random.Random(61 + k)
        for m in (1, 2, 3):
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
    fld = field(k)
    rng = random.Random(k * 1000 + m * 10 + s)
    n_points = m + s
    for _ in range(3):
        blocks = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(m)]
        assert extra_evals(fld, blocks, s) == old_extra_evals(fld, blocks, s)
        values = [rng.choice([0, rng.randrange(fld.size)]) for _ in range(n_points)]
        assert lane_map(fld, values, _syndrome_columns(k, n_points, s), s) == old_syndromes(
            fld, values, s
        )
        lam = [1] + [rng.randrange(fld.size) for _ in range(rng.randint(0, s // 2))]
        assert lane_map(fld, lam, _root_columns(k, n_points, s), n_points) == old_root_scan(
            fld, lam, n_points
        )


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
                yield lane_map(fld, values, _syndrome_columns(k, m + s, s), s)
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
            assert _berlekamp_massey(fld, seq) == expected
            resumed += _resumes(steps)
    assert resumed > 0
