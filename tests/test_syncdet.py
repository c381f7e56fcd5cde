import itertools
import random
from fractions import Fraction

import pytest
from test_gf2codes import _old_code_from_parity, encode, extract_message, min_distance

from hamsync import gf2codes
from hamsync.bitword import Bounds, Word, ball_volume, hamming_distance, random_word_within
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import (
    AffineSolver,
    LinearCode,
    _walk,
    ball_table,
    hamming_7_4,
    list_decode_exhaustive,
    mat_vec,
    random_linear_code,
    syndrome,
    unique_decode,
)
from hamsync.gf2k_rs import field
from hamsync.probproto import one_round_prob_parties, one_round_prob_sync
from hamsync.syncdet import (
    SyncInstance,
    _column_sum,
    brute_alice,
    brute_bob,
    brute_parties,
    brute_sync,
    build_greedy_coloring,
    coloring_bob,
    coloring_oracle_sync,
    coloring_parties,
    coset_representative,
    list_candidates,
    listdec_alice,
    listdec_bob,
    listdec_parties,
    listdec_sync,
    syndrome_alice,
    syndrome_bob,
    syndrome_parties,
    syndrome_sync,
)
from hamsync.transport import RECV, run_protocol


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
        assert mat_vec(code.h, t.value ^ x.value ^ y.value) == 0


def test_brute_sends_hammings_check_bits():
    # Hamming's check columns are the unit vectors in order, so the syndrome
    # of the message columns is the check-bit message, byte for byte.
    code = hamming_7_4()
    sent = [next(brute_alice(code, Word(xv, 4))) for xv in range(16)]
    assert [w.value for w in sent] == [0, 3, 5, 6, 6, 5, 3, 0, 7, 4, 2, 1, 1, 2, 4, 7]
    assert {w.n for w in sent} == {3}
    checks = (0, 1, 3)
    for xv, w in enumerate(sent):
        cw = encode(code, Word(xv, 4)).value
        assert w.value == sum(((cw >> pos) & 1) << i for i, pos in enumerate(checks))


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


def test_listdec_parties_check_the_list_decoding_limits():
    # Rejected before either party starts, not inside Bob's first step.
    rng = random.Random(65)
    code = random_linear_code(14, 5, rng)
    inst = SyncInstance(Word(0, 14), Word(0, 14), Bounds(Fraction(3, 14), 14))
    with pytest.raises(ContractError):
        listdec_parties(code, 15, inst)  # radius above n
    code = random_linear_code(30, 5, rng)
    inst = SyncInstance(Word(0, 30), Word(0, 30), Bounds(Fraction(1, 10), 30))
    with pytest.raises(CapabilityError):
        listdec_parties(code, 8, inst)  # a ball over the walk budget


def _old_list_candidates(code, h_value, y, radius):
    """The list as it was found: solve for a coset representative t, then
    scan every codeword within radius of it."""
    t = coset_representative(code, h_value, y)
    return sorted(t.value ^ y.value ^ z.value for z in list_decode_exhaustive(code, t, radius))


def test_list_candidates_match_the_codeword_scan_on_every_hamming_pair():
    # x enters only through its syndrome, so the 8 syndromes cover all pairs.
    code = hamming_7_4()
    for radius in range(8):
        for yv in range(128):
            y = Word(yv, 7)
            for h in range(8):
                assert list_candidates(code, h, y, radius) == _old_list_candidates(
                    code, h, y, radius
                )


def test_list_candidates_match_the_codeword_scan_on_random_codes():
    rng = random.Random(66)
    for n in range(2, 13):
        for _ in range(3):
            code = random_linear_code(n, rng.randint(1, n - 1), rng)
            for radius in range(n + 1):
                for _ in range(8):
                    y = Word(rng.getrandbits(n), n)
                    h = rng.getrandbits(len(code.h))
                    assert list_candidates(code, h, y, radius) == _old_list_candidates(
                        code, h, y, radius
                    )


def test_listdec_round_trips_at_n_64_radius_2():
    # Past the codeword scan's reach: the ball table walks 2,081 words.
    rng = random.Random(67)
    code = random_linear_code(64, 40, rng)
    bounds = Bounds(Fraction(2, 64), 64)
    for flips in (0, 1, 2, 2, 2):
        y = Word(rng.getrandbits(64), 64)
        inst = SyncInstance(y.flip(rng.sample(range(64), flips)), y, bounds)
        out = listdec_sync(code, 2, inst)
        assert out.recovered == inst.x and not out.reported_failure
        assert inst.x.value in out.diagnostics["candidates"]


def test_list_protocols_refuse_one_word_over_the_walk_budget(monkeypatch):
    # The budget cut to one word under V(12, 3): radius 3 is refused by the
    # parties function, before a generator exists to step, and radius 2 runs.
    monkeypatch.setattr(gf2codes, "WALK_BUDGET", ball_volume(3, 12) - 1)
    rng = random.Random(68)
    code = random_linear_code(12, 4, rng)
    y = Word(rng.getrandbits(12), 12)
    inst = SyncInstance(y.flip([1, 5]), y, Bounds(Fraction(2, 12), 12))
    with pytest.raises(CapabilityError, match="walk budget"):
        listdec_parties(code, 3, inst)
    with pytest.raises(CapabilityError, match="walk budget"):
        one_round_prob_parties(code, 3, inst, 16, random.Random(0))
    assert listdec_sync(code, 2, inst).recovered == inst.x
    # The unique decoders read the same table at the promise radius: cut to
    # one word under V(15, 1), Hamming [15, 11] is refused, and at V(15, 1)
    # it runs.  A cached table was checked when it was built, so none is kept.
    code = _hamming_code(4)
    for parties, words in ((brute_parties, code.k), (syndrome_parties, code.n)):
        y = Word(rng.getrandbits(words), words)
        inst = SyncInstance(y.flip([words - 1]), y, Bounds(Fraction(1, words), words))
        gf2codes.ball_table.cache_clear()
        monkeypatch.setattr(gf2codes, "WALK_BUDGET", ball_volume(1, 15) - 1)
        with pytest.raises(CapabilityError, match="walk budget"):
            parties(code, inst)
        monkeypatch.setattr(gf2codes, "WALK_BUDGET", ball_volume(1, 15))
        assert run_protocol(*parties(code, inst)).recovered == inst.x


def _old_greedy_colors(n, d):
    """The color table coloring built before it built columns: all 2^n
    words in ascending order, each with the least color unused by an
    earlier word at distance <= d."""
    masks = [m for m, _, _ in _walk(n, d)]
    colors = [0] * (1 << n)
    for w in range(1 << n):
        used = {colors[w ^ m] for m in masks if (w ^ m) < w}
        c = 0
        while c in used:
            c += 1
        colors[w] = c
    return colors


def test_columns_color_every_word_as_the_old_enumeration():
    # Every shape the old cap and scan budget admitted with d <= n <= 12
    # and d <= 6, but (12, 5) and (12, 6): those two took 0.9 s of the
    # 1.5 s the 69 shapes take.  Its color count was 2^width.
    for n in range(1, 13):
        for d in range(min(n, 6 if n < 12 else 4) + 1):
            columns = build_greedy_coloring(n, d)
            colors = _old_greedy_colors(n, d)
            assert [_column_sum(columns, w) for w in range(1 << n)] == colors, (n, d)
            assert max(colors) + 1 == 1 << max(columns).bit_length(), (n, d)


def test_coloring_bob_matches_the_old_ball_scan():
    # For every y and every value Bob can receive, his lookup returns what
    # the old Bob's scan of his ball for the received color returned.  The
    # scan never met two words of one color, and the table never lists two
    # words under one key.
    for n in range(1, 9):
        for r in range(n // 2 + 1):
            columns = build_greedy_coloring(n, 2 * r)
            width = max(columns).bit_length()
            colors = _old_greedy_colors(n, 2 * r)
            assert all(len(words) == 1 for words in ball_table(columns, r).values())
            for yv in range(1 << n):
                y = Word(yv, n)
                scanned = {}
                for w in (yv,) + tuple(yv ^ m for m, _, _ in _walk(n, r)):
                    scanned.setdefault(colors[w], []).append(w)
                assert all(len(words) == 1 for words in scanned.values())
                diag = {"n_colors": 1 << width, "color_bits": width}
                for target in range(1 << width):
                    old = scanned.get(target)
                    bob = coloring_bob(n, r, y)
                    try:  # pytest.raises would double this loop's time
                        if width:
                            assert next(bob) is RECV
                            bob.send(Word(target, width))
                        else:
                            next(bob)
                    except StopIteration as stop:
                        got = stop.value
                    else:
                        raise AssertionError("Bob asked for a second message")
                    assert got == (old and Word(old[0], n), diag), (n, r, yv, target)


def test_coloring_is_proper():
    for n, d in [(6, 2), (8, 3), (10, 2)]:
        columns = build_greedy_coloring(n, d)
        masks = [m for m in range(1, 1 << n) if m.bit_count() <= d]
        for w in range(1 << n):
            for m in masks:
                assert _column_sum(columns, w) != _column_sum(columns, w ^ m)
        assert 1 << max(columns).bit_length() <= ball_volume(d, n)


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


def test_coloring_budget_guards():
    # Vol(2r - 1, n) words bound the builder's sets and Bob's ball: n = 24
    # at r = 3 walks Vol(5, 24) = 55,455 and runs, n = 25 walks 68,406 and
    # is refused before either party is built.
    rng = random.Random(36)
    for n, r in ((15, 1), (24, 3), (25, 3)):
        y = Word(rng.getrandbits(n), n)
        inst = SyncInstance(y.flip(rng.sample(range(n), r)), y, Bounds(Fraction(r, n), n))
        if ball_volume(2 * r - 1, n) > gf2codes.WALK_BUDGET:
            with pytest.raises(CapabilityError, match="walk budget"):
                coloring_parties(inst)
        else:
            assert coloring_oracle_sync(inst).recovered == inst.x
    assert (ball_volume(5, 24), ball_volume(5, 25)) == (55_455, 68_406)


@pytest.mark.parametrize("n, r, bits", [(23, 3, 11), (64, 2, 13)])
def test_coloring_reaches_past_the_old_cube_cap(n, r, bits):
    rng = random.Random(n)
    bounds = Bounds(Fraction(r, n), n)
    for distance in range(r + 1):
        y = Word(rng.getrandbits(n), n)
        inst = SyncInstance(y.flip(rng.sample(range(n), distance)), y, bounds)
        out = coloring_oracle_sync(inst)
        assert out.recovered == inst.x
        assert out.transcript.total_bits == bits
        assert out.diagnostics == {"n_colors": 1 << bits, "color_bits": bits}


def test_coloring_columns_give_the_lexicode_check_bits():
    # The check bits r of the lexicode correcting t errors, distance 2t + 1.
    # At (23, 3) the code is perfect, Golay's parameters: every one of the
    # 2^11 syndromes has one word of weight <= 3.
    table = {(7, 1): 3, (15, 2): 8, (15, 3): 10, (23, 3): 11, (31, 3): 15, (63, 2): 13}
    for (n, t), r in table.items():
        assert max(build_greedy_coloring(n, 2 * t)).bit_length() == r, (n, t)
    assert len(ball_table(build_greedy_coloring(23, 6), 3)) == 1 << 11 == ball_volume(3, 23)


def test_protocols_reuse_the_code_solver(monkeypatch):
    # No protocol reduces a code's rows: neither building the code nor any
    # trial on it builds a solver.
    built = []
    init = AffineSolver.__init__

    def counting_init(self, h, cols):
        built.append(cols)
        init(self, h, cols)

    monkeypatch.setattr(AffineSolver, "__init__", counting_init)
    code = LinearCode(7, hamming_7_4().h)
    assert built == []
    bounds, file_bounds = Bounds(Fraction(1, 7), 7), Bounds(Fraction(1, 4), 4)
    rng = random.Random(64)
    for _ in range(50):
        y = Word(rng.getrandbits(7), 7)
        inst = SyncInstance(random_word_within(y, 1, rng), y, bounds)
        assert syndrome_sync(code, inst).recovered == inst.x
        assert listdec_sync(code, 1, inst).recovered == inst.x
        assert one_round_prob_sync(code, 1, inst, 16, rng).recovered == inst.x
        files = SyncInstance(Word(inst.x.value % 16, 4), Word(inst.y.value % 16, 4), file_bounds)
        assert brute_sync(code, files).recovered == files.x
    assert built == []
    AffineSolver(code.h, code.n)
    assert built == [7]  # the counter counts


def _hamming_code(m):
    """The [2^m - 1, 2^m - 1 - m] Hamming code: parity-check column c is the
    m-bit value c + 1, so every column is distinct and nonzero (distance 3)."""
    n = (1 << m) - 1
    return LinearCode(n, [sum(((c >> r) & 1) << (c - 1) for c in range(1, n + 1)) for r in range(m)])


def _bch_15_7():
    """The [15, 7] BCH code of distance 5: parity-check column i is alpha^i
    over alpha^(3i) in GF(16)."""
    f = field(4)
    columns = [f.exp[i] | f.exp[3 * i % 15] << 4 for i in range(15)]
    return LinearCode(15, [sum(((col >> r) & 1) << c for c, col in enumerate(columns)) for r in range(8)])


def _extended_hamming_8_4():
    """Hamming [7, 4] with an overall parity row: distance 4."""
    return LinearCode(8, hamming_7_4().h + ((1 << 8) - 1,))


@pytest.mark.parametrize("parties, length", [(brute_parties, "k"), (syndrome_parties, "n")])
def test_unique_decoding_reaches_past_n_14(parties, length):
    # One ball-table lookup at the promise radius decodes any code whose
    # distance exceeds 2r, inside the walk budget: the three Hamming codes
    # at r = 1, where syndrome sends exactly log2 Vol(1, n) bits, and the
    # [15, 7] BCH code at r = 2.
    codes = [(_hamming_code(m), 1) for m in (4, 5, 6)] + [(_bch_15_7(), 2)]
    assert [(c.n, c.k) for c, _ in codes] == [(15, 11), (31, 26), (63, 57), (15, 7)]
    assert min_distance(codes[0][0]) == 3 and min_distance(codes[3][0]) == 5
    rng = random.Random(69)
    for code, r in codes:
        words = getattr(code, length)
        bounds = Bounds(Fraction(r, words), words)
        for _ in range(100):
            y = Word(rng.getrandbits(words), words)
            inst = SyncInstance(random_word_within(y, r, rng), y, bounds)
            out = run_protocol(*parties(code, inst))
            assert out.recovered == inst.x and not out.reported_failure
            assert out.transcript.total_bits == code.n - code.k
        if parties is syndrome_parties and r == 1:
            assert 1 << out.transcript.total_bits == ball_volume(1, code.n)
    # A code of distance exactly 2r is refused; at radius r - 1 it runs.
    code = _extended_hamming_8_4()
    assert min_distance(code) == 4
    words = getattr(code, length)
    for r in (2, 1):
        y = Word(rng.getrandbits(words), words)
        inst = SyncInstance(y.flip([0]), y, Bounds(Fraction(r, words), words))
        if r == 2:
            with pytest.raises(ContractError, match="uniquely correct 2 errors"):
                parties(code, inst)
        else:
            assert run_protocol(*parties(code, inst)).recovered == inst.x


def _bob_result(bob, msg):
    """(recovered, diagnostics) of a Bob generator that receives one message."""
    assert next(bob) is RECV
    with pytest.raises(StopIteration) as stop:
        bob.send(msg)
    return stop.value.value


def _old_syndrome_bob(code, y, radius, msg):
    """Syndrome's Bob as he was: solve for t, then unique-decode it."""
    y_prime = coset_representative(code, msg.value, y)
    z = unique_decode(code, y_prime)
    weight = hamming_distance(y_prime, z)
    diag = {"syndrome_bits": msg.n, "decoded_difference_weight": weight}
    return (None if weight > radius else Word(y_prime.value ^ y.value ^ z.value, y.n)), diag


def _old_brute_alice(code, x):
    """Brute's Alice as she was: encode the file, send the check positions."""
    _, _, positions = _old_code_from_parity(code.h, code.n)
    checks = [c for c in range(code.n) if c not in positions]
    cw = encode(code, x).value
    return Word(sum(((cw >> pos) & 1) << i for i, pos in enumerate(checks)), len(checks))


def _old_brute_bob(code, y, radius, msg):
    """Brute's Bob as he was: rebuild the received word, unique-decode it."""
    _, _, positions = _old_code_from_parity(code.h, code.n)
    checks = [c for c in range(code.n) if c not in positions]
    composed = 0
    for i, pos in enumerate(positions):
        composed |= ((y.value >> i) & 1) << pos
    for i, pos in enumerate(checks):
        composed |= ((msg.value >> i) & 1) << pos
    received = Word(composed, code.n)
    z = unique_decode(code, received)
    diag = {"check_bits": msg.n, "decode_distance": hamming_distance(received, z)}
    return (None if diag["decode_distance"] > radius else extract_message(code, z)), diag


def _first_message_column_words(code, radius):
    """Each syndrome under H's message columns, mapped to the first k-bit
    word of weight <= radius that has it, lightest first and then smallest:
    a scan of the 2^k message words."""
    _, _, positions = _old_code_from_parity(code.h, code.n)
    columns = [mat_vec(code.h, 1 << f) for f in positions]
    first = {}
    for e in sorted(range(1 << code.k), key=lambda e: (e.bit_count(), e)):
        if e.bit_count() <= radius:
            d = 0
            for i, column in enumerate(columns):
                if (e >> i) & 1:
                    d ^= column
            first.setdefault(d, e)
    return first, columns


def _assert_same_result(new, old, weight, radius):
    """new equals old, except that past the radius, where both report
    failure, only the old Bob knew the weight of the coset's leader."""
    recovered, diag = old
    if diag[weight] > radius:
        diag = {key: value for key, value in diag.items() if key != weight}
    assert new == (recovered, diag)


def _assert_bobs_agree(code, pairs):
    """Both Bobs give what their old selves give on these (x, y) pairs of
    n-bit words: syndrome on (x, y) at every distance, brute on the low k
    bits of each within the radius, which for brute is at most k.  Past it,
    brute's Bob returns y xor the first message-column word of weight <=
    radius with the syndrome difference, or reports failure when there is
    none.  Returns how often the old brute Bob returned a word where the
    new one reports failure."""
    radius = (min_distance(code) - 1) // 2
    files = code.k
    file_radius = min(radius, files)
    first, columns = _first_message_column_words(code, file_radius)
    newly_failed = 0
    for xv, yv in pairs:
        x, y = Word(xv, code.n), Word(yv, code.n)
        msg = syndrome(code, x)
        new = _bob_result(syndrome_bob(code, y, radius), msg)
        old = _old_syndrome_bob(code, y, radius, msg)
        _assert_same_result(new, old, "decoded_difference_weight", radius)
        x, y = Word(xv % (1 << files), files), Word(yv % (1 << files), files)
        msg = next(brute_alice(code, x))
        new = _bob_result(brute_bob(code, y, file_radius), msg)
        old = _old_brute_bob(code, y, file_radius, _old_brute_alice(code, x))
        if hamming_distance(x, y) <= file_radius:
            assert new == old
            continue
        difference = 0
        for i, column in enumerate(columns):
            if ((x.value ^ y.value) >> i) & 1:
                difference ^= column
        e = first.get(difference)
        if e is None:
            assert new == (None, {"check_bits": code.n - code.k})
            newly_failed += old[0] is not None
        else:
            diag = {"check_bits": code.n - code.k, "decode_distance": e.bit_count()}
            assert new == (Word(y.value ^ e, files), diag)
    return newly_failed


def test_leader_bobs_match_the_decoding_bobs_on_every_hamming_pair():
    # Brute's Bob reports failure on a syndrome difference of 1, 2 or 4: each
    # is a check column, which no message-column word of weight 1 has.  The
    # old Bob decoded those pairs to some word.
    code = hamming_7_4()
    pairs = itertools.product(range(128), repeat=2)
    assert _assert_bobs_agree(code, pairs) == 128 * 128 * 3 // 8


def test_leader_bobs_match_the_decoding_bobs_on_random_codes():
    # Past the promise the new brute Bob can no longer pin a difference on
    # check bits that Alice sent exactly, so he reports failure on some pairs
    # where the old Bob returned a word.
    rng = random.Random(65)
    codes = newly_failed = 0
    for n in range(2, 13):
        for k in range(1, n):
            code = random_linear_code(n, k, rng)
            pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(80)]
            pairs += [(yv ^ (1 << rng.randrange(n)), yv) for _, yv in pairs]
            newly_failed += _assert_bobs_agree(code, pairs)
            codes += 1
    assert codes == 66
    assert newly_failed > 0
