import itertools
import random
from fractions import Fraction

import pytest
from test_gf2codes import min_distance

from hamsync import gf2codes
from hamsync.bitword import Bounds, Word, ball_volume, hamming_distance, random_word_within
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import (
    AffineSolver,
    LinearCode,
    extract_message,
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
    brute_alice,
    brute_bob,
    brute_parties,
    brute_sync,
    build_greedy_coloring,
    coloring_oracle_sync,
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


def test_coloring_budget_guards():
    with pytest.raises(CapabilityError):
        build_greedy_coloring(15, 1)
    with pytest.raises(CapabilityError):
        build_greedy_coloring(14, 8)
    # the oracle raises the same error before either party starts
    inst = SyncInstance(Word(0, 15), Word(0, 15), Bounds(Fraction(1, 15), 15))
    with pytest.raises(CapabilityError):
        coloring_oracle_sync(inst)


def test_protocols_reuse_the_code_solver(monkeypatch):
    # A code reduces its rows once; no trial on it builds another solver.
    built = []
    init = AffineSolver.__init__

    def counting_init(self, h, cols):
        built.append(cols)
        init(self, h, cols)

    monkeypatch.setattr(AffineSolver, "__init__", counting_init)
    code = LinearCode(7, hamming_7_4().h)
    assert built == [7]
    bounds = Bounds(Fraction(1, 7), 7)
    rng = random.Random(64)
    for _ in range(50):
        y = Word(rng.getrandbits(7), 7)
        inst = SyncInstance(random_word_within(y, 1, rng), y, bounds)
        assert syndrome_sync(code, inst).recovered == inst.x
        assert listdec_sync(code, 1, inst).recovered == inst.x
        assert one_round_prob_sync(code, 1, inst, 16, rng).recovered == inst.x
    assert built == [7]


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


def _old_brute_bob(code, y, radius, msg):
    """Brute's Bob as he was: rebuild the received word, unique-decode it."""
    composed = 0
    for i, pos in enumerate(code.message_positions):
        composed |= ((y.value >> i) & 1) << pos
    for i, pos in enumerate(code.check_positions):
        composed |= ((msg.value >> i) & 1) << pos
    received = Word(composed, code.n)
    z = unique_decode(code, received)
    diag = {"check_bits": msg.n, "decode_distance": hamming_distance(received, z)}
    return (None if diag["decode_distance"] > radius else extract_message(code, z)), diag


def _assert_same_result(new, old, weight, radius):
    """new equals old, except that past the radius, where both report
    failure, only the old Bob knew the weight of the coset's leader."""
    recovered, diag = old
    if diag[weight] > radius:
        diag = {key: value for key, value in diag.items() if key != weight}
    assert new == (recovered, diag)


def _assert_bobs_agree(code, pairs):
    """Both Bobs give what their old selves give on these (x, y) pairs of
    n-bit words, at every distance: syndrome on (x, y), brute on the low k
    bits of each."""
    radius = (min_distance(code) - 1) // 2
    files = code.k
    for xv, yv in pairs:
        x, y = Word(xv, code.n), Word(yv, code.n)
        msg = syndrome(code, x)
        new = _bob_result(syndrome_bob(code, y, radius), msg)
        old = _old_syndrome_bob(code, y, radius, msg)
        _assert_same_result(new, old, "decoded_difference_weight", radius)
        x, y = Word(xv % (1 << files), files), Word(yv % (1 << files), files)
        msg = next(brute_alice(code, x))
        new = _bob_result(brute_bob(code, y, radius), msg)
        _assert_same_result(new, _old_brute_bob(code, y, radius, msg), "decode_distance", radius)


def test_leader_bobs_match_the_decoding_bobs_on_every_hamming_pair():
    code = hamming_7_4()
    _assert_bobs_agree(code, itertools.product(range(128), repeat=2))


def test_leader_bobs_match_the_decoding_bobs_on_random_codes():
    rng = random.Random(65)
    codes = 0
    for n in range(2, 13):
        for k in range(1, n):
            code = random_linear_code(n, k, rng)
            pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(80)]
            pairs += [(yv ^ (1 << rng.randrange(n)), yv) for _, yv in pairs]
            _assert_bobs_agree(code, pairs)
            codes += 1
    assert codes == 66
