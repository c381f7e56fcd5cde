"""Acceptance sweep: thirteen end-to-end checks, one per criterion, each
printing a single pass/fail line with its measurements and wall time.
Criterion 11's dangerous-block count is defined here, beside its own tests,
and criteria 01 and 02 run once more with the old decoder made to raise."""

import itertools
import math
import random
import threading
import time
from collections import defaultdict
from fractions import Fraction

from hamsync import gf2codes, harness, syncdet
from hamsync.bitword import (
    Bounds,
    Word,
    ball_volume,
    binary_entropy,
    log2_big,
    random_word_within,
)
from hamsync.gf2codes import AffineSolver, hamming_7_4, mat_vec, random_linear_code
from hamsync.gf2k_rs import _pack_lanes, _unpack_lanes, field, rs_correct, rs_extra_evals
from hamsync.harness import ExperimentConfig, run_experiment
from hamsync.hashing import multi_nba_protocol, nba_protocol
from hamsync.probproto import (
    AffinePermutation,
    ProbParams,
    apply_permutation,
    composite_alice,
    composite_bob,
    composite_prob_sync,
    next_prime_at_least,
    one_round_prob_sync,
    sample_permutation,
)
from hamsync.syncdet import (
    SyncInstance,
    brute_sync,
    coloring_oracle_sync,
    listdec_alice,
    listdec_bob,
    listdec_sync,
    syndrome_alice,
    syndrome_bob,
    syndrome_sync,
)
from hamsync.transport import (
    Role,
    TcpListener,
    outcome_from_party_run,
    run_party,
    run_protocol,
    tcp_connect,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}: {detail}")


def test_criterion_01_syndrome_exhaustive():
    t0 = time.monotonic()
    code = hamming_7_4()
    bounds = Bounds(Fraction(1, 7), 7)
    masks = (0, 1, 2, 4, 8, 16, 32, 64)
    runs = wrong = 0
    bits, rounds = set(), set()
    for xv in range(128):
        x = Word(xv, 7)
        for mask in masks:
            out = syndrome_sync(code, SyncInstance(x, Word(xv ^ mask, 7), bounds))
            runs += 1
            if out.recovered != x:
                wrong += 1
            bits.add(out.transcript.total_bits)
            rounds.add(out.transcript.rounds)
    elapsed = time.monotonic() - t0
    ok = runs == 1024 and wrong == 0 and bits == {3} and rounds == {1} and elapsed < 5
    _report(
        1,
        "syndrome sync on Hamming(7,4), exhaustive promise sweep",
        ok,
        f"{runs} pairs, {wrong} errors, bits={sorted(bits)}, rounds={sorted(rounds)}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_02_brute_exhaustive():
    t0 = time.monotonic()
    code = hamming_7_4()
    bounds = Bounds(Fraction(1, 4), 4)
    runs = wrong = 0
    bits = set()
    for xv in range(16):
        x = Word(xv, 4)
        for mask in (0, 1, 2, 4, 8):
            out = brute_sync(code, SyncInstance(x, Word(xv ^ mask, 4), bounds))
            runs += 1
            if out.recovered != x:
                wrong += 1
            bits.add(out.transcript.total_bits)
    elapsed = time.monotonic() - t0
    ok = runs == 80 and wrong == 0 and bits == {3} and elapsed < 5
    _report(
        2,
        "check-bit sync of 4-bit files over Hamming(7,4), exhaustive",
        ok,
        f"{runs} pairs, {wrong} errors, bits={sorted(bits)}, {elapsed:.2f}s",
    )
    assert ok


def _refuse_the_old_decoders(patch):
    """Make every name of the solve-and-scan path raise."""

    def refuse(*args):
        raise AssertionError("a protocol reached the old decoder")

    for module, name in (
        (gf2codes, "unique_decode"),
        (gf2codes, "codewords"),
        (gf2codes, "list_decode_exhaustive"),
        (syncdet, "coset_representative"),
    ):
        patch.setattr(module, name, refuse)
    patch.setattr(AffineSolver, "solve", refuse)


def test_criteria_01_02_reach_no_solve_and_no_codeword_scan(monkeypatch):
    # Brute and syndrome decode by the ball table, listdec and problist
    # list by it, and coloring reads its colors.  A code reduces its rows
    # when it is built, so the old path raises only once the code exists:
    # Hamming's now, the list protocols' random codes as the harness builds
    # them.
    hamming_7_4()
    assert not hasattr(syncdet, "unique_decode")
    with monkeypatch.context() as patch:
        _refuse_the_old_decoders(patch)
        test_criterion_01_syndrome_exhaustive()
        test_criterion_02_brute_exhaustive()
    for protocol in ("brute", "syndrome", "listdec", "problist", "coloring"):
        with monkeypatch.context() as patch:

            def built_then_refused(n, k, rng):
                code = random_linear_code(n, k, rng)
                _refuse_the_old_decoders(patch)
                return code

            patch.setattr(harness, "random_linear_code", built_then_refused)
            if protocol in ("brute", "syndrome", "coloring"):
                _refuse_the_old_decoders(patch)
            (row,) = run_experiment(ExperimentConfig(protocol=protocol, trials=20, seed=20))
            assert (row.trials, row.success_rate) == (20, 1.0), protocol


def test_criterion_03_nba_identification():
    t0 = time.monotonic()
    rng = random.Random(303)
    wrong = 0
    max_total = 0
    for _ in range(1000):
        vals = rng.sample(range(1 << 16), 4)
        words = [Word(v, 16) for v in vals]
        x = words[rng.randrange(4)]
        out = nba_protocol(x, words, 16)
        max_total = max(max_total, out.transcript.total_bits)
        if out.recovered != x:
            wrong += 1
    small_runs = 0
    for n in range(2, 13):
        universe = range(1 << n) if n <= 4 else range(8)
        for k in range(1, 5):
            for subset in itertools.combinations(universe, k):
                words = [Word(v, n) for v in subset]
                for x in words:
                    out = nba_protocol(x, words, n)
                    small_runs += 1
                    if out.recovered != x:
                        wrong += 1
    elapsed = time.monotonic() - t0
    ok = wrong == 0 and max_total <= 22 and elapsed < 30
    _report(
        3,
        "identification at n=16, k=4 plus small-case sweeps",
        ok,
        f"1000 random + {small_runs} enumerated runs, {wrong} errors, "
        f"max_total={max_total} <= 22, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_04_multi_identification():
    t0 = time.monotonic()
    rng = random.Random(404)
    wrong = 0
    round2_widths = set()
    for _ in range(1000):
        vals = set()
        while len(vals) < 8:
            vals.add(rng.getrandbits(256))
        words = [Word(v, 256) for v in sorted(vals)]
        xs = rng.sample(words, 4)
        out = multi_nba_protocol(xs, words, 256, rng)
        round2_widths.add(out.transcript.messages[1].payload.n)
        if out.reported_failure or out.diagnostics["recovered_values"] != tuple(
            w.value for w in xs
        ):
            wrong += 1
    single_reply = max(2, 8 * 8 * 256).bit_length()
    elapsed = time.monotonic() - t0
    ok = (
        wrong == 0
        and round2_widths == {28}
        and 28 < 4 * single_reply
        and elapsed < 30
    )
    _report(
        4,
        "batched identification at n=256, k=8, l=4",
        ok,
        f"1000 runs, {wrong} errors, reply=28 bits vs 4 separate replies "
        f"= {4 * single_reply} bits, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_05_list_decode_sync():
    t0 = time.monotonic()
    rng = random.Random(505)
    code = random_linear_code(14, 5, rng)
    syn_of = [mat_vec(code.h, v) for v in range(1 << 14)]
    cosets = defaultdict(list)
    for v, s in enumerate(syn_of):
        cosets[s].append(v)
    bounds = Bounds(Fraction(3, 14), 14)
    wrong = lists_wrong = 0
    rounds = set()
    for _ in range(500):
        y = Word(rng.getrandbits(14), 14)
        x = random_word_within(y, 3, rng)
        out = listdec_sync(code, 3, SyncInstance(x, y, bounds))
        rounds.add(out.transcript.rounds)
        if out.recovered != x:
            wrong += 1
        expected = sorted(
            u for u in cosets[syn_of[x.value]] if (u ^ y.value).bit_count() <= 3
        )
        if list(out.diagnostics["candidates"]) != expected:
            lists_wrong += 1
    elapsed = time.monotonic() - t0
    ok = wrong == 0 and lists_wrong == 0 and rounds == {3} and elapsed < 60
    _report(
        5,
        "list-decode sync on a random [14,5] code at radius 3",
        ok,
        f"500 instances, {wrong} errors, {lists_wrong} list mismatches, "
        f"rounds={sorted(rounds)}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_06_coloring_oracle():
    t0 = time.monotonic()
    bounds = Bounds(Fraction(1, 10), 10)
    masks = (0,) + tuple(1 << i for i in range(10))
    runs = wrong = 0
    n_colors = color_bits = 0
    for xv in range(1 << 10):
        x = Word(xv, 10)
        for mask in masks:
            out = coloring_oracle_sync(SyncInstance(x, Word(xv ^ mask, 10), bounds))
            runs += 1
            if out.recovered != x:
                wrong += 1
            n_colors = out.diagnostics["n_colors"]
            color_bits = out.diagnostics["color_bits"]
    elapsed = time.monotonic() - t0
    ok = (
        runs == 11 * 1024
        and wrong == 0
        and n_colors <= ball_volume(2, 10)
        and color_bits <= 6
        and elapsed < 60
    )
    _report(
        6,
        "coloring oracle at n=10, radius 1, exhaustive",
        ok,
        f"{runs} pairs, {wrong} errors, {n_colors} colors <= {ball_volume(2, 10)}, "
        f"{color_bits} bits <= 6, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_07_pairwise_independence():
    t0 = time.monotonic()
    p = 7
    maps = [AffinePermutation(p, a, b) for a in range(1, p) for b in range(p)]
    singles_exact = all(
        sum(1 for m in maps if (m.a * i + m.b) % p == u) * p == len(maps)
        for i in range(p)
        for u in range(p)
    )
    pairs_exact = True
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            for u in range(p):
                for v in range(p):
                    count = sum(
                        1
                        for m in maps
                        if (m.a * i + m.b) % p == u and (m.a * j + m.b) % p == v
                    )
                    if count != (1 if u != v else 0):
                        pairs_exact = False
    elapsed = time.monotonic() - t0
    ok = len(maps) == 42 and singles_exact and pairs_exact and elapsed < 1
    _report(
        7,
        "affine maps mod 7 are exactly pairwise independent",
        ok,
        f"42 maps enumerated, singles 1/7 exact, pairs 1/42 exact, {elapsed:.2f}s",
    )
    assert ok


def _sums(fld, blocks, s):
    """rs_extra_evals on a list of blocks: Alice's s RS sums, as a list."""
    return _unpack_lanes(rs_extra_evals(fld, _pack_lanes(blocks), len(blocks), s), s)


def _correct(fld, received, sums):
    """rs_correct on lists of received blocks and Alice's sums, as a list or None."""
    fixed = rs_correct(fld, _pack_lanes(received), _pack_lanes(sums), len(received), len(sums))
    return None if fixed is None else _unpack_lanes(fixed, len(received))


def test_criterion_08_polynomial_redundancy():
    # Alice's sums arrive exact, so only blocks can be wrong: every single
    # and every double wrong value among GF(16)'s 4 blocks at s = 4.
    t0 = time.monotonic()
    f16 = field(4)
    rng = random.Random(808)
    blocks = [rng.randrange(16) for _ in range(4)]
    sums = _sums(f16, blocks, 4)
    small_wrong = 0
    single_cases = double_cases = 0
    for count in (1, 2):
        for positions in itertools.combinations(range(4), count):
            for errors in itertools.product(range(1, 16), repeat=count):
                corrupted = list(blocks)
                for pos, error in zip(positions, errors):
                    corrupted[pos] ^= error
                single_cases += count == 1
                double_cases += count == 2
                if _correct(f16, corrupted, sums) != blocks:
                    small_wrong += 1
    f256 = field(8)
    big_wrong = 0
    for _ in range(1000):
        bl = [rng.randrange(256) for _ in range(32)]
        ex = _sums(f256, bl, 16)
        received = list(bl)
        for pos in rng.sample(range(32), rng.randint(0, 7)):
            received[pos] ^= rng.randrange(1, 256)
        if _correct(f256, received, ex) != bl:
            big_wrong += 1
    elapsed = time.monotonic() - t0
    ok = (
        small_wrong == 0
        and (single_cases, double_cases) == (60, 1350)
        and big_wrong == 0
        and elapsed < 60
    )
    _report(
        8,
        "block redundancy: GF(16) m=4,s=4 exhaustive; GF(256) m=32,s=16 sampled",
        ok,
        f"{single_cases} single- and {double_cases} double-error cases, {small_wrong} misses; "
        f"1000 runs with <=7 bad blocks, {big_wrong} misses, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_09_composite_protocol():
    t0 = time.monotonic()
    n = 2048
    params = ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6)
    bounds = Bounds(Fraction(1, 20), n)
    root = random.Random(909)
    successes = 0
    max_total = 0
    below_n = True
    entropy_ref = binary_entropy(float(2 * bounds.alpha)) * n + 0.1 * n
    over_ref = 0
    for _ in range(100):
        y = Word(root.getrandbits(n), n)
        x = random_word_within(y, bounds.radius, root)
        out = composite_prob_sync(
            SyncInstance(x, y, bounds), params, random.Random(root.getrandbits(64))
        )
        total = out.transcript.total_bits
        max_total = max(max_total, total)
        if total >= n:
            below_n = False
        if total >= entropy_ref:
            over_ref += 1
        if not out.reported_failure and out.recovered == x:
            successes += 1
    elapsed = time.monotonic() - t0
    ok = successes >= 90 and below_n and elapsed < 600
    _report(
        9,
        "composite sync at n=2048, alpha=1/20, k=11, s=64",
        ok,
        f"{successes}/100 exact, max_bits={max_total} < {n}, "
        f"entropy reference {entropy_ref:.1f} bits exceeded in {over_ref}/100 runs "
        f"(recorded, not asserted), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_one_round_detection():
    t0 = time.monotonic()
    rng = random.Random(1010)
    code = random_linear_code(14, 5, rng)
    bounds = Bounds(Fraction(3, 14), 14)
    trials = 2000
    undetected = detected = 0
    for _ in range(trials):
        y = Word(rng.getrandbits(14), 14)
        x = random_word_within(y, 3, rng)
        out = one_round_prob_sync(code, 3, SyncInstance(x, y, bounds), 16, rng)
        if out.reported_failure:
            detected += 1
        elif out.recovered != x:
            undetected += 1
    elapsed = time.monotonic() - t0
    rate = detected / trials
    ok = undetected == 0 and rate <= 1 / 16 + 0.03 and elapsed < 120
    _report(
        10,
        "one-round hashed sync at n=14, pool factor 16",
        ok,
        f"{trials} runs, {undetected} undetected errors, detected rate "
        f"{rate:.4f} <= {1 / 16 + 0.03:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_companion_detects_collisions():
    # Criterion 10's pool is so large that no run collides, so its detection
    # path goes untested.  A pool factor of 2 with room for a list of 2 makes
    # collisions common; each must still be reported, never a wrong word.
    rng = random.Random(1010)
    code = random_linear_code(14, 5, rng)
    bounds = Bounds(Fraction(3, 14), 14)
    undetected = detected = 0
    for _ in range(2000):
        y = Word(rng.getrandbits(14), 14)
        x = y.flip(rng.sample(range(14), 3))
        out = one_round_prob_sync(code, 3, SyncInstance(x, y, bounds), 2, rng, list_cap=2)
        if out.reported_failure:
            detected += 1
            assert out.diagnostics["hash_collision"]
        elif out.recovered != x:
            undetected += 1
    assert detected > 0
    assert undetected == 0


def dangerous_blocks(xp: Word, yp: Word, perm: AffinePermutation, k: int, threshold_frac) -> int:
    """Number of blocks where the permuted words differ in at least
    threshold_frac * k positions.  Pad positions are zero on both sides, so
    they never contribute."""
    assert xp.n == yp.n
    thr = Fraction(threshold_frac) * k
    diff = apply_permutation(perm, Word(xp.value ^ yp.value, xp.n))
    mask = (1 << k) - 1
    blocks = ((diff.value >> i) & mask for i in range(0, diff.n, k))
    return sum(1 for blk in blocks if blk.bit_count() >= thr)


def test_dangerous_blocks_trivial_cases():
    p = 13
    perm = AffinePermutation(p, 3, 7)
    w = Word(0b1010101010101, p)
    assert dangerous_blocks(w, w, perm, 4, Fraction(1, 4)) == 0
    m = -(-p // 4)
    assert dangerous_blocks(w, w, perm, 4, 0) == m  # zero threshold counts all


def test_dangerous_block_tail_bound_where_it_is_confident():
    # With these parameters the analytic tail bound n/(s k^2 delta^2) is
    # below 1, so the sampled frequency must respect it.  Here it is zero
    # outright: s/2 dangerous blocks would need more differing positions
    # than the pair has.
    n, k, s = 1024, 32, 64
    alpha, delta = Fraction(1, 10), Fraction(3, 20)
    p = next_prime_at_least(n)
    d = int(alpha * n)
    bound = n / (s * k * k * float(delta) ** 2)
    assert bound < 1
    rng = random.Random(70)
    y = Word(rng.getrandbits(n), n)
    x = y.flip(rng.sample(range(n), d))
    xp, yp = Word(x.value, p), Word(y.value, p)
    trials = 200
    hits = 0
    for _ in range(trials):
        perm = sample_permutation(p, rng)
        count = dangerous_blocks(xp, yp, perm, k, alpha + delta)
        assert count <= -(-p // k)
        if count >= s // 2:
            hits += 1
    se = math.sqrt(bound * (1 - bound) / trials)
    assert hits / trials <= bound + 3 * se


def test_criterion_11_dangerous_block_tail():
    t0 = time.monotonic()
    # Parameters chosen so the bound is < 1 AND the event is attainable:
    # a dangerous block needs ceil((alpha+delta)*k) = 16 differing bits, so
    # s/2 = 24 dangerous blocks need 384 <= 409 = floor(alpha*n) available.
    n, k, s = 4096, 64, 48
    alpha, delta = Fraction(1, 10), Fraction(3, 20)
    p = next_prime_at_least(n)
    bound = n / (s * k * k * float(delta) ** 2)
    rng = random.Random(1111)
    y = Word(rng.getrandbits(n), n)
    x = y.flip(rng.sample(range(n), int(alpha * n)))
    xp, yp = Word(x.value, p), Word(y.value, p)
    trials = 1000
    hits = 0
    for _ in range(trials):
        perm = sample_permutation(p, rng)
        if dangerous_blocks(xp, yp, perm, k, alpha + delta) >= s // 2:
            hits += 1
    se = math.sqrt(bound * (1 - bound) / trials)
    rate = hits / trials
    elapsed = time.monotonic() - t0
    ok = bound < 1 and rate <= bound + 3 * se and elapsed < 120
    _report(
        11,
        "dangerous-block tail at n=4096, k=64, s=48, delta=3/20",
        ok,
        f"bound {bound:.4f} < 1, empirical {rate:.4f} <= {bound + 3 * se:.4f}, "
        f"{trials} permutations of {int(alpha * n)} differing bits, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_12_transport_equivalence():
    t0 = time.monotonic()
    rng = random.Random(1212)
    ham = hamming_7_4()
    cases = []
    for _ in range(8):
        y = Word(rng.getrandbits(7), 7)
        x = random_word_within(y, 1, rng)
        cases.append(
            (
                lambda x=x: syndrome_alice(ham, x),
                lambda y=y: syndrome_bob(ham, y, 1),
                x,
            )
        )
    code14 = random_linear_code(14, 5, rng)
    for _ in range(8):
        y = Word(rng.getrandbits(14), 14)
        x = random_word_within(y, 3, rng)
        cases.append(
            (
                lambda x=x: listdec_alice(code14, x),
                lambda y=y: listdec_bob(code14, 3, y),
                x,
            )
        )
    pp = ProbParams(k=9, s=32, delta=Fraction(3, 20), inner_dim=5)
    for _ in range(4):
        y = Word(rng.getrandbits(512), 512)
        x = random_word_within(y, 25, rng)
        sa = rng.getrandbits(64)
        cases.append(
            (
                lambda x=x, sa=sa: composite_alice(x, pp, random.Random(sa)),
                lambda y=y: composite_bob(y, pp, 25),
                x,
            )
        )

    loop_outs = [run_protocol(alice(), bob()) for alice, bob, _ in cases]

    listener = TcpListener("127.0.0.1", 0)

    def serve():
        end = listener.accept(timeout=10)
        try:
            for alice, _, _ in cases:
                run_party(alice(), Role.ALICE, end)
        finally:
            end.close()

    thread = threading.Thread(target=serve)
    thread.start()
    end = tcp_connect("127.0.0.1", listener.port)
    tcp_outs = []
    try:
        for _, bob, _ in cases:
            tcp_outs.append(outcome_from_party_run(run_party(bob(), Role.BOB, end)))
    finally:
        end.close()
        thread.join()
        listener.close()

    pairs_equal = all(
        (lo.recovered, lo.transcript.total_bits)
        == (to.recovered, to.transcript.total_bits)
        for lo, to in zip(loop_outs, tcp_outs)
    )
    recovered_ok = all(
        lo.recovered == truth for lo, (_, _, truth) in zip(loop_outs, cases)
    )
    elapsed = time.monotonic() - t0
    ok = pairs_equal and recovered_ok and elapsed < 60
    _report(
        12,
        "loopback and one persistent TCP connection agree on 20 runs",
        ok,
        f"8 syndrome + 8 listdec + 4 composite runs, outcomes and bit counts "
        f"identical: {pairs_equal}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_13_volume_entropy_approximation():
    t0 = time.monotonic()
    n = 2000
    worst = 0.0
    for alpha in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
        r = Bounds(alpha, n).radius
        lv = log2_big(ball_volume(r, n))
        target = binary_entropy(float(alpha)) * n
        worst = max(worst, abs(lv - target) / target)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 5
    _report(
        13,
        "log-volume tracks the entropy line at n=2000",
        ok,
        f"worst relative gap {worst:.4f} <= 0.05 over alpha in {{1/20, 1/10, 1/4}}, "
        f"{elapsed:.2f}s",
    )
    assert ok
