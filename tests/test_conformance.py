"""Conformance properties.  (a): every protocol refuses parameters outside
its limits before a party takes a step.  (b): on pairs that keep the
promise, every protocol but problist and smith recovers x exactly, and
problist recovers x or reports failure.  (c): the transcript's bit count
equals the closed form the protocol's docstring states, for all nine.  (d):
run_party over a socketpair TcpEnd gives what run_protocol gives, for smith
on drawn parameters and for the other eight on their harness cases.

For each of the nine protocols, n, alpha and the protocol's parameters are
drawn inside their limits, or with one of them pushed to an edge: the last
value inside a limit or the first outside it.  Each protocol runs once with
every value inside and once per parameter it pushes.  A two-trial
run_experiment must then either complete or raise ContractError or
CapabilityError with no party stepped.  Anything else, a ProtocolExecutionError from inside a party,
a RetryLimitError or a MemoryError included, fails the test.
"""

from __future__ import annotations

import socket
import threading
from fractions import Fraction
from functools import partial
from itertools import compress
from math import isqrt
from random import Random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamsync import harness, transport
from hamsync.bitword import MAX_WORD_BITS, Bounds, Word, random_word_within
from hamsync.errors import CapabilityError, ContractError
from hamsync.gf2codes import LEADER_MAX_N, hamming_7_4, random_linear_code
from hamsync.harness import PROTOCOLS, ExperimentConfig, _distinct_words, run_experiment
from hamsync.hashing import _PRIME_POOL_BUDGET, multi_nba_protocol, nba_protocol
from hamsync.probproto import (
    _RS_LANE_BUDGET,
    ProbParams,
    composite_parties,
    composite_prob_sync,
    next_prime_at_least,
    one_round_prob_sync,
)
from hamsync.syncdet import (
    SyncInstance,
    brute_sync,
    build_greedy_coloring,
    coloring_oracle_sync,
    listdec_sync,
    syndrome_sync,
)
from hamsync.transport import Role, TcpEnd, outcome_from_party_run, run_party, run_protocol

HALF = Fraction(1, 2)
STEP = Fraction(1, 64)  # how far below 0 the low alpha edge lies


def _value(draw, pushed, name, inside, edges):
    """name's value: drawn from inside, or from its edges when name is the
    pushed parameter."""
    return draw(st.sampled_from(edges) if pushed == name else inside)


@st.composite
def _alpha(draw, n, hi=HALF):
    """alpha in [0, hi] in fractions of denominator at most 64, drawn so
    that floor(alpha n) is mostly at least 1: from the least 64th with
    radius 1 up to hi, or 0 when a drawn integer in [0, 7] is 7 (or no 64th
    up to hi reaches radius 1).  Hypothesis favours a range's lowest value
    (about a third of these draws), so radius 0 is the top value of its own
    integer draw rather than the lowest alpha."""
    radius_one = Fraction(-(-64 // max(n, 1)), 64)
    if radius_one > hi or draw(st.integers(0, 7)) == 7:
        return Fraction(0)
    return draw(st.fractions(radius_one, hi, max_denominator=64))


def _rate(draw, pushed, n, hi=HALF, past=HALF + STEP):
    """alpha drawn by _alpha, or when pushed one of -STEP, 0, hi and past,
    the first value outside at the top."""
    return _value(draw, pushed, "alpha", _alpha(n, hi), [-STEP, Fraction(0), hi, past])


@st.composite
def _naive(draw, pushed):
    n = _value(draw, pushed, "n", st.integers(1, 40), [0, 1, MAX_WORD_BITS + 1])
    return n, _rate(draw, pushed, n), {}


@st.composite
def _hamming_7_4(draw, pushed, n_inside):
    """brute and syndrome: n fixed by the code, radius at most 1."""
    n = _value(draw, pushed, "n", st.just(n_inside), [n_inside - 1, n_inside + 1])
    # the largest alpha in 64ths with radius 1, and the first with radius 2
    hi = Fraction((2 * 64 - 1) // n_inside, 64)
    return n, _rate(draw, pushed, n, hi, Fraction(2, n_inside)), {}


@st.composite
def _list_decoding(draw, pushed, problist):
    # Past 12 the runs get slow; at 25 a ball inside the walk budget runs
    # and one over it is refused.
    n = _value(draw, pushed, "n", st.integers(2, 12), [1, 25])
    alpha = _rate(draw, pushed, n)
    r = int(alpha * n) if 0 <= alpha <= HALF else 0
    params = {
        "code_k": _value(draw, pushed, "code_k", st.integers(1, max(1, n - 1)), [0, 1, n - 1, n]),
        "radius": _value(
            draw, pushed, "radius", st.none() | st.integers(r, n), [r - 1, r, n, n + 1]
        ),
    }
    if problist:
        list_cap = _value(draw, pushed, "list_cap", st.integers(1, 8), [0, 1])
        # A pool just inside the budget keeps about 10 MB and takes about
        # 0.2 s to build, too long to pay per example; the first oversample
        # over it is cheap to refuse.
        over_budget = _PRIME_POOL_BUDGET // (n * max(1, list_cap) ** 2) + 1
        params["oversample"] = _value(
            draw, pushed, "oversample", st.integers(2, 20), [1, 2, max(2, over_budget)]
        )
        params["list_cap"] = list_cap
    return n, alpha, params


@st.composite
def _coloring(draw, pushed):
    if pushed == "n":
        # The walk budget's edge at r = 3: n = 24 walks Vol(5, 24) = 55,455
        # words and runs, n = 25 walks 68,406 and is refused.
        n = draw(st.sampled_from([24, 25]))
        return n, Fraction(3, n), {}
    n = draw(st.integers(1, 10))
    return n, _rate(draw, pushed, n), {}


@st.composite
def _identification(draw, pushed, multi):
    n = _value(draw, pushed, "n", st.integers(1, 64), [0, 1])
    most = min(1 << n, 16 if multi else 40) if n >= 1 else 1
    k = _value(draw, pushed, "k", st.integers(1, most), [0, 1, (1 << min(n, 5)) + 1])
    params = {"k": k}
    if multi:
        params["l"] = _value(draw, pushed, "l", st.integers(1, max(1, k)), [0, k, k + 1])
    return n, _rate(draw, pushed, n), params


@st.composite
def _smith(draw, pushed):
    k = _value(draw, pushed, "k", st.integers(3, LEADER_MAX_N), [2, LEADER_MAX_N, LEADER_MAX_N + 1])
    # Most n inside leave room in GF(2^k) for m = ceil(p / k) blocks plus 2 extras.
    n = _value(draw, pushed, "n", st.integers(2, max(2, min(600, k * (2**k - 3) // 2))), [1, 2])
    alpha = _rate(draw, pushed, n, Fraction(3, 8), HALF)  # no delta is left at 1/2
    most_dim = k - k.bit_length()  # distance 3 needs 2^(k - inner_dim) > k
    inner_dim = _value(
        draw, pushed, "inner_dim", st.integers(1, max(1, most_dim)), [0, most_dim, most_dim + 1]
    )
    m = -(-next_prime_at_least(max(n, 2)) // k)
    spare = 2**k - m  # field elements after the m blocks
    budget_s = (isqrt(m * m + 4 * _RS_LANE_BUDGET) - m) // 2  # the last s with (m + s) s inside
    s_edges = [1, 2, spare - 1, spare, budget_s, budget_s + 1]
    s = _value(draw, pushed, "s", st.integers(2, max(2, min(70, spare - 1))), s_edges)
    hi = HALF - max(alpha, Fraction(0))
    delta = _value(
        draw, pushed, "delta", st.integers(1, 39).map(lambda i: hi * i / 40), [Fraction(0), hi]
    )
    return n, alpha, {"k": k, "s": s, "delta": delta, "inner_dim": inner_dim}


_LIST = ("n", "alpha", "code_k", "radius")
# Per protocol: the strategy for (n, alpha, params) given the pushed
# parameter, and the parameters it can push.
LIMITS = {
    "naive": (_naive, ("n", "alpha")),
    "brute": (partial(_hamming_7_4, n_inside=4), ("n", "alpha")),
    "syndrome": (partial(_hamming_7_4, n_inside=7), ("n", "alpha")),
    "listdec": (partial(_list_decoding, problist=False), _LIST),
    "problist": (partial(_list_decoding, problist=True), _LIST + ("oversample", "list_cap")),
    "coloring": (_coloring, ("n", "alpha")),
    "nba": (partial(_identification, multi=False), ("n", "alpha", "k")),
    "multinba": (partial(_identification, multi=True), ("n", "alpha", "k", "l")),
    "smith": (_smith, ("n", "alpha", "k", "inner_dim", "s", "delta")),
}


def test_every_protocol_has_its_limits_drawn():
    assert sorted(LIMITS) == sorted(PROTOCOLS)


@pytest.mark.parametrize(
    "protocol, pushed",
    [(protocol, pushed) for protocol, (_, names) in LIMITS.items() for pushed in (None, *names)],
)
@given(data=st.data())
def test_limits_are_refused_before_a_party_steps(protocol, pushed, data):
    n, alpha, params = data.draw(LIMITS[protocol][0](pushed))
    seed = data.draw(st.integers(0, 1 << 16))
    cfg = ExperimentConfig(protocol=protocol, n=n, alpha=alpha, trials=2, seed=seed, params=params)
    steps = []
    advance = transport._PartyState.advance

    def counted(state, received):
        steps.append(state.role)
        advance(state, received)

    with mock.patch.object(transport._PartyState, "advance", counted):
        try:
            rows = run_experiment(cfg)
        except (ContractError, CapabilityError) as refused:
            assert steps == []
            # Checks that run once per shape keep no exception: a refused
            # shape is refused again, the same way.
            with pytest.raises((ContractError, CapabilityError)) as again:
                run_experiment(cfg)
            assert type(again.value) is type(refused)
            assert steps == []
        else:
            assert rows[0].trials == 2


@st.composite
def _smith_run(draw):
    """(instance, params, seed) inside composite_parties' limits: distance 3
    needs 2^(k - inner_dim) > k, and m + s < 2^k; at these sizes (m + s) s
    stays far inside the RS budget.  x is y with n // 10 flips."""
    k = draw(st.integers(3, LEADER_MAX_N))
    inner_dim = draw(st.integers(1, k - k.bit_length()))
    n = draw(st.integers(2, min(600, k * (2**k - 3) // 2)))
    m = -(-next_prime_at_least(n) // k)
    s = draw(st.integers(2, min(70, 2**k - 1 - m)))
    rng = Random(draw(st.integers(0, 1 << 16)))
    y = Word(rng.getrandbits(n), n)
    x = y.flip(rng.sample(range(n), n // 10))
    instance = SyncInstance(x, y, Bounds(Fraction(1, 10), n))
    return instance, ProbParams(k, s, Fraction(1, 4), inner_dim), rng.getrandbits(32)


# Protocols that never guess: with the promise kept they recover x exactly.
# problist may also report a hash collision; smith waits for its
# silent-error fix.
_NEVER_GUESS = ("naive", "brute", "syndrome", "listdec", "coloring", "nba", "multinba")


@pytest.mark.parametrize("protocol", [*_NEVER_GUESS, "problist"])
@given(data=st.data())
def test_promise_pairs_end_in_recovery_or_a_reported_failure(protocol, data):
    # (b): n, alpha and the parameters inside the limits, and pairs at
    # distance exactly floor(alpha n) or at a drawn distance below it.  nba
    # and multinba have no distance: Alice's words are in Bob's set.
    n, alpha, params = data.draw(LIMITS[protocol][0](None))
    radius = Bounds(alpha, n).radius
    distance = data.draw(st.just(radius) | st.integers(0, radius))

    def at_distance(y, r, rng):
        assert r == radius
        return y.flip(rng.sample(range(y.n), distance))

    seed = data.draw(st.integers(0, 1 << 16))
    with mock.patch.object(harness, "random_word_within", at_distance):
        cases = _harness_cases(protocol, n, alpha, 8, seed, params)
    for case in cases:
        out = run_protocol(case.alice, case.bob)
        if protocol in _NEVER_GUESS:
            assert out.recovered == case.truth
        else:
            assert out.recovered in (case.truth, None)


@given(run=_smith_run())
def test_smith_sends_its_closed_form_bit_count(run):
    instance, params, seed = run
    k, p = params.k, next_prime_at_least(instance.n)
    m = -(-p // k)
    out = composite_prob_sync(instance, params, Random(seed))
    bits = 2 * (p - 1).bit_length() + (k - params.inner_dim) * (k + m) + params.s * k
    assert out.transcript.total_bits == bits


def _pair(draw, n, alpha):
    """An instance of length n whose x is within the promise radius of y."""
    bounds = Bounds(alpha, n)
    rng = Random(draw(st.integers(0, 1 << 16)))
    y = Word(rng.getrandbits(n), n)
    return SyncInstance(random_word_within(y, bounds.radius, rng), y, bounds)


@given(data=st.data())
def test_brute_sends_its_check_bits(data):
    # The file is the [7, 4] code's message block; radius at most 1.
    code = hamming_7_4()
    alpha = data.draw(st.sampled_from([Fraction(0), Fraction(1, 4)]))
    out = brute_sync(code, _pair(data.draw, code.k, alpha))
    assert out.transcript.total_bits == code.n - code.k == 3


@given(data=st.data())
def test_syndrome_sends_its_syndrome_bits(data):
    code = hamming_7_4()
    alpha = data.draw(st.sampled_from([Fraction(0), Fraction(1, 7)]))
    out = syndrome_sync(code, _pair(data.draw, code.n, alpha))
    assert out.transcript.total_bits == code.n - code.k == 3


@given(data=st.data())
def test_coloring_sends_the_bits_of_its_color_count(data):
    n = data.draw(st.integers(1, 9))
    instance = _pair(data.draw, n, data.draw(_alpha(n)))
    bits = max(build_greedy_coloring(n, 2 * instance.bounds.radius)).bit_length()
    out = coloring_oracle_sync(instance)
    assert out.transcript.total_bits == bits
    assert out.diagnostics["n_colors"] == 2**bits


def _harness_cases(protocol, n, alpha, trials, seed, params=None):
    """The harness's trial cases for protocol at these parameters over its
    defaults."""
    spec = PROTOCOLS[protocol]
    cfg = ExperimentConfig(protocol=protocol, n=n, alpha=alpha, trials=trials, seed=seed)
    params = {**spec.default_params, **(params or {})}
    return list(spec.build(cfg, Bounds(alpha, n), params, Random(seed)))


@given(data=st.data())
def test_naive_sends_its_word(data):
    n = data.draw(st.integers(1, 64))
    alpha = data.draw(st.fractions(0, HALF, max_denominator=64))
    for case in _harness_cases("naive", n, alpha, 4, data.draw(st.integers(0, 1 << 16))):
        out = run_protocol(case.alice, case.bob)
        assert out.recovered == case.truth
        assert out.transcript.total_bits == n


@given(data=st.data())
def test_listdec_sends_its_syndrome_and_two_fields_of_its_list_width(data):
    n = data.draw(st.integers(2, 12))
    code_k = data.draw(st.integers(1, n - 1))
    instance = _pair(data.draw, n, data.draw(_alpha(n)))
    radius = data.draw(st.integers(instance.bounds.radius, n))
    code = random_linear_code(n, code_k, Random(data.draw(st.integers(0, 1 << 16))))
    out = listdec_sync(code, radius, instance)
    size = out.diagnostics["list_size"]
    assert size >= 1
    assert out.transcript.total_bits == (n - code_k) + 2 * _nba_width(n, size)


def _nba_width(n, k):
    return max(2, k * k * n).bit_length()


@given(data=st.data())
def test_nba_sends_two_fields_of_its_prime_width(data):
    n = data.draw(st.integers(1, 64))
    k = data.draw(st.integers(1, min(1 << n, 40)))
    rng = Random(data.draw(st.integers(0, 1 << 16)))
    words = _distinct_words(rng, n, k)
    out = nba_protocol(rng.choice(words), words, n)
    assert out.transcript.total_bits == 2 * _nba_width(n, k)


@given(data=st.data())
def test_multinba_sends_its_primes_and_one_fingerprint_per_word(data):
    n = data.draw(st.integers(1, 64))
    k = data.draw(st.integers(1, min(1 << n, 16)))
    l = data.draw(st.integers(1, k))
    rng = Random(data.draw(st.integers(0, 1 << 16)))
    words = _distinct_words(rng, n, k)
    out = multi_nba_protocol(rng.sample(words, l), words, n, rng)
    assert out.transcript.total_bits == 2 * _nba_width(n, k) + l * (2 * k * k - 1).bit_length()


def _nth_prime(j):
    """The j-th prime, from sieves of doubling size."""
    limit = 64
    while True:
        flags = bytearray([1]) * limit
        flags[:2] = b"\x00\x00"
        for i in range(2, isqrt(limit - 1) + 1):
            if flags[i]:
                flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
        primes = list(compress(range(limit), flags))
        if len(primes) >= j:
            return primes[j - 1]
        limit *= 2


@given(data=st.data())
def test_problist_sends_its_syndrome_and_two_pool_widths(data):
    n = data.draw(st.integers(2, 12))
    code_k = data.draw(st.integers(1, n - 1))
    instance = _pair(data.draw, n, data.draw(_alpha(n)))
    radius = data.draw(st.integers(instance.bounds.radius, n))
    list_cap = data.draw(st.integers(1, 8))
    oversample = data.draw(st.integers(2, 20))
    rng = Random(data.draw(st.integers(0, 1 << 16)))
    code = random_linear_code(n, code_k, rng)
    out = one_round_prob_sync(code, radius, instance, oversample, rng, list_cap=list_cap)
    width = _nth_prime(oversample * n * list_cap**2).bit_length()
    assert out.transcript.total_bits == (n - code_k) + 2 * width


def test_closed_forms_at_the_benchmark_parameters():
    # The formulas above at the parameters bench/workloads.py pins.
    code = hamming_7_4()
    assert code.n - code.k == 3  # brute at n = 4 and syndrome at n = 7
    assert max(build_greedy_coloring(10, 2)).bit_length() == 4  # n = 10, radius 1: 16 colors
    assert 2 * _nba_width(16, 4) == 18
    assert 2 * _nba_width(256, 8) + 4 * (2 * 8 * 8 - 1).bit_length() == 58
    assert (14 - 5) + 2 * _nth_prime(16 * 14 * 16**2).bit_length() == 49


@given(run=_smith_run())
def test_smith_over_a_socketpair_matches_the_loopback(run):
    # Alice in a second thread and Bob here, each stepping composite_alice
    # or composite_bob, so both threads read smith's per-shape cache.
    instance, params, seed = run
    alice, bob = composite_parties(instance, params, Random(seed))
    a_sock, b_sock = socket.socketpair()
    a_end, b_end = TcpEnd(a_sock), TcpEnd(b_sock)
    alice_runs = []
    thread = threading.Thread(target=lambda: alice_runs.append(run_party(alice, Role.ALICE, a_end)))
    thread.start()
    try:
        tcp = outcome_from_party_run(run_party(bob, Role.BOB, b_end))
    finally:
        thread.join(timeout=60)
        a_end.close()
        b_end.close()
    assert not thread.is_alive()
    loop = composite_prob_sync(instance, params, Random(seed))
    assert tcp.transcript == loop.transcript == alice_runs[0].transcript
    assert tcp.recovered == loop.recovered
    assert tcp.diagnostics == loop.diagnostics


def _over_a_socketpair(cases):
    """Per case, Alice's and Bob's runs with Alice's parties stepped in a
    second thread over one socketpair, in order."""
    a_sock, b_sock = socket.socketpair()
    a_end, b_end = TcpEnd(a_sock), TcpEnd(b_sock)
    alice_runs = []

    def serve():
        for case in cases:
            alice_runs.append(run_party(case.alice, Role.ALICE, a_end))

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        bob_runs = [outcome_from_party_run(run_party(case.bob, Role.BOB, b_end)) for case in cases]
    finally:
        thread.join(timeout=60)
        a_end.close()
        b_end.close()
    assert not thread.is_alive()
    return alice_runs, bob_runs


@pytest.mark.parametrize("protocol", sorted(set(PROTOCOLS) - {"smith"}))
def test_harness_cases_over_a_socketpair_match_the_loopback(protocol):
    # Two builds from one seed give the same cases, not yet started: one
    # runs over the loopback, the other split across a socketpair.
    spec = PROTOCOLS[protocol]
    n, alpha = spec.default_n, spec.default_alpha
    loop = [run_protocol(c.alice, c.bob) for c in _harness_cases(protocol, n, alpha, 12, 909)]
    alice_runs, tcp = _over_a_socketpair(_harness_cases(protocol, n, alpha, 12, 909))
    assert len(loop) == len(tcp) == len(alice_runs) == 12
    for lo, to, alice in zip(loop, tcp, alice_runs):
        assert lo.transcript == to.transcript == alice.transcript
        assert lo.recovered == to.recovered
        assert lo.diagnostics == to.diagnostics
