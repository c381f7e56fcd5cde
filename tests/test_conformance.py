"""Conformance property (a): every protocol refuses parameters outside its
limits before a party takes a step.

For each of the nine protocols, n, alpha and the protocol's parameters are
drawn inside their limits, or with one of them pushed to an edge: the last
value inside a limit or the first outside it.  Each protocol runs once with
every value inside and once per parameter it pushes.  A two-trial
run_experiment must then either complete or raise ContractError or
CapabilityError with no party stepped.  Anything else, a ProtocolExecutionError from inside a party,
a RetryLimitError or a MemoryError included, fails the test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamsync import transport
from hamsync.bitword import MAX_WORD_BITS
from hamsync.errors import CapabilityError, ContractError
from hamsync.harness import PROTOCOLS, ExperimentConfig, run_experiment
from hamsync.hashing import _PRIME_POOL_BUDGET
from hamsync.probproto import _RS_LANE_BUDGET, INNER_MAX_K, next_prime_at_least

HALF = Fraction(1, 2)
STEP = Fraction(1, 64)  # how far below 0 the low alpha edge lies


def _value(draw, pushed, name, inside, edges):
    """name's value: drawn from inside, or from its edges when name is the
    pushed parameter."""
    return draw(st.sampled_from(edges) if pushed == name else inside)


def _rate(draw, pushed, hi=HALF, past=HALF + STEP):
    """alpha drawn from [0, hi], or when pushed one of -STEP, 0, hi and past,
    the first value outside at the top."""
    inside = st.fractions(0, hi, max_denominator=64)
    return _value(draw, pushed, "alpha", inside, [-STEP, Fraction(0), hi, past])


@st.composite
def _naive(draw, pushed):
    n = _value(draw, pushed, "n", st.integers(1, 40), [0, 1, MAX_WORD_BITS + 1])
    return n, _rate(draw, pushed), {}


@st.composite
def _hamming_7_4(draw, pushed, n_inside):
    """brute and syndrome: n fixed by the code, radius at most 1."""
    n = _value(draw, pushed, "n", st.just(n_inside), [n_inside - 1, n_inside + 1])
    # the largest alpha in 64ths with radius 1, and the first with radius 2
    hi = Fraction((2 * 64 - 1) // n_inside, 64)
    return n, _rate(draw, pushed, hi, Fraction(2, n_inside)), {}


@st.composite
def _list_decoding(draw, pushed, problist):
    # Past 12 the runs get slow; 25 is one past the enumeration cap of 24.
    n = _value(draw, pushed, "n", st.integers(2, 12), [1, 25])
    alpha = _rate(draw, pushed)
    r = int(alpha * n) if 0 <= alpha <= HALF else 0
    params = {
        "code_k": _value(draw, pushed, "code_k", st.integers(1, max(1, n - 1)), [0, 1, n - 1, n]),
        "radius": _value(
            draw, pushed, "radius", st.none() | st.integers(r, n), [r - 1, r, n, n + 1]
        ),
    }
    if problist:
        list_cap = _value(draw, pushed, "list_cap", st.integers(1, 8), [0, 1])
        # The pool just inside the budget is a sieve of about 20 MB, too slow
        # to build here; the first oversample over it is cheap to refuse.
        over_budget = _PRIME_POOL_BUDGET // (n * max(1, list_cap) ** 2) + 1
        params["oversample"] = _value(
            draw, pushed, "oversample", st.integers(2, 20), [1, 2, max(2, over_budget)]
        )
        params["list_cap"] = list_cap
    return n, alpha, params


@st.composite
def _coloring(draw, pushed):
    if pushed == "scan":
        # n = 14 is inside the cap, but these radii are over the scan
        # budget; the runs just inside it take far too long for a test.
        return 14, draw(st.fractions(Fraction(1, 4), HALF, max_denominator=28)), {}
    n = _value(draw, pushed, "n", st.integers(1, 10), [15])
    return n, _rate(draw, pushed), {}


@st.composite
def _identification(draw, pushed, multi):
    n = _value(draw, pushed, "n", st.integers(1, 64), [0, 1])
    most = min(1 << n, 16 if multi else 40) if n >= 1 else 1
    k = _value(draw, pushed, "k", st.integers(1, most), [0, 1, (1 << min(n, 5)) + 1])
    params = {"k": k}
    if multi:
        params["l"] = _value(draw, pushed, "l", st.integers(1, max(1, k)), [0, k, k + 1])
    return n, _rate(draw, pushed), params


@st.composite
def _smith(draw, pushed):
    k = _value(draw, pushed, "k", st.integers(3, INNER_MAX_K), [2, INNER_MAX_K, INNER_MAX_K + 1])
    # Most n inside leave room in GF(2^k) for m = ceil(p / k) blocks plus 2 extras.
    n = _value(draw, pushed, "n", st.integers(2, max(2, min(600, k * (2**k - 3) // 2))), [1, 2])
    alpha = _rate(draw, pushed, Fraction(3, 8), HALF)  # no delta is left at 1/2
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
    "coloring": (_coloring, ("n", "alpha", "scan")),
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
        except (ContractError, CapabilityError):
            assert steps == []
        else:
            assert rows[0].trials == 2
