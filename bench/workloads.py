"""The benchmark's workloads: inputs drawn from a seed, one sync per trial
through hamsync's public API, and the outcomes each trial may end in.

Protocol parameters are written out here, equal to the defaults of
``hamsync.harness.PROTOCOLS`` when this benchmark was defined, instead of
being read from that registry: a later change to the registry cannot
silently change what a workload measures.

Every call into hamsync goes through a module attribute
(``hamsync.brute_sync``, ``syncdet.listdec_alice``), never through a name
imported into this module, so the wrappers the traced run installs on those
attributes see every call.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter, process_time
from typing import Any, Callable, Optional

import hamsync
from hamsync import hashing, syncdet, transport
from hamsync.bitword import Bounds, Word, lower_bound_bits, pack_fields
from hamsync.errors import ProtocolExecutionError, TransportError

EXACT = "exact"
REPORTED = "reported_failure"
SILENT = "silent_error"
RAISED = "raised_error"
OUTCOMES = (EXACT, REPORTED, SILENT, RAISED)

DETERMINISTIC = frozenset({EXACT})
# problist checks that its prime separates Bob's list, so it may report
# failure but never returns a wrong word under the promise.
DETECTING = frozenset({EXACT, REPORTED})
# The composite protocol can return a wrong word without a failure report
# once more than floor(s/2) blocks are wrong (ROADMAP item 2).  Such trials
# are counted by the silent-error metric, not treated as a benchmark error.
COMPOSITE = frozenset({EXACT, REPORTED, SILENT})

POOL_SIZE = 64  # inputs drawn per protocol in set-up, used in turn
# Random codes per list-decoding protocol.  Bits and list sizes depend on the
# code, so a run averages over several instead of resting on one draw.
CODES = 8


@dataclass(frozen=True)
class Case:
    """One generated input.  ``call`` takes the trial's Random and returns a
    ProtocolOutcome (loopback) or an ``(alice, bob)`` party pair (TCP)."""

    truth: Word
    call: Callable[[Random], Any]


@dataclass
class Slot:
    """One protocol inside a workload, with its generated inputs."""

    protocol: str
    make_case: Callable[[Random], Case]
    allowed: frozenset
    lower_bound: float
    expected_bits: Optional[int] = None
    expected_stages: Optional[dict[str, int]] = None
    pool: tuple[Case, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tcp: bool
    slots: Callable[[Random], list[Slot]]  # set-up Random -> slots
    oracle: Optional[tuple[str, float]] = None  # harness protocol, mean_bits


def _promise_pair(rng: Random, bounds: Bounds) -> "hamsync.SyncInstance":
    """y uniform, x equal to y with exactly floor(alpha*n) distinct flips."""
    y = Word(rng.getrandbits(bounds.n), bounds.n)
    x = y.flip(rng.sample(range(bounds.n), bounds.radius))
    return hamsync.SyncInstance(x, y, bounds)


def _distinct_words(rng: Random, n: int, k: int) -> list[Word]:
    values: list[int] = []
    while len(values) < k:
        v = rng.getrandbits(n)
        if v not in values:
            values.append(v)
    return [Word(v, n) for v in values]


def _bound(n: int, alpha: Fraction) -> tuple[Bounds, float]:
    return Bounds(alpha, n), lower_bound_bits(alpha, n)


# ---------------------------------------------------------------------------
# promise protocols over the loopback


def _smith(n, alpha, params, expected_bits, expected_stages=None) -> Slot:
    bounds, lb = _bound(n, alpha)

    def make(rng: Random) -> Case:
        inst = _promise_pair(rng, bounds)
        return Case(inst.x, lambda r: hamsync.composite_prob_sync(inst, params, r))

    return Slot("smith", make, COMPOSITE, lb, expected_bits, expected_stages)


def _brute() -> Slot:
    bounds, lb = _bound(4, Fraction(1, 4))
    code = hamsync.hamming_7_4()

    def make(rng: Random) -> Case:
        inst = _promise_pair(rng, bounds)
        return Case(inst.x, lambda r: hamsync.brute_sync(code, inst))

    return Slot("brute", make, DETERMINISTIC, lb, 3)


def _syndrome() -> Slot:
    bounds, lb = _bound(7, Fraction(1, 7))
    code = hamsync.hamming_7_4()

    def make(rng: Random) -> Case:
        inst = _promise_pair(rng, bounds)
        return Case(inst.x, lambda r: hamsync.syndrome_sync(code, inst))

    return Slot("syndrome", make, DETERMINISTIC, lb, 3)


def _codes(rng: Random) -> list:
    return [hamsync.random_linear_code(14, 5, rng) for _ in range(CODES)]


def _listdec(rng: Random, tcp: bool = False) -> Slot:
    bounds, lb = _bound(14, Fraction(3, 14))
    codes = _codes(rng)

    def make(rng: Random) -> Case:
        code = rng.choice(codes)
        inst = _promise_pair(rng, bounds)
        if tcp:
            return Case(
                inst.x,
                lambda r: (
                    syncdet.listdec_alice(code, inst.x),
                    syncdet.listdec_bob(code, bounds.radius, inst.y),
                ),
            )
        return Case(inst.x, lambda r: hamsync.listdec_sync(code, bounds.radius, inst))

    return Slot("listdec", make, DETERMINISTIC, lb)  # bits follow the list size


def _coloring() -> Slot:
    bounds, lb = _bound(10, Fraction(1, 10))

    def make(rng: Random) -> Case:
        inst = _promise_pair(rng, bounds)
        return Case(inst.x, lambda r: hamsync.coloring_oracle_sync(inst))

    return Slot("coloring", make, DETERMINISTIC, lb, 4)


def _problist(rng: Random) -> Slot:
    bounds, lb = _bound(14, Fraction(3, 14))
    codes = _codes(rng)

    def make(rng: Random) -> Case:
        code = rng.choice(codes)
        inst = _promise_pair(rng, bounds)
        return Case(
            inst.x,
            lambda r: hamsync.one_round_prob_sync(code, bounds.radius, inst, 16, r, list_cap=16),
        )

    return Slot("problist", make, DETECTING, lb, 49)


# ---------------------------------------------------------------------------
# identification protocols: Bob holds k distinct uniform words.  With
# tcp=True a case yields the two party generators instead of one sync call.


def _nba(tcp: bool = False) -> Slot:
    n, k = 16, 4

    def make(rng: Random) -> Case:
        words = _distinct_words(rng, n, k)
        x = rng.choice(words)
        if tcp:
            return Case(x, lambda r: (hashing.nba_alice(x), hashing.nba_bob(words, n)))
        return Case(x, lambda r: hamsync.nba_protocol(x, words, n))

    return Slot("nba", make, DETERMINISTIC, 0.0, 18)


def _multinba(tcp: bool = False) -> Slot:
    n, k, l = 256, 8, 4

    def make(rng: Random) -> Case:
        words = _distinct_words(rng, n, k)
        xs = rng.sample(words, l)
        truth = pack_fields([(w.value, n) for w in xs])
        if tcp:
            return Case(
                truth,
                lambda r: (hashing.multi_nba_alice(xs, k), hashing.multi_nba_bob(words, n, l, r)),
            )
        return Case(truth, lambda r: hamsync.multi_nba_protocol(xs, words, n, r))

    return Slot("multinba", make, DETERMINISTIC, 0.0, 58)


SMITH_DEFAULTS = hamsync.ProbParams(k=11, s=64, delta=Fraction(3, 20), inner_dim=6)
SMITH_STRESS = hamsync.ProbParams(k=9, s=2, delta=Fraction(1, 10), inner_dim=5)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "smith-2048",
            "Composite protocol at its defaults (n=2048, s=64): the RS layer in gf2k_rs does"
            " ~87% of the work, so an RS rewrite shows here.",
            False,
            lambda rng: [
                _smith(
                    2048,
                    Fraction(1, 20),
                    SMITH_DEFAULTS,
                    1718,
                    {"stage1_bits": 24, "matrix_bits": 55, "syndrome_bits": 935, "rs_bits": 704},
                )
            ],
            oracle=("smith", 1718.0),
        ),
        Workload(
            "smith-stress",
            "Composite protocol at n=512, s=2: RS is light, inner-code sampling is heavy, and it"
            " is the only workload with reported failures and silent wrong words.",
            False,
            lambda rng: [_smith(512, Fraction(1, 32), SMITH_STRESS, 306)],
        ),
        Workload(
            "desk-loopback",
            "Seven small protocols round-robin over the queue loopback: about half of each"
            " 100-200 us trial is the run_protocol driver, and gf2k_rs does no work.",
            False,
            lambda rng: [
                _brute(),
                _syndrome(),
                _listdec(rng),
                _coloring(),
                _nba(),
                _multinba(),
                _problist(rng),
            ],
        ),
        Workload(
            "tcp-interactive",
            "listdec, nba and multinba as party generators over one framed TCP connection,"
            " where every round waits on the wire; listdec stalls ~44 ms today.",
            True,
            lambda rng: [_listdec(rng, tcp=True), _nba(tcp=True), _multinba(tcp=True)],
        ),
    )
}


def build_slots(workload: Workload, seed: int, worker: int) -> list[Slot]:
    """Sample each worker's codes and draw its inputs from the seed."""
    rng = Random(f"{workload.name}/{seed}/{worker}/inputs")
    slots = workload.slots(rng)
    for slot in slots:
        slot.pool = tuple(slot.make_case(rng) for _ in range(POOL_SIZE))
    return slots


def classify(outcome: Optional["hamsync.ProtocolOutcome"], truth: Word) -> str:
    if outcome is None:
        return RAISED
    if outcome.recovered is None:
        return REPORTED
    return EXACT if outcome.recovered == truth else SILENT


# ---------------------------------------------------------------------------
# drivers: one call per trial, timing only the sync itself


class LoopbackDriver:
    broken = False
    alice_errors: tuple = ()

    def run(self, case: Case, rng: Random):
        """(wall seconds, process CPU seconds, outcome or None, error text or None)."""
        cpu, start = process_time(), perf_counter()
        try:
            outcome, error = case.call(rng), None
        except (ProtocolExecutionError, TransportError) as exc:
            outcome, error = None, repr(exc)
        return perf_counter() - start, process_time() - cpu, outcome, error

    def close(self) -> None:
        pass


class TcpDriver:
    """One TCP connection on 127.0.0.1.  Alice's parties run in a second
    thread; Bob's run in the caller's thread, and a trial's time is Bob's
    ``run_party`` call."""

    def __init__(self) -> None:
        listener = transport.TcpListener("127.0.0.1", 0)
        try:
            self._bob_end = transport.tcp_connect("127.0.0.1", listener.port)
            self._alice_end = listener.accept(timeout=10)
        finally:
            listener.close()
        self._jobs: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self.alice_errors: list[str] = []
        self.broken = False
        self._thread = threading.Thread(target=self._alice_loop, name="alice", daemon=True)
        self._thread.start()

    def _alice_loop(self) -> None:
        while (party := self._jobs.get()) is not None:
            try:
                transport.run_party(party, transport.Role.ALICE, self._alice_end)
            except (ProtocolExecutionError, TransportError) as exc:
                # Closing our end makes Bob's pending receive fail fast.
                self.alice_errors.append(repr(exc))
                self._alice_end.close()
                return

    def run(self, case: Case, rng: Random):
        alice, bob = case.call(rng)
        self._jobs.put(alice)
        # Process CPU time counts Alice's thread too.
        cpu, start = process_time(), perf_counter()
        try:
            run = transport.run_party(bob, transport.Role.BOB, self._bob_end)
        except (ProtocolExecutionError, TransportError) as exc:
            # The stream may be out of step with Alice now; stop using it.
            self.broken = True
            return perf_counter() - start, process_time() - cpu, None, repr(exc)
        elapsed, cpu = perf_counter() - start, process_time() - cpu
        return elapsed, cpu, transport.outcome_from_party_run(run), None

    def close(self) -> None:
        self._jobs.put(None)
        self._bob_end.close()
        self._thread.join(timeout=10)
        self._alice_end.close()
        if self._thread.is_alive():
            raise RuntimeError("the Alice thread did not stop")


def open_driver(workload: Workload):
    return TcpDriver() if workload.tcp else LoopbackDriver()
