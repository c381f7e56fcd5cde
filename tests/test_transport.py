import socket
import struct
import threading
import time
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamsync import transport
from hamsync.bitword import MAX_WORD_BITS, Bounds, Word, pack_fields, random_word_within
from hamsync.errors import ContractError, ProtocolExecutionError, TransportError
from hamsync.gf2codes import random_linear_code
from hamsync.harness import PROTOCOLS, ExperimentConfig
from hamsync.hashing import _nba_width, multi_nba_alice, nba_alice
from hamsync.probproto import ProbParams, composite_parties
from hamsync.syncdet import SyncInstance, listdec_parties
from hamsync.transport import (
    RECV,
    ProtocolOutcome,
    Role,
    TcpEnd,
    TcpListener,
    Transcript,
    host_port,
    outcome_from_party_run,
    run_party,
    run_protocol,
    tcp_connect,
)


def _socketpair_ends() -> tuple[TcpEnd, TcpEnd]:
    a_sock, b_sock = socket.socketpair()
    return TcpEnd(a_sock), TcpEnd(b_sock)


def _run_over_tcp(alice, bob):
    """run_protocol's result from run_party over a socketpair, Alice in a
    second thread.  A party's own error is raised in preference to the
    TransportError its peer sees once the failed party's end closes."""
    a_end, b_end = _socketpair_ends()
    alice_errors = []

    def serve():
        try:
            run_party(alice, Role.ALICE, a_end)
        except (ProtocolExecutionError, TransportError) as exc:
            alice_errors.append(exc)
        finally:
            a_end.close()

    t = threading.Thread(target=serve)
    t.start()
    try:
        return outcome_from_party_run(run_party(bob, Role.BOB, b_end))
    except TransportError:
        t.join()
        if alice_errors:
            raise alice_errors[0]
        raise
    finally:
        b_end.close()
        t.join()


DRIVERS = (run_protocol, _run_over_tcp)


def _alice_pingpong(x: Word):
    yield x
    got = yield RECV
    yield Word(got.value ^ x.value, x.n)
    return {"alice_note": 1}


def _bob_pingpong():
    first = yield RECV
    yield first.flip([0])
    second = yield RECV
    return second, {"first_bits": first.n}


def test_pingpong_counts_bits_and_rounds():
    x = Word(0b1010, 4)
    outcome = run_protocol(_alice_pingpong(x), _bob_pingpong())
    t = outcome.transcript
    assert t.total_bits == 12
    assert t.rounds == 3
    assert [m.sender for m in t.messages] == [Role.ALICE, Role.BOB, Role.ALICE]
    assert not outcome.reported_failure
    # second = (x flip bit0) xor x = e0
    assert outcome.recovered == Word(0b0001, 4)
    # Alice's return value is ignored, so loopback and TCP diagnostics agree.
    assert outcome.diagnostics == {"first_bits": 4}


def test_one_direction_is_one_round():
    def alice(x):
        yield x
        yield x
        yield x
        return None

    def bob():
        a = yield RECV
        b = yield RECV
        c = yield RECV
        return Word(a.value ^ b.value ^ c.value, a.n), {}

    outcome = run_protocol(alice(Word(5, 3)), bob())
    assert outcome.transcript.rounds == 1
    assert outcome.transcript.total_bits == 9


def test_empty_transcript_has_zero_rounds():
    assert Transcript(()).rounds == 0
    assert Transcript(()).total_bits == 0


def test_deadlock_detected():
    def alice():
        yield RECV
        return None

    def bob():
        yield RECV
        return Word(0, 1), {}

    with pytest.raises(ProtocolExecutionError):
        run_protocol(alice(), bob())


def test_bad_bob_return_rejected():
    def alice(x):
        yield x
        return None

    def bob():
        got = yield RECV
        return got  # missing diagnostics

    for drive in DRIVERS:
        with pytest.raises(ProtocolExecutionError, match="^bob must return"):
            drive(alice(Word(1, 2)), bob())


def test_bad_yield_rejected():
    def alice():
        yield 7
        return None

    def bob():
        yield RECV
        return Word(0, 1), {}

    for drive in DRIVERS:
        with pytest.raises(ProtocolExecutionError, match="^alice yielded 7"):
            drive(alice(), bob())


def test_party_exception_wrapped():
    def alice(x):
        yield x
        raise ValueError("boom")

    def bob():
        got = yield RECV
        _ = yield RECV
        return got, {}

    for drive in DRIVERS:
        with pytest.raises(ProtocolExecutionError, match="^alice raised: ValueError"):
            drive(alice(Word(1, 2)), bob())


def _resized(party, index: int, extra_bits: int):
    """party, with its index-th message one bit longer or one bit shorter.
    A shorter one loses its top bit, so a small modulus keeps its value and
    is not refused as below 2 before its length is checked."""
    received, sent = None, 0
    while True:
        try:
            want = party.send(received)
        except StopIteration as stop:
            return stop.value
        if isinstance(want, Word):
            if sent == index:
                want = Word(want.value & ((1 << (want.n + extra_bits)) - 1), want.n + extra_bits)
            sent += 1
        received = yield want


# (protocol, the party whose message is resized, which of its messages, the
# party that must reject it): one case per message a party receives, at the
# protocol's default parameters.  nba's Alice answers in the width of Bob's
# prime by design, so Bob rejects her answer to a resized prime.
A, B = Role.ALICE, Role.BOB
_RECEIPTS = [
    ("naive", A, 0, B),
    ("brute", A, 0, B),
    ("syndrome", A, 0, B),
    ("listdec", A, 0, B),
    ("listdec", B, 0, B),
    ("listdec", A, 1, B),
    ("coloring", A, 0, B),
    ("nba", B, 0, B),
    ("nba", A, 0, B),
    ("multinba", B, 0, A),
    ("multinba", A, 0, B),
    ("problist", A, 0, B),
    ("smith", A, 0, B),
]


@pytest.mark.parametrize("protocol, sender, index, receiver", _RECEIPTS)
def test_every_receiver_checks_the_length_of_what_it_gets(protocol, sender, index, receiver):
    spec = PROTOCOLS[protocol]
    cfg = ExperimentConfig(protocol, trials=1)
    bounds = Bounds(spec.default_alpha, spec.default_n)
    for drive in DRIVERS:
        case = next(spec.build(cfg, bounds, spec.default_params, Random(0)))
        assert drive(case.alice, case.bob).recovered == case.truth
        for extra_bits in (-1, 1):
            case = next(spec.build(cfg, bounds, spec.default_params, Random(0)))
            parties = {A: case.alice, B: case.bob}
            parties[sender] = _resized(parties[sender], index, extra_bits)
            with pytest.raises(ProtocolExecutionError, match=f"^{receiver.value} raised"):
                drive(parties[A], parties[B])


@pytest.mark.parametrize("q", [0, 1])
def test_alice_refuses_a_modulus_below_two(q):
    # From a hostile Bob, q = 0 would divide by zero and q = 1 would map
    # every word to residue 0.  nba_alice also answers inside listdec.
    x = Word(0b1011, 4)
    width = _nba_width(1, 4)

    def bob(first):
        yield first
        yield RECV
        return None, {}

    for drive in DRIVERS:
        for alice, first in (
            (nba_alice(x), Word(q, width)),
            (multi_nba_alice([x], 1), pack_fields([(q, width), (1, width)])),
        ):
            with pytest.raises(ProtocolExecutionError, match="^alice raised: ContractError"):
                drive(alice, bob(first))


def test_outcome_contract():
    # A reported failure is exactly a missing recovered word.
    assert ProtocolOutcome(None, Transcript(()), {}).reported_failure
    assert not ProtocolOutcome(Word(0, 1), Transcript(()), {}).reported_failure


def test_run_party_threads_match_run_protocol():
    x = Word(0b0110, 4)
    direct = run_protocol(_alice_pingpong(x), _bob_pingpong())

    a_end, b_end = _socketpair_ends()
    alice_runs = []

    def serve():
        alice_runs.append(run_party(_alice_pingpong(x), Role.ALICE, a_end))

    t = threading.Thread(target=serve)
    t.start()
    try:
        bob_run = run_party(_bob_pingpong(), Role.BOB, b_end)
    finally:
        t.join()
        a_end.close()
        b_end.close()
    threaded = outcome_from_party_run(bob_run)

    assert threaded.recovered == direct.recovered
    assert threaded.diagnostics == direct.diagnostics
    assert threaded.transcript == direct.transcript
    assert alice_runs[0].transcript == direct.transcript


class _FrameCountingEnd(TcpEnd):
    """TcpEnd that counts the frames it sends and their bits on the wire:
    the 4-byte header and the payload padded to whole bytes."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock)
        self.frames = 0
        self.framed_bits = 0

    def send_bits(self, w: Word) -> None:
        self.frames += 1
        self.framed_bits += 8 * (4 + (w.n + 7) // 8)
        super().send_bits(w)


# n, alpha, params, payload bits, framed bits, at both benchmark shapes
_SMITH_FRAMES = {
    "smith-stress": (512, Fraction(1, 32), ProbParams(9, 2, Fraction(1, 10), 5), 306, 344),
    "smith-2048": (2048, Fraction(1, 20), ProbParams(11, 64, Fraction(3, 20), 6), 1718, 1752),
}


@pytest.mark.parametrize("case", _SMITH_FRAMES)
def test_smith_sends_one_frame_per_trial(case):
    # Smith's round is one message from Alice, so each trial over TCP is one
    # frame of 32 header bits and the payload in whole bytes.
    n, alpha, params, bits, framed = _SMITH_FRAMES[case]
    bounds = Bounds(alpha, n)
    rng = Random(911)
    a_sock, b_sock = socket.socketpair()
    a_end, b_end = _FrameCountingEnd(a_sock), TcpEnd(b_sock)
    try:
        for _ in range(3):
            y = Word(rng.getrandbits(n), n)
            instance = SyncInstance(random_word_within(y, bounds.radius, rng), y, bounds)
            alice, bob = composite_parties(instance, params, rng)
            alice_runs = []
            thread = threading.Thread(
                target=lambda: alice_runs.append(run_party(alice, Role.ALICE, a_end))
            )
            frames, framed_bits = a_end.frames, a_end.framed_bits
            thread.start()
            try:
                out = outcome_from_party_run(run_party(bob, Role.BOB, b_end))
            finally:
                thread.join(timeout=60)
            assert not thread.is_alive()
            assert out.transcript == alice_runs[0].transcript
            assert len(out.transcript.messages) == 1
            assert out.transcript.total_bits == bits
            assert (a_end.frames - frames, a_end.framed_bits - framed_bits) == (1, framed)
    finally:
        a_end.close()
        b_end.close()


def _tcp_echo(words):
    listener = TcpListener("127.0.0.1", 0)
    served = []

    def serve():
        end = listener.accept(timeout=5)
        try:
            for _ in words:
                w = end.recv_bits()
                served.append(w)
                end.send_bits(w)
        finally:
            end.close()

    t = threading.Thread(target=serve)
    t.start()
    end = tcp_connect("127.0.0.1", listener.port)
    try:
        echoed = []
        for w in words:
            end.send_bits(w)
            echoed.append(end.recv_bits())
    finally:
        end.close()
        t.join()
        listener.close()
    return served, echoed


def test_tcp_roundtrip_preserves_words():
    words = [
        Word(1, 1),
        Word(0b101, 3),  # length not a byte multiple: padding must be masked
        Word(0xDEADBEEF, 32),
        Word((1 << 999) | 1, 1000),
    ]
    served, echoed = _tcp_echo(words)
    assert served == words
    assert echoed == words


def test_tcp_end_is_blocking_only():
    listener = TcpListener("127.0.0.1", 0)

    def serve():
        end = listener.accept(timeout=5)
        end.close()

    t = threading.Thread(target=serve)
    t.start()
    end = tcp_connect("127.0.0.1", listener.port)
    try:
        # The receive blocks until the peer closes, then fails.
        with pytest.raises(TransportError):
            end.recv_bits()
    finally:
        end.close()
        t.join()
        listener.close()


@pytest.mark.parametrize("nbits", [0, MAX_WORD_BITS + 1, (1 << 32) - 1])
def test_frame_length_checked_before_payload(nbits):
    sender, receiver = socket.socketpair()
    end = TcpEnd(receiver)
    frame = struct.pack(">I", nbits)
    if nbits == MAX_WORD_BITS + 1:
        frame += bytes((nbits + 7) // 8)  # a whole payload, which Word would reject

    def send():
        try:
            sender.sendall(frame)
        except OSError:
            pass  # the receiver closes without reading the payload

    t = threading.Thread(target=send)
    t.start()
    try:
        with pytest.raises(TransportError, match="outside"):
            end.recv_bits()
    finally:
        end.close()
        t.join()
        sender.close()


def _frame(draw):
    """One frame: a bit count, sometimes outside [1, MAX_WORD_BITS], and for
    a count inside it a whole payload, whose padding bits may be set."""
    small = st.integers(1, 80)
    nbits = draw(small | st.sampled_from([0, MAX_WORD_BITS, MAX_WORD_BITS + 1, (1 << 32) - 1]))
    size = (nbits + 7) // 8
    if not 1 <= nbits <= MAX_WORD_BITS:
        payload = draw(st.binary(max_size=8))
    elif size <= 10:
        payload = draw(st.binary(min_size=size, max_size=size))
    else:
        payload = bytes([draw(st.integers(0, 255))]) * size
    return struct.pack(">I", nbits) + payload


@st.composite
def _frame_streams(draw):
    """Frames in a row, perhaps cut anywhere, so a header or a payload may
    end short, then perhaps a few bytes of junk."""
    stream = b"".join(_frame(draw) for _ in range(draw(st.integers(0, 4))))
    stream = stream[: draw(st.just(len(stream)) | st.integers(0, len(stream)))]
    return stream + draw(st.binary(max_size=6))


def _parse_frames(stream):
    """The words a reader of the frame format gets from stream before its
    first frame that is short or has a bit count outside [1, MAX_WORD_BITS]."""
    words, at = [], 0
    while len(stream) - at >= 4:
        (nbits,) = struct.unpack_from(">I", stream, at)
        size = (nbits + 7) // 8
        if not 1 <= nbits <= MAX_WORD_BITS or len(stream) - at - 4 < size:
            break
        value = int.from_bytes(stream[at + 4 : at + 4 + size], "little")
        words.append(Word(value & ((1 << nbits) - 1), nbits))
        at += 4 + size
    return words


@given(stream=_frame_streams())
def test_recv_bits_reads_any_byte_stream_or_raises_transport_error(stream):
    # The peer writes the stream and closes, so every receive ends at once:
    # with the next word, or with TransportError once the stream runs out or
    # turns bad.  Any other exception fails the test.
    sender, receiver = socket.socketpair()
    with mock.patch.object(transport, "_IO_TIMEOUT_S", 5.0):
        end = TcpEnd(receiver)

    def send():
        try:
            sender.sendall(stream)
        except OSError:
            pass  # the receiver stopped at a bad frame and closed
        finally:
            sender.close()

    t = threading.Thread(target=send)
    t.start()
    try:
        for expected in [*_parse_frames(stream), None]:
            start = time.monotonic()
            if expected is None:
                with pytest.raises(TransportError):
                    end.recv_bits()
            else:
                assert end.recv_bits() == expected
            assert time.monotonic() - start < 5.0  # no receive waits out its timeout
    finally:
        end.close()
        t.join(timeout=10)
    assert not t.is_alive()


def test_stalled_peer_times_out(monkeypatch):
    monkeypatch.setattr(transport, "_IO_TIMEOUT_S", 0.2)
    silent, receiver = socket.socketpair()
    end = TcpEnd(receiver)
    # Should the receive block anyway, a frame arrives after 5 s, so the
    # test fails instead of hanging.
    late = threading.Timer(5.0, silent.sendall, (struct.pack(">I", 1) + b"\x01",))
    late.start()
    try:
        start = time.monotonic()
        with pytest.raises(TransportError):
            end.recv_bits()
        assert time.monotonic() - start < 5.0
    finally:
        late.cancel()
        late.join(timeout=10)
        end.close()
        silent.close()


def test_listdec_separates_a_long_list_over_tcp_in_one_frame_wait():
    # At n = 256, r = 2 and one parity row Bob lists about 16,400 words.
    # The smallest separating prime took about 61 s to find for such a list;
    # the first prime of the top half takes milliseconds, well inside
    # _IO_TIMEOUT_S.  Bits: 1 syndrome bit and two fields of
    # bit_length(L^2 * 256) = 37 bits.
    rng = Random(31)
    code = random_linear_code(256, 255, rng)
    y = Word(rng.getrandbits(256), 256)
    instance = SyncInstance(random_word_within(y, 2, rng), y, Bounds(Fraction(2, 256), 256))
    start = time.monotonic()
    out = _run_over_tcp(*listdec_parties(code, 2, instance))
    assert time.monotonic() - start < 2.0
    assert out.recovered == instance.x
    assert 16_000 < out.diagnostics["list_size"] < 17_000
    assert out.transcript.total_bits == 75


def test_trickling_peer_times_out_within_one_frame(monkeypatch):
    # The peer sends a 320-bit frame's header, then one payload byte every
    # 0.2 s, each inside the 0.3 s timeout.  A timeout per recv call would
    # accept the frame after about 8 s; the frame's deadline ends it at 0.3 s.
    monkeypatch.setattr(transport, "_IO_TIMEOUT_S", 0.3)
    sender, receiver = socket.socketpair()
    end = TcpEnd(receiver)
    stop = threading.Event()

    def trickle():
        try:
            sender.sendall(struct.pack(">I", 320))
            for _ in range(40):
                if stop.wait(0.2):
                    return
                sender.sendall(b"\x01")
        except OSError:
            pass  # the receiver gave up and closed

    t = threading.Thread(target=trickle)
    t.start()
    try:
        start = time.monotonic()
        with pytest.raises(TransportError, match="no whole frame within 0.3 s"):
            end.recv_bits()
        assert time.monotonic() - start < 1.0
    finally:
        stop.set()
        end.close()
        t.join(timeout=10)
        sender.close()
    assert not t.is_alive()


def test_send_after_a_short_receive_gets_the_full_timeout(monkeypatch):
    # A receive leaves the socket's timeout at what was left of its frame's
    # deadline; the next send starts again from the whole timeout.
    monkeypatch.setattr(transport, "_IO_TIMEOUT_S", 5.0)
    left, right = socket.socketpair()
    a, b = TcpEnd(left), TcpEnd(right)
    try:
        b.send_bits(Word(5, 3))
        assert a.recv_bits() == Word(5, 3)
        a.send_bits(Word(6, 3))
        assert left.gettimeout() == 5.0
        assert b.recv_bits() == Word(6, 3)
    finally:
        a.close()
        b.close()


def test_connect_to_a_silent_listener_times_out(monkeypatch):
    monkeypatch.setattr(transport, "_IO_TIMEOUT_S", 0.4)
    monkeypatch.setattr(transport, "_CONNECT_ATTEMPTS", 2)
    monkeypatch.setattr(transport, "_CONNECT_DELAY_S", 0.05)
    # A listener whose one queue slot holds an unaccepted connection drops
    # further SYNs, so a connect without a timeout waits out the kernel's
    # SYN retries.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    port = listener.getsockname()[1]
    filler = socket.create_connection(("127.0.0.1", port), timeout=5)
    result = []

    def connect():
        try:
            result.append(tcp_connect("127.0.0.1", port))
        except TransportError as exc:
            result.append(exc)

    # A daemon thread with a join timeout, so a blocking connect fails the
    # test instead of hanging it.
    t = threading.Thread(target=connect, daemon=True)
    start = time.monotonic()
    t.start()
    t.join(timeout=5)
    try:
        assert not t.is_alive(), "tcp_connect still blocked after 5 s"
        assert time.monotonic() - start < 2.0
        assert len(result) == 1 and isinstance(result[0], TransportError)
    finally:
        for item in result:
            if isinstance(item, TcpEnd):
                item.close()
        filler.close()
        listener.close()


def test_refused_connect_sleeps_only_between_attempts(monkeypatch):
    monkeypatch.setattr(transport, "_CONNECT_ATTEMPTS", 3)
    sleeps = []
    monkeypatch.setattr(transport.time, "sleep", sleeps.append)
    # A bound socket that does not listen refuses every connect to its port.
    closed = socket.socket()
    closed.bind(("127.0.0.1", 0))
    try:
        with pytest.raises(TransportError, match="cannot connect"):
            tcp_connect("127.0.0.1", closed.getsockname()[1])
    finally:
        closed.close()
    assert sleeps == [transport._CONNECT_DELAY_S] * 2


def test_bad_channel_specs():
    assert host_port("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert host_port(":0") == ("", 0)
    # IPv6 literals, with and without brackets; parsed only, not bound
    assert host_port("[::1]:8000") == ("::1", 8000)
    assert host_port("::1:8000") == ("::1", 8000)
    for bad in ("[::1", "[::1]", "::1]:8000", "[[::1]]:8000", "[::1:8000]"):
        with pytest.raises(ContractError):
            host_port(bad)
    for bad in ("127.0.0.1", "127.0.0.1:notaport", "127.0.0.1:", "127.0.0.1:-1", "127.0.0.1:65536"):
        with pytest.raises(ContractError):
            host_port(bad)
