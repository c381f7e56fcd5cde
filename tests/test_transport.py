import socket
import struct
import threading
import time

import pytest

from hamsync import transport
from hamsync.bitword import MAX_WORD_BITS, Word
from hamsync.errors import ContractError, ProtocolExecutionError, TransportError
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
        except ProtocolExecutionError as exc:
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
    yield got ^ x
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
        return a ^ b ^ c, {}

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


def test_bad_channel_specs():
    assert host_port("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert host_port(":0") == ("", 0)
    for bad in ("127.0.0.1", "127.0.0.1:notaport", "127.0.0.1:", "127.0.0.1:-1", "127.0.0.1:65536"):
        with pytest.raises(ContractError):
            host_port(bad)
