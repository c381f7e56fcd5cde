import threading

import pytest

from hamsync.bitword import Word
from hamsync.errors import ContractError, ProtocolExecutionError, TransportError
from hamsync.transport import (
    RECV,
    Direction,
    ProtocolOutcome,
    Role,
    TcpListener,
    Transcript,
    loopback_channel,
    outcome_from_party_run,
    run_party,
    run_protocol,
    tcp_channel,
    tcp_connect,
)


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
    dirs = [m.direction for m in t.messages]
    assert dirs == [Direction.ALICE_TO_BOB, Direction.BOB_TO_ALICE, Direction.ALICE_TO_BOB]
    assert not outcome.reported_failure
    # second = (x flip bit0) xor x = e0
    assert outcome.recovered == Word(0b0001, 4)
    assert outcome.diagnostics == {"alice_note": 1, "first_bits": 4}


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

    with pytest.raises(ProtocolExecutionError):
        run_protocol(alice(Word(1, 2)), bob())


def test_bad_yield_rejected():
    def alice():
        yield 7
        return None

    def bob():
        yield RECV
        return Word(0, 1), {}

    with pytest.raises(ProtocolExecutionError):
        run_protocol(alice(), bob())


def test_party_exception_wrapped():
    def alice(x):
        yield x
        raise ValueError("boom")

    def bob():
        got = yield RECV
        _ = yield RECV
        return got, {}

    with pytest.raises(ProtocolExecutionError):
        run_protocol(alice(Word(1, 2)), bob())


def test_outcome_contract():
    with pytest.raises(ContractError):
        ProtocolOutcome(None, False, Transcript(()), {})
    with pytest.raises(ContractError):
        ProtocolOutcome(Word(0, 1), True, Transcript(()), {})


def test_run_party_threads_match_run_protocol():
    x = Word(0b0110, 4)
    direct = run_protocol(_alice_pingpong(x), _bob_pingpong())

    a_end, b_end = loopback_channel()
    alice_runs = []

    def serve():
        alice_runs.append(run_party(_alice_pingpong(x), Role.ALICE, a_end))

    t = threading.Thread(target=serve)
    t.start()
    bob_run = run_party(_bob_pingpong(), Role.BOB, b_end)
    t.join()
    threaded = outcome_from_party_run(bob_run, alice_diag=alice_runs[0].result)

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


def test_bad_channel_specs():
    with pytest.raises(ContractError):
        tcp_channel("127.0.0.1:9000")
    with pytest.raises(ContractError):
        tcp_channel("listen:127.0.0.1:notaport")
    with pytest.raises(ContractError):
        tcp_channel("dial:127.0.0.1:9000")
