"""Two-party protocol execution with exact bit accounting.

A party program is a generator.  It yields a Word to transmit, yields the
RECV sentinel to wait for the peer's next message (which arrives as the value
of that yield expression), and returns when finished.  Bob's return value is
a ``(recovered, diagnostics)`` pair with ``recovered`` a Word or None (None
means reported failure).  Alice's return value is ignored: over TCP it never
reaches Bob's side, so the loopback does not read it either.  The same
generator runs unchanged over the in-process loopback and the framed TCP
transport, so transport choice can never change a protocol's outcome, its
diagnostics or its bit count.

Only payload bits are counted.  Constants both parties know before the run
(code parameters, hash ranges, field widths) cost nothing; anything sampled
during the run and transmitted is paid for by the message that carries it.
"""

from __future__ import annotations

import enum
import queue
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Generator, Optional

from .bitword import Word
from .errors import ContractError, ProtocolExecutionError, TransportError

Party = Generator  # yields Word | RECV, receives Word, returns per-role value


class _RecvSentinel:
    def __repr__(self) -> str:
        return "RECV"


RECV = _RecvSentinel()


class Direction(enum.Enum):
    ALICE_TO_BOB = "a->b"
    BOB_TO_ALICE = "b->a"


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


def _outgoing(role: Role) -> Direction:
    return Direction.ALICE_TO_BOB if role is Role.ALICE else Direction.BOB_TO_ALICE


@dataclass(frozen=True, slots=True)
class Message:
    direction: Direction
    payload: Word


@dataclass(frozen=True)
class Transcript:
    messages: tuple[Message, ...]

    @property
    def total_bits(self) -> int:
        return sum(m.payload.n for m in self.messages)

    @property
    def rounds(self) -> int:
        if not self.messages:
            return 0
        changes = sum(
            1
            for prev, cur in zip(self.messages, self.messages[1:])
            if prev.direction is not cur.direction
        )
        return changes + 1


@dataclass(frozen=True)
class ProtocolOutcome:
    recovered: Optional[Word]
    transcript: Transcript
    diagnostics: dict[str, Any]

    @property
    def reported_failure(self) -> bool:
        return self.recovered is None


# ---------------------------------------------------------------------------
# loopback channel


class LoopbackEnd:
    """One end of an in-process duplex channel backed by FIFO queues."""

    def __init__(self, inbox: "queue.Queue[Word]", outbox: "queue.Queue[Word]") -> None:
        self._inbox = inbox
        self._outbox = outbox

    def send_bits(self, w: Word) -> None:
        self._outbox.put(w)

    def recv_bits(self) -> Word:
        return self._inbox.get()

    def has_pending(self) -> bool:
        return not self._inbox.empty()

    def recv_nowait(self) -> Word:
        return self._inbox.get_nowait()

    def close(self) -> None:
        pass


def loopback_channel() -> tuple[LoopbackEnd, LoopbackEnd]:
    """Connected (alice_end, bob_end) pair; per-direction FIFO order."""
    a_to_b: "queue.Queue[Word]" = queue.Queue()
    b_to_a: "queue.Queue[Word]" = queue.Queue()
    alice_end = LoopbackEnd(inbox=b_to_a, outbox=a_to_b)
    bob_end = LoopbackEnd(inbox=a_to_b, outbox=b_to_a)
    return alice_end, bob_end


# ---------------------------------------------------------------------------
# cooperative runner (both parties in one thread)


class _PartyState:
    def __init__(self, role: Role, gen: Party) -> None:
        self.role = role
        self.gen = gen
        self.want: Any = None  # Word to send, RECV, or _DONE
        self.result: Any = None

    def advance(self, sent: Optional[Word]) -> None:
        try:
            if sent is None:
                self.want = next(self.gen)
            else:
                self.want = self.gen.send(sent)
        except StopIteration as stop:
            self.want = _DONE
            self.result = stop.value
        except Exception as exc:
            raise ProtocolExecutionError(f"{self.role.value} raised: {exc!r}") from exc
        if self.want is not _DONE and self.want is not RECV and not isinstance(self.want, Word):
            raise ProtocolExecutionError(
                f"{self.role.value} yielded {self.want!r}; parties yield Word or RECV"
            )


_DONE = object()


def run_protocol(alice: Party, bob: Party) -> ProtocolOutcome:
    """Drive both parties over a loopback channel until Bob finishes.

    Raises ProtocolExecutionError on deadlock (both parties waiting with no
    message in flight) or when a party raises.
    """
    alice_end, bob_end = loopback_channel()
    ends = {Role.ALICE: alice_end, Role.BOB: bob_end}
    states = {Role.ALICE: _PartyState(Role.ALICE, alice), Role.BOB: _PartyState(Role.BOB, bob)}
    messages: list[Message] = []

    for st in states.values():
        st.advance(None)

    while states[Role.BOB].want is not _DONE:
        progressed = False
        for role in (Role.ALICE, Role.BOB):
            st = states[role]
            if isinstance(st.want, Word):
                messages.append(Message(_outgoing(role), st.want))
                ends[role].send_bits(st.want)
                st.advance(None)
                progressed = True
            elif st.want is RECV and ends[role].has_pending():
                st.advance(ends[role].recv_nowait())
                progressed = True
        if not progressed and states[Role.BOB].want is not _DONE:
            raise ProtocolExecutionError("deadlock: both parties are waiting to receive")

    states[Role.ALICE].gen.close()
    return _build_outcome(states[Role.BOB].result, tuple(messages))


def _build_outcome(bob_result: Any, messages: tuple[Message, ...]) -> ProtocolOutcome:
    if not (isinstance(bob_result, tuple) and len(bob_result) == 2):
        raise ProtocolExecutionError(
            "bob must return (recovered, diagnostics), got " + repr(bob_result)
        )
    recovered, diag = bob_result
    if recovered is not None and not isinstance(recovered, Word):
        raise ProtocolExecutionError("bob's recovered value must be a Word or None")
    return ProtocolOutcome(recovered, Transcript(messages), dict(diag or {}))


@dataclass(frozen=True)
class PartyRun:
    result: Any
    transcript: Transcript


def run_party(party: Party, role: Role, end: Any) -> PartyRun:
    """Drive one party against one channel end, blocking on receives.

    Used for TCP runs (one party per process or thread) and for threaded
    loopback runs.  The transcript contains this endpoint's view of the
    conversation: identical on both ends for alternating protocols.
    """
    messages: list[Message] = []
    gen = party
    try:
        want = next(gen)
        while True:
            if isinstance(want, Word):
                messages.append(Message(_outgoing(role), want))
                end.send_bits(want)
                want = next(gen)
            elif want is RECV:
                w = end.recv_bits()
                direction = _outgoing(Role.BOB if role is Role.ALICE else Role.ALICE)
                messages.append(Message(direction, w))
                want = gen.send(w)
            else:
                raise ProtocolExecutionError(
                    f"{role.value} yielded {want!r}; parties yield Word or RECV"
                )
    except StopIteration as stop:
        return PartyRun(result=stop.value, transcript=Transcript(tuple(messages)))
    except TransportError:
        raise
    except ProtocolExecutionError:
        raise
    except Exception as exc:
        raise ProtocolExecutionError(f"{role.value} raised: {exc!r}") from exc


def outcome_from_party_run(run: PartyRun) -> ProtocolOutcome:
    """Build a ProtocolOutcome from Bob's PartyRun (TCP runs)."""
    return _build_outcome(run.result, run.transcript.messages)


# ---------------------------------------------------------------------------
# framed TCP channel

_FRAME_HEADER = struct.Struct(">I")  # payload bit count, big-endian


class TcpEnd:
    """Channel end over a connected socket; frames are a 4-byte big-endian
    bit count followed by ceil(bits/8) payload bytes, LSB-first.  Padding
    bits in the last byte are ignored on receive."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send_bits(self, w: Word) -> None:
        frame = _FRAME_HEADER.pack(w.n) + w.value.to_bytes((w.n + 7) // 8, "little")
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError("peer closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_bits(self) -> Word:
        (nbits,) = _FRAME_HEADER.unpack(self._recv_exact(_FRAME_HEADER.size))
        if nbits < 1:
            raise TransportError("received a frame with an empty payload")
        raw = self._recv_exact((nbits + 7) // 8)
        value = int.from_bytes(raw, "little") & ((1 << nbits) - 1)
        return Word(value, nbits)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TcpListener:
    """Bound listening socket; accept() yields one TcpEnd per connection."""

    def __init__(self, host: str, port: int) -> None:
        try:
            self._sock = socket.create_server((host, port))
        except OSError as exc:
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self, timeout: Optional[float] = None) -> TcpEnd:
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        conn.settimeout(None)
        return TcpEnd(conn)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


_CONNECT_ATTEMPTS = 15
_CONNECT_DELAY_S = 0.2


def tcp_connect(host: str, port: int) -> TcpEnd:
    """Connect with a short retry window so the peer's listener can come up."""
    last: Optional[OSError] = None
    for _ in range(_CONNECT_ATTEMPTS):
        try:
            return TcpEnd(socket.create_connection((host, port)))
        except OSError as exc:
            last = exc
            time.sleep(_CONNECT_DELAY_S)
    raise TransportError(f"cannot connect to {host}:{port}: {last}")


def host_port(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` address; the port must be a number in [0, 65535]."""
    host, sep, port_text = address.rpartition(":")
    if sep and port_text.isdecimal() and int(port_text) <= 0xFFFF:
        return host, int(port_text)
    raise ContractError(f"bad address {address!r}; want HOST:PORT")
