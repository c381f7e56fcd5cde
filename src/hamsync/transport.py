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

from .bitword import MAX_WORD_BITS, Word
from .errors import ContractError, ProtocolExecutionError, TransportError

Party = Generator  # yields Word | RECV, receives Word, returns per-role value


class _RecvSentinel:
    def __repr__(self) -> str:
        return "RECV"


RECV = _RecvSentinel()


class Role(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


_PEER = {Role.ALICE: Role.BOB, Role.BOB: Role.ALICE}


@dataclass(frozen=True, slots=True)
class Message:
    sender: Role
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
            if prev.sender is not cur.sender
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


@dataclass(frozen=True)
class PartyRun:
    result: Any
    transcript: Transcript


def outcome_from_party_run(run: PartyRun) -> ProtocolOutcome:
    """Check Bob's return value and build the outcome of his run."""
    if not (isinstance(run.result, tuple) and len(run.result) == 2):
        raise ProtocolExecutionError(
            "bob must return (recovered, diagnostics), got " + repr(run.result)
        )
    recovered, diag = run.result
    if recovered is not None and not isinstance(recovered, Word):
        raise ProtocolExecutionError("bob's recovered value must be a Word or None")
    return ProtocolOutcome(recovered, run.transcript, dict(diag or {}))


# ---------------------------------------------------------------------------
# the party stepper both drivers use

_DONE = object()


class _PartyState:
    """One party and what it wants next: a Word to send, RECV, or _DONE.

    The only place that steps a party: it wraps whatever the party raises and
    rejects any other yield, so both drivers report party faults alike.
    """

    def __init__(self, role: Role, gen: Party) -> None:
        self.role = role
        self.gen = gen
        self.result: Any = None
        self.advance(None)

    def advance(self, received: Optional[Word]) -> None:
        """Resume the party with the word it waited for (None after a send)."""
        try:
            self.want = self.gen.send(received)
        except StopIteration as stop:
            self.want = _DONE
            self.result = stop.value
        except Exception as exc:
            raise ProtocolExecutionError(f"{self.role.value} raised: {exc!r}") from exc
        if self.want is not _DONE and self.want is not RECV and not isinstance(self.want, Word):
            raise ProtocolExecutionError(
                f"{self.role.value} yielded {self.want!r}; parties yield Word or RECV"
            )


def run_protocol(alice: Party, bob: Party) -> ProtocolOutcome:
    """Drive both parties in this thread, with one FIFO inbox per party,
    until Bob finishes.

    Raises ProtocolExecutionError on deadlock (both parties waiting with no
    message in flight) or when a party raises.
    """
    inbox: dict[Role, "queue.Queue[Word]"] = {Role.ALICE: queue.Queue(), Role.BOB: queue.Queue()}
    states = (_PartyState(Role.ALICE, alice), _PartyState(Role.BOB, bob))
    bob_st = states[1]
    messages: list[Message] = []

    while bob_st.want is not _DONE:
        progressed = False
        for st in states:
            if isinstance(st.want, Word):
                messages.append(Message(st.role, st.want))
                inbox[_PEER[st.role]].put(st.want)
                st.advance(None)
                progressed = True
            elif st.want is RECV and not inbox[st.role].empty():
                st.advance(inbox[st.role].get_nowait())
                progressed = True
        if not progressed:
            raise ProtocolExecutionError("deadlock: both parties are waiting to receive")

    alice.close()
    return outcome_from_party_run(PartyRun(bob_st.result, Transcript(tuple(messages))))


def run_party(party: Party, role: Role, end: TcpEnd) -> PartyRun:
    """Drive one party against one TcpEnd, blocking on receives.

    The transcript is this end's view of the conversation: identical on both
    ends for alternating protocols.  A TransportError from the end reaches
    the caller as it is.
    """
    st = _PartyState(role, party)
    messages: list[Message] = []
    while st.want is not _DONE:
        if st.want is RECV:
            received = end.recv_bits()
            messages.append(Message(_PEER[role], received))
        else:
            received = None
            messages.append(Message(role, st.want))
            end.send_bits(st.want)
        st.advance(received)
    return PartyRun(st.result, Transcript(tuple(messages)))


# ---------------------------------------------------------------------------
# framed TCP channel

_FRAME_HEADER = struct.Struct(">I")  # payload bit count, big-endian

# Seconds one send or receive may wait on the peer before it fails with
# TransportError, so a stalled peer cannot hang a run.  Generous on purpose:
# a receive also waits out the peer's longest single step, and within the
# package's limits that is Bob listing the 2^23 codewords of an n = 24 code
# (about 2 s on a 2-vCPU machine).  Smith's largest, at its RS budget, is
# Bob's correction at k = 14 with m = 16319 blocks and s = 64 extras (about
# 0.6 s there, tables included).
_IO_TIMEOUT_S = 60.0


class TcpEnd:
    """Channel end over a connected socket; frames are a 4-byte big-endian
    bit count followed by ceil(bits/8) payload bytes, LSB-first.  Padding
    bits in the last byte are ignored on receive."""

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(_IO_TIMEOUT_S)
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
        if not 1 <= nbits <= MAX_WORD_BITS:
            raise TransportError(f"frame of {nbits} bits is outside [1, {MAX_WORD_BITS}]")
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
    # Without a timeout an attempt against an address that never answers
    # waits out the kernel's SYN retries (minutes each), so the attempts
    # share _IO_TIMEOUT_S between them.
    timeout = _IO_TIMEOUT_S / _CONNECT_ATTEMPTS
    for _ in range(_CONNECT_ATTEMPTS):
        try:
            return TcpEnd(socket.create_connection((host, port), timeout=timeout))
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
