"""Deterministic synchronization protocols over the Hamming promise.

Alice holds x, Bob holds y, both know the two words differ in at most
floor(alpha*n) positions, and Bob must finish holding x exactly.  Four
constructions live here: check-bit transfer over a systematic code, syndrome
transfer with unique decoding, syndrome transfer with list decoding plus an
identification finish, and a small-n coloring oracle that realizes the
one-round lower bound shape by brute force.

Each protocol's preconditions are checked once, in its ``*_parties``
function, which returns the (alice, bob) generator pair.  The one-call
wrapper runs that pair over the loopback; the harness runs the same pair
over the loopback or splits it across two processes over TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bitword import Bounds, Word, ball_volume, hamming_distance, unpack_fields
from .errors import CapabilityError, ContractError, InvariantError
from .gf2codes import (
    LinearCode,
    check_list_decodable,
    encode,
    extract_message,
    gather_bits,
    list_decode_exhaustive,
    mat_vec,
    min_distance,
    syndrome,
    unique_decode,
)
from .hashing import nba_alice, nba_bob
from .transport import RECV, Party, ProtocolOutcome, run_protocol

_COLORING_MAX_N = 14
_COLORING_SCAN_BUDGET = 50_000_000  # vertices times ball volume


@dataclass(frozen=True, slots=True)
class SyncInstance:
    """One (x, y) pair under a distance promise; rejects pairs outside it."""

    x: Word
    y: Word
    bounds: Bounds

    def __post_init__(self) -> None:
        if self.x.n != self.bounds.n or self.y.n != self.bounds.n:
            raise ContractError("instance words must have the promised length")
        d = hamming_distance(self.x, self.y)
        if d > self.bounds.radius:
            raise ContractError(
                f"distance {d} breaks the promise radius {self.bounds.radius}"
            )

    @property
    def n(self) -> int:
        return self.bounds.n


def _unique_radius(code: LinearCode, instance: SyncInstance) -> int:
    """The promise radius, once the code is known to correct that many errors."""
    r = instance.bounds.radius
    if min_distance(code) < 2 * r + 1:
        raise ContractError(f"code does not uniquely correct {r} errors")
    return r


def _check_list_radius(code: LinearCode, radius: int, instance: SyncInstance) -> None:
    if instance.n != code.n:
        raise ContractError("code block length must equal the instance length")
    if radius < instance.bounds.radius:
        raise ContractError("list radius must cover the promise radius")
    check_list_decodable(code, radius)


# ---------------------------------------------------------------------------
# check-bit transfer: the file is the message block of a systematic code


def brute_alice(code: LinearCode, x: Word):
    """Encode the whole file and transmit only the check positions."""
    cw = encode(code, x)
    checks = code.check_positions
    yield Word(gather_bits(cw.value, checks), len(checks))
    return None


def brute_bob(code: LinearCode, y: Word, radius: int):
    msg = yield RECV
    (checks,) = unpack_fields(msg, [code.n - code.k])
    composed = 0
    for i, pos in enumerate(code.message_positions):
        composed |= ((y.value >> i) & 1) << pos
    for i, pos in enumerate(code.check_positions):
        composed |= ((checks >> i) & 1) << pos
    received = Word(composed, code.n)
    z = unique_decode(code, received)
    diag = {"check_bits": msg.n, "decode_distance": hamming_distance(received, z)}
    if diag["decode_distance"] > radius:
        return None, diag
    return extract_message(code, z), diag


def brute_parties(code: LinearCode, instance: SyncInstance) -> tuple[Party, Party]:
    """Alice's and Bob's generators for brute_sync, after its checks."""
    if instance.n != code.k:
        raise ContractError(
            f"the file is the code's message block: need n == k, got {instance.n} != {code.k}"
        )
    r = _unique_radius(code, instance)
    return brute_alice(code, instance.x), brute_bob(code, instance.y, r)


def brute_sync(code: LinearCode, instance: SyncInstance) -> ProtocolOutcome:
    """One round, n/rate - n bits: Alice's file sits verbatim in the message
    positions of a codeword, so only the check bits travel.

    Bob rebuilds a word that differs from Alice's codeword exactly where y
    differs from x, then unique-decodes.  The caller must supply a code whose
    guaranteed correction radius covers the promise.
    """
    return run_protocol(*brute_parties(code, instance))


# ---------------------------------------------------------------------------
# syndrome transfer with unique decoding


def syndrome_alice(code: LinearCode, x: Word):
    yield syndrome(code, x)
    return None


def coset_representative(code: LinearCode, h_value: int, y: Word) -> Word:
    """Any t with H t = H x + H y; t equals (x xor y) up to a codeword."""
    return Word(code.solver.solve(h_value ^ mat_vec(code.h, y.value)), code.n)


def list_candidates(code: LinearCode, h_value: int, y: Word, radius: int) -> list[int]:
    """Sorted values of every word with syndrome h_value within radius of y:
    t xor y xor z for each z in the list decoding of t to that radius."""
    y_prime = coset_representative(code, h_value, y)
    return sorted((y_prime ^ y ^ z).value for z in list_decode_exhaustive(code, y_prime, radius))


def syndrome_bob(code: LinearCode, y: Word, radius: int):
    h_msg = yield RECV
    (h_value,) = unpack_fields(h_msg, [code.n - code.k])
    y_prime = coset_representative(code, h_value, y)
    z = unique_decode(code, y_prime)
    weight = hamming_distance(y_prime, z)
    diag = {"syndrome_bits": h_msg.n, "decoded_difference_weight": weight}
    if weight > radius:
        return None, diag
    return y_prime ^ y ^ z, diag


def syndrome_parties(code: LinearCode, instance: SyncInstance) -> tuple[Party, Party]:
    """Alice's and Bob's generators for syndrome_sync, after its checks."""
    if instance.n != code.n:
        raise ContractError("code block length must equal the instance length")
    r = _unique_radius(code, instance)
    return syndrome_alice(code, instance.x), syndrome_bob(code, instance.y, r)


def syndrome_sync(code: LinearCode, instance: SyncInstance) -> ProtocolOutcome:
    """One round, (1 - rate) * n bits: Alice sends H x.

    Bob solves H t = H x + H y, so t = (x xor y) xor c for some codeword c;
    unique-decoding t recovers c, and t xor y xor c is x.  Exact whenever the
    promise holds and the code corrects radius errors.
    """
    return run_protocol(*syndrome_parties(code, instance))


# ---------------------------------------------------------------------------
# syndrome transfer with list decoding and an identification finish


def listdec_alice(code: LinearCode, x: Word):
    yield syndrome(code, x)
    yield from nba_alice(x)
    return None


def listdec_bob(code: LinearCode, radius: int, y: Word):
    h_msg = yield RECV
    (h_value,) = unpack_fields(h_msg, [code.n - code.k])
    values = list_candidates(code, h_value, y, radius)
    diag = {"syndrome_bits": h_msg.n, "list_size": len(values), "candidates": tuple(values)}
    if not values:
        # The promise is broken and the list is empty.  Keep the message
        # shape so the peer can run to completion; the reply is discarded.
        yield Word(2, 2)
        yield RECV
        return None, diag
    winner, nba_diag = yield from nba_bob([Word(v, code.n) for v in values], code.n)
    return winner, {**diag, **nba_diag}


def listdec_parties(
    code: LinearCode, radius: int, instance: SyncInstance
) -> tuple[Party, Party]:
    """Alice's and Bob's generators for listdec_sync, after its checks."""
    _check_list_radius(code, radius, instance)
    return listdec_alice(code, instance.x), listdec_bob(code, radius, instance.y)


def listdec_sync(code: LinearCode, radius: int, instance: SyncInstance) -> ProtocolOutcome:
    """Three rounds: syndrome down, a separating prime back, a residue down.

    Bob list-decodes the coset representative to the given radius; the
    candidate words t xor y xor z_i then contain x whenever the promise
    holds, and the identification exchange picks it out.
    """
    return run_protocol(*listdec_parties(code, radius, instance))


# ---------------------------------------------------------------------------
# greedy-coloring oracle (desk-scale only)


@lru_cache(maxsize=16)
def _nonzero_masks_up_to_weight(n: int, d: int) -> tuple[int, ...]:
    masks = []
    for weight in range(1, min(d, n) + 1):
        for positions in combinations(range(n), weight):
            m = 0
            for p in positions:
                m |= 1 << p
            masks.append(m)
    return tuple(masks)


@lru_cache(maxsize=16)
def build_greedy_coloring(n: int, d: int) -> tuple[int, ...]:
    """Color all 2^n words so that words at distance <= d never share a
    color, greedily in ascending word order.  Uses at most Vol(d, n) colors:
    each word sees fewer than Vol(d, n) earlier neighbors."""
    if n > _COLORING_MAX_N:
        raise CapabilityError(f"coloring enumerates 2^n words; n <= {_COLORING_MAX_N}")
    if d < 0:
        raise ContractError("coloring distance must be nonnegative")
    if ball_volume(min(d, n), n) << n > _COLORING_SCAN_BUDGET:
        raise CapabilityError("coloring scan exceeds the enumeration budget")
    masks = _nonzero_masks_up_to_weight(n, d)
    colors = [0] * (1 << n)
    for w in range(1 << n):
        used = {colors[w ^ m] for m in masks if (w ^ m) < w}
        c = 0
        while c in used:
            c += 1
        colors[w] = c
    return tuple(colors)


@lru_cache(maxsize=16)
def _color_count(n: int, d: int) -> int:
    """Colors build_greedy_coloring(n, d) uses, counted once, not per trial."""
    return max(build_greedy_coloring(n, d)) + 1


def coloring_alice(n: int, radius: int, x: Word):
    d = min(2 * radius, n)
    width = (_color_count(n, d) - 1).bit_length()
    if width:
        yield Word(build_greedy_coloring(n, d)[x.value], width)
    return None


def coloring_bob(n: int, radius: int, y: Word):
    d = min(2 * radius, n)
    colors = build_greedy_coloring(n, d)
    n_colors = _color_count(n, d)
    width = (n_colors - 1).bit_length()
    if width:
        (target,) = unpack_fields((yield RECV), [width])
    else:
        target = 0
    matches = [
        y.value ^ m
        for m in (0,) + _nonzero_masks_up_to_weight(y.n, radius)
        if colors[y.value ^ m] == target
    ]
    diag = {"n_colors": n_colors, "color_bits": width}
    if not matches:
        return None, diag
    if len(matches) > 1:
        raise InvariantError("two words in one ball share a color")
    return Word(matches[0], n), diag


def coloring_parties(instance: SyncInstance) -> tuple[Party, Party]:
    """Alice's and Bob's generators for coloring_oracle_sync, after its checks."""
    n, r = instance.n, instance.bounds.radius
    build_greedy_coloring(n, min(2 * r, n))  # rejects cubes beyond desk scale
    return coloring_alice(n, r, instance.x), coloring_bob(n, r, instance.y)


def coloring_oracle_sync(instance: SyncInstance) -> ProtocolOutcome:
    """One round, ceil(log2(#colors)) bits: Alice names her word's color.

    Words at distance <= 2*radius get distinct colors, and everything Bob
    cannot rule out lies within 2*radius of x, so the color is unambiguous
    inside his ball.  Enumerates the whole cube; desk scale only.
    """
    return run_protocol(*coloring_parties(instance))
