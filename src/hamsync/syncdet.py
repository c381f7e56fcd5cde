"""Deterministic synchronization protocols over the Hamming promise.

Alice holds x, Bob holds y, both know the two words differ in at most
floor(alpha*n) positions, and Bob must finish holding x exactly.  Four
constructions live here: syndrome transfer over a code's message columns
(brute), syndrome transfer with unique decoding, syndrome transfer with list
decoding plus an identification finish, and a coloring oracle that realizes
the one-round lower bound shape as syndrome transfer on the lexicode, the
greedy coloring of the cube.  All four look Bob's syndrome difference up in
a ball table, at the promise or list radius.

Each protocol's preconditions are checked once, in its ``*_parties``
function, which returns the (alice, bob) generator pair.  The one-call
wrapper runs that pair over the loopback; the harness runs the same pair
over the loopback or splits it across two processes over TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bitword import Bounds, Word, ball_volume, hamming_distance, unpack_fields
from .errors import ContractError
from .gf2codes import (
    AffineSolver,
    LinearCode,
    _residues,
    ball_table,
    check_walk_budget,
    mat_vec,
    parity_columns,
    syndrome,
)
from .hashing import nba_alice, nba_bob
from .transport import RECV, Party, ProtocolOutcome, run_protocol


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
    """The promise radius r, once its ball table lists one word per syndrome,
    which holds exactly at distance > 2r: a nonzero codeword of weight <= 2r
    is the xor of two words of weight <= r that share a syndrome."""
    r = instance.bounds.radius
    if len(ball_table(parity_columns(code), r)) != ball_volume(r, code.n):
        raise ContractError(f"code does not uniquely correct {r} errors")
    return r


def _check_list_radius(code: LinearCode, radius: int, instance: SyncInstance) -> None:
    """Checks a list radius and builds its ball table, which refuses a ball
    over the walk budget, before either party starts."""
    if instance.n != code.n:
        raise ContractError("code block length must equal the instance length")
    if radius < instance.bounds.radius:
        raise ContractError("list radius must cover the promise radius")
    ball_table(parity_columns(code), radius)


# ---------------------------------------------------------------------------
# brute: syndrome transfer over the code's message columns


def _column_sum(columns: tuple[int, ...], v: int) -> int:
    """The syndrome of v under the matrix with these columns: the xor of the
    columns at v's set bits."""
    out = 0
    for c, column in enumerate(columns):
        if (v >> c) & 1:
            out ^= column
    return out


@lru_cache(maxsize=16)
def _message_columns(code: LinearCode) -> tuple[int, ...]:
    """The columns of H that lie in the span of the columns before them, in
    order: the free columns of H's row reduction, those whose _residues are 0."""
    columns = parity_columns(code)
    return tuple(column for column, v in zip(columns, _residues(columns)) if not v)


def _lookup_bob(code: LinearCode, columns: tuple[int, ...], radius: int, y: Word, keys):
    """Bob's half of a syndrome transfer over these columns of the code's H:
    y xor the first word of weight <= radius that their ball table lists
    under the difference of Alice's syndrome and his.  The diagnostics carry
    the message's bits under keys[0] and that word's weight under keys[1]."""
    msg = yield RECV
    (h_value,) = unpack_fields(msg, [code.n - code.k])
    errors = ball_table(columns, radius).get(h_value ^ _column_sum(columns, y.value))
    if errors is None:  # no word within the radius: the promise is broken
        return None, {keys[0]: msg.n}
    return Word(y.value ^ errors[0], y.n), {keys[0]: msg.n, keys[1]: errors[0].bit_count()}


def brute_alice(code: LinearCode, x: Word):
    """Send the syndrome of the file under the code's message columns."""
    yield Word(_column_sum(_message_columns(code), x.value), code.n - code.k)
    return None


def brute_bob(code: LinearCode, y: Word, radius: int):
    keys = ("check_bits", "decode_distance")
    return (yield from _lookup_bob(code, _message_columns(code), radius, y, keys))


def brute_parties(code: LinearCode, instance: SyncInstance) -> tuple[Party, Party]:
    """Alice's and Bob's generators for brute_sync, after its checks."""
    if instance.n != code.k:
        raise ContractError(
            f"the file is the code's message block: need n == k, got {instance.n} != {code.k}"
        )
    r = _unique_radius(code, instance)
    return brute_alice(code, instance.x), brute_bob(code, instance.y, r)


def brute_sync(code: LinearCode, instance: SyncInstance) -> ProtocolOutcome:
    """One round of code.n - code.k bits, n/rate - n for the file's n =
    code.k: the file's bits sit on the code's message columns, and Alice
    sends their syndrome.  That is check-bit transfer over a systematic
    code up to an invertible map: the check bits of x are H_chk^-1 H_msg x.

    The code shortened to its message columns has distance at least the
    code's, so once the code corrects radius errors, the ball table of
    those columns lists x xor y alone under the difference of the two
    syndromes.  The caller must supply such a code.
    """
    return run_protocol(*brute_parties(code, instance))


# ---------------------------------------------------------------------------
# syndrome transfer with unique decoding


def syndrome_alice(code: LinearCode, x: Word):
    yield syndrome(code, x)
    return None


def coset_representative(code: LinearCode, h_value: int, y: Word) -> Word:
    """Any t with H t = H x + H y; t equals (x xor y) up to a codeword."""
    return Word(AffineSolver(code.h, code.n).solve(h_value ^ mat_vec(code.h, y.value)), code.n)


def list_candidates(code: LinearCode, h_value: int, y: Word, radius: int) -> list[int]:
    """Sorted values of every word with syndrome h_value within radius of y:
    y xor e for each e of weight <= radius with syndrome h_value xor H y."""
    yv = y.value
    table = ball_table(parity_columns(code), radius)
    return sorted(yv ^ e for e in table.get(h_value ^ mat_vec(code.h, yv), ()))


def syndrome_bob(code: LinearCode, y: Word, radius: int):
    keys = ("syndrome_bits", "decoded_difference_weight")
    return (yield from _lookup_bob(code, parity_columns(code), radius, y, keys))


def syndrome_parties(code: LinearCode, instance: SyncInstance) -> tuple[Party, Party]:
    """Alice's and Bob's generators for syndrome_sync, after its checks."""
    if instance.n != code.n:
        raise ContractError("code block length must equal the instance length")
    r = _unique_radius(code, instance)
    return syndrome_alice(code, instance.x), syndrome_bob(code, instance.y, r)


def syndrome_sync(code: LinearCode, instance: SyncInstance) -> ProtocolOutcome:
    """One round of code.n - code.k bits, (1 - rate) * n: Alice sends H x.

    H x + H y is the syndrome of x xor y, which the ball table at the
    promise radius maps to x xor y alone whenever the promise holds and the
    code corrects radius errors, so y xor that word is x exactly.
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
    """Three rounds: syndrome down, a separating prime back, a residue down,
    (n - k) + 2 bit_length(max(2, L^2 n)) bits for Bob's list size L.

    Bob lists every word within the given radius of y that has Alice's
    syndrome, by one lookup in the code's ball table; the list contains x
    whenever the promise holds, and the identification exchange picks it out.
    """
    return run_protocol(*listdec_parties(code, radius, instance))


# ---------------------------------------------------------------------------
# greedy-coloring oracle: syndrome transfer on the lexicode


@lru_cache(maxsize=16)
def build_greedy_coloring(n: int, d: int) -> tuple[int, ...]:
    """The n parity-check columns of the lexicode of length n and distance
    d + 1: column j is the least value that is not a xor of at most d - 1
    earlier columns, so no d or fewer columns xor to 0.  The xor of the
    columns at a word's set bits is the color that the greedy coloring of
    the cube, in ascending word order with the least color unused by an
    earlier word at distance <= d, gives that word: greedy codes are linear
    (Conway and Sloane, "Lexicographic codes", IEEE Trans. IT 1986).

    For each w < d it keeps the set of xors of at most w columns so far,
    and a new column updates each set from the one below.  Each set holds
    the syndromes of words of weight <= d - 1, at most Vol(d - 1, n) values
    and at most 2^r for the r bits of the largest column."""
    sums = [{0} for _ in range(d)]  # sums[w]: the xors of at most w columns
    columns = []
    for _ in range(n):
        column = 0
        while sums and column in sums[-1]:
            column += 1
        columns.append(column)
        for w in range(d - 1, 0, -1):
            sums[w] |= {s ^ column for s in sums[w - 1]}
    return tuple(columns)


def coloring_alice(n: int, radius: int, x: Word):
    columns = build_greedy_coloring(n, 2 * radius)
    width = max(columns).bit_length()
    if width:
        yield Word(_column_sum(columns, x.value), width)
    return None


def coloring_bob(n: int, radius: int, y: Word):
    columns = build_greedy_coloring(n, 2 * radius)
    width = max(columns).bit_length()
    target = unpack_fields((yield RECV), [width])[0] if width else 0
    errors = ball_table(columns, radius).get(target ^ _column_sum(columns, y.value))
    diag = {"n_colors": 1 << width, "color_bits": width}
    if errors is None:  # no word within the radius: the promise is broken
        return None, diag
    return Word(y.value ^ errors[0], n), diag


def coloring_parties(instance: SyncInstance) -> tuple[Party, Party]:
    """Alice's and Bob's generators for coloring_oracle_sync, after its checks."""
    n, r = instance.n, instance.bounds.radius
    # The builder's sets hold syndromes of words of weight <= 2r - 1 and
    # Bob's ball words of weight <= r, so one check covers both.  At r = 0
    # there is no set and the ball is the zero word.
    if r:
        check_walk_budget(n, 2 * r - 1)
    return coloring_alice(n, r, instance.x), coloring_bob(n, r, instance.y)


def coloring_oracle_sync(instance: SyncInstance) -> ProtocolOutcome:
    """One round of width bits, none at radius 0, for the bit length width of
    the largest column of build_greedy_coloring(n, 2*radius): Alice names
    her word's color, its syndrome under those columns, out of 2^width.

    Words at distance <= 2*radius get distinct colors, and everything Bob
    cannot rule out lies within 2*radius of x, so the color is unambiguous
    inside his ball: its table lists at most one word under each syndrome.
    """
    return run_protocol(*coloring_parties(instance))
