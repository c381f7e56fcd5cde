"""Binary linear codes: parity-check matrices as packed integer rows, affine
solves, random code sampling, and one walk over the light words that builds
the tables every table decoder reads: ball tables for syndrome transfer, read
by one lookup (ball_lookup), and coset leaders for smith's blocks.

A matrix is the tuple of its rows, and a row is a Python int whose bit c is
the entry in column c, matching the Word convention.  A syndrome is the xor
of the columns at a word's set bits (column_sum), as the tables are keyed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Sequence

from .bitword import Word, ball_volume
from .errors import CapabilityError, ContractError, RetryLimitError

_DECODE_ENUM_LIMIT = 24  # codewords() spans at most 2^24 words
LEADER_MAX_N = 14  # smith's block length: its leader tables walk up to 16,384 words
WALK_BUDGET = 1 << 16  # the most words one ball table may walk, the zero word included
# The most parity-check entries, n * (n - k), that random_linear_code draws.
# Checking a draw's rank is cubic in n: n = 2,048 at k = 5, just inside,
# takes about 0.36 s on 2 vCPUs, and n = 20,000 would take minutes.
_RANDOM_CODE_BUDGET = 1 << 22


def mat_vec(rows: Sequence[int], x: int) -> int:
    """Product over GF(2): output bit r is the parity of rows[r] AND x."""
    out = 0
    for r, mask in enumerate(rows):
        out |= ((mask & x).bit_count() & 1) << r
    return out


def _rref(masks: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    rows = list(masks)
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if (rows[i] >> c) & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivot_cols


class AffineSolver:
    """Prepared solver for H t = b with a fixed H: the row operations that
    reduce H are recorded once and replayed on each right-hand side.  H must
    have independent rows, as a LinearCode's are, so every b has a
    solution."""

    def __init__(self, h: Sequence[int], cols: int) -> None:
        # Augment each row with an identity tag in the high bits; reducing the
        # combined rows yields [R | E] with R = E*H.
        tagged = [mask | (1 << (cols + i)) for i, mask in enumerate(h)]
        # _rref only pivots on the first `cols` bit positions, so the identity
        # tags in the high bits just record the row operations.
        reduced, pivots = _rref(tagged, cols)
        self.pivot_cols = pivots
        self.ops = [row >> cols for row in reduced]

    def solve(self, b: int) -> int:
        """The solution with every free variable zero."""
        t = 0
        for op, c in zip(self.ops, self.pivot_cols):
            t |= ((op & b).bit_count() & 1) << c
        return t


@dataclass(frozen=True, slots=True)
class LinearCode:
    """[n, k] binary linear code given by its parity-check rows h, which must
    be independent; k = n - len(h).  Nothing else is derived when a code is
    built: a protocol reads the rows, or the columns that parity_columns
    computes once per code.  Equality and hashing cover (n, h) only.
    """

    n: int
    h: tuple[int, ...]
    k: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        h = tuple(self.h)
        if not 1 <= len(h) < self.n:
            raise ContractError("need between 1 and n-1 parity rows")
        limit = 1 << self.n
        if any(not 0 <= row < limit for row in h):
            raise ContractError("parity-check row has bits outside the block length")
        if rank(h) != len(h):
            raise ContractError("parity rows are linearly dependent")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", self.n - len(h))


@lru_cache(maxsize=32)
def parity_columns(code: LinearCode) -> tuple[int, ...]:
    """Column c of H, as an (n-k)-bit int, for each c < n."""
    return tuple(mat_vec(code.h, 1 << c) for c in range(code.n))


_FULL_RANK_ATTEMPTS = 1000


def _residues(masks: Iterable[int]) -> Iterator[int]:
    """What is left of each vector once the xor basis of the vectors before
    it reduces it: 0 exactly when it is in their span.

    Each vector is reduced by the basis in the order it was built, min(v,
    v ^ b) clearing b's top bit from v.  A basis vector was reduced by every
    earlier one, so it has none of their top bits, and a later xor cannot
    set one again: what is left is 0 exactly when v is in the span, and
    otherwise has a top bit no basis vector has, and joins the basis."""
    basis: list[int] = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
        yield v


def rank(masks: Sequence[int]) -> int:
    """Rank over GF(2) of these bit vectors: the size of an xor basis of
    them, one vector for each nonzero residue.  The basis holds at most as
    many vectors as the widest mask has bits, and once it does, every later
    vector is in its span, so the count stops there."""
    width = max(masks, default=0).bit_length()
    count = 0
    for v in _residues(masks):
        if v:
            count += 1
            if count == width:
                break
    return count


def random_linear_code(n: int, k: int, rng: Random) -> LinearCode:
    """The code of uniformly random (n-k) x n parity-check rows, resampled
    until they have full row rank.  LinearCode itself checks each draw's
    rank and refuses dependent rows.  A shape over _RANDOM_CODE_BUDGET
    entries is refused before the first draw."""
    if not 1 <= k < n:
        raise ContractError("need 1 <= k < n")
    if n * (n - k) > _RANDOM_CODE_BUDGET:
        raise CapabilityError(
            f"a random [{n}, {k}] code has {n * (n - k)} parity-check entries, "
            f"over the {_RANDOM_CODE_BUDGET} budget"
        )
    for _ in range(_FULL_RANK_ATTEMPTS):
        try:
            return LinearCode(n, tuple(rng.getrandbits(n) for _ in range(n - k)))
        except ContractError:  # dependent rows, the only refusal a draw can meet
            pass
    raise RetryLimitError(f"no full-rank parity matrix in {_FULL_RANK_ATTEMPTS} samples")


@lru_cache(maxsize=128)
def codewords(code: LinearCode) -> tuple[int, ...]:
    """All 2^k codeword values in ascending order, enumerated by spanning
    generator rows (never by scanning the 2^n cube).  Each free column f of
    a solver for H gives the row t | 1 << f, with t the solution of H t =
    column f of H."""
    if code.k > _DECODE_ENUM_LIMIT:
        raise CapabilityError(f"enumerating 2^{code.k} codewords is out of budget")
    solver = AffineSolver(code.h, code.n)
    pivots = set(solver.pivot_cols)
    words = [0]
    for f in range(code.n):
        if f not in pivots:
            g = solver.solve(mat_vec(code.h, 1 << f)) | 1 << f
            words += [w ^ g for w in words]
    words.sort()
    return tuple(words)


def list_decode_exhaustive(code: LinearCode, y: Word, radius: int) -> list[Word]:
    """All codewords within the given distance of y, ascending by value,
    for 0 <= radius <= code.n and y.n == code.n.  The reference that
    ball_table's lists are tested against."""
    yv = y.value
    return [Word(c, code.n) for c in codewords(code) if (c ^ yv).bit_count() <= radius]


def unique_decode(code: LinearCode, y: Word) -> Word:
    """Nearest codeword to y; ties break toward the smaller value."""
    if y.n != code.n:
        raise ContractError("word length does not match the code")
    yv = y.value
    best = None
    best_d = code.n + 1
    for c in codewords(code):
        d = (c ^ yv).bit_count()
        if d < best_d:
            best, best_d = c, d
    assert best is not None
    return Word(best, code.n)


@lru_cache(maxsize=16)
def _walk(n: int, radius: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero n-bit words of weight <= radius, lightest first and
    increasing within a weight, as (word, place in the walk of the word less
    its lowest set bit (the zero word is place 0), index of that bit).
    Within a weight, Gosper's step goes from each word to the next larger
    one of that weight.  Callers keep ball_volume(radius, n) in budget."""
    place = {0: 0}
    walk = []
    for weight in range(1, radius + 1):
        w = (1 << weight) - 1
        while w >> n == 0:
            low = w & -w
            place[w] = len(place)
            walk.append((w, place[w ^ low], low.bit_length() - 1))
            ripple = w + low
            w = ripple | (w ^ ripple) // low >> 2
    return tuple(walk)


def coset_leaders(columns: Sequence[int], rows: int) -> dict[int, int]:
    """Coset leader of each of the 2^rows syndromes of the parity-check
    matrix with these columns: the first word of the weight walk with that
    syndrome, i.e. its lightest word, ties toward the smaller one.  So y xor
    leader[H y] is a codeword nearest to y.  Smith, the one caller, keeps
    its block length n <= LEADER_MAX_N.  Independent rows make some `rows`
    columns a basis, so every leader weighs at most rows.  The walk stops
    once every syndrome is reached; if some never is, the rows are
    dependent.
    """
    leader = {0: 0}
    syndromes = [0]  # of the words walked so far, by place
    for word, rest, low in _walk(len(columns), rows):
        d = syndromes[rest] ^ columns[low]
        syndromes.append(d)
        if d not in leader:
            leader[d] = word
            if len(leader) == 1 << rows:
                return leader
    raise ContractError("the matrix rows are linearly dependent")


def check_walk_budget(n: int, radius: int) -> None:
    """Refuses a ball of more than WALK_BUDGET words.  It draws nothing, so a
    caller can check a shape before it samples the code."""
    if ball_volume(radius, n) > WALK_BUDGET:
        raise CapabilityError(f"radius {radius} at n = {n} is over the walk budget")


@lru_cache(maxsize=32)
def ball_table(columns: tuple[int, ...], radius: int) -> dict[int, tuple[int, ...]]:
    """Each syndrome, under the parity-check matrix with these columns, of a
    word of weight <= radius, mapped to those words in walk order, the zero
    word first, so a coset leader is the first word of its list.  Refuses a
    ball over the budget."""
    check_walk_budget(len(columns), radius)
    table: dict[int, list[int]] = {0: [0]}
    syndromes = [0]  # of the words walked so far, by place
    for word, rest, low in _walk(len(columns), radius):
        d = syndromes[rest] ^ columns[low]
        syndromes.append(d)
        table.setdefault(d, []).append(word)
    return {d: tuple(words) for d, words in table.items()}


def column_sum(columns: Sequence[int], v: int) -> int:
    """The syndrome of v under the parity-check matrix with these columns:
    the xor of the columns at v's set bits, one step per set bit."""
    out = 0
    while v:
        low = v & -v
        out ^= columns[low.bit_length() - 1]
        v ^= low
    return out


def ball_lookup(columns: tuple[int, ...], radius: int, h: int, y: int) -> tuple[int, ...]:
    """The words e that ball_table lists under h xor H y, or () when there
    is none: so y xor e runs over every word within radius of y whose
    syndrome is h.  Unique decoders take the first e, a coset leader."""
    return ball_table(columns, radius).get(h ^ column_sum(columns, y), ())


@lru_cache(maxsize=1)
def hamming_7_4() -> LinearCode:
    """The [7, 4] Hamming code with parity-check column c equal to the binary
    representation of c + 1, so a single-bit error's syndrome spells out its
    position."""
    rows = []
    for j in range(3):
        mask = 0
        for c in range(7):
            if ((c + 1) >> j) & 1:
                mask |= 1 << c
        rows.append(mask)
    return LinearCode(7, rows)
