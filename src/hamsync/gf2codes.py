"""Binary linear codes: parity-check matrices as packed integer rows,
syndromes, affine solves, random code sampling, and exhaustive decoding.

A matrix is the tuple of its rows, and a row is a Python int whose bit c is
the entry in column c, matching the Word convention, so a row-times-vector
product is one AND and a popcount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import Sequence

from .bitword import Word
from .errors import CapabilityError, ContractError, InvariantError, RetryLimitError

_DECODE_ENUM_LIMIT = 24  # exhaustive decoding walks 2^k codewords; n capped too


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
    have independent rows, which LinearCode checks before it builds one, so
    every b has a solution."""

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
    be independent; k = n - len(h).

    h is reduced once, into the AffineSolver kept as `solver`.  Its free
    columns are message_positions, and g_rows[i] = solver.solve(column f of
    H) | 1 << f with f = message_positions[i] carries a lone 1 in column f
    among them, so a message embeds at message_positions and the remaining
    check_positions are determined.  When message_positions == (0..k-1) the
    generator is systematic in the strict first-k-columns sense.  All of this
    is derived from h, so equality and hashing cover (n, h) only.
    """

    n: int
    h: tuple[int, ...]
    k: int = field(init=False, compare=False)
    g_rows: tuple[int, ...] = field(init=False, compare=False)
    message_positions: tuple[int, ...] = field(init=False, compare=False)
    solver: AffineSolver = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        h = tuple(self.h)
        if not 1 <= len(h) < self.n:
            raise ContractError("need between 1 and n-1 parity rows")
        limit = 1 << self.n
        if any(not 0 <= row < limit for row in h):
            raise ContractError("parity-check row has bits outside the block length")
        solver = AffineSolver(h, self.n)
        if len(solver.pivot_cols) != len(h):
            raise ContractError("parity rows are linearly dependent")
        pivot_set = set(solver.pivot_cols)
        free_cols = tuple(c for c in range(self.n) if c not in pivot_set)
        # H (t + e_f) = 0 exactly when H t is column f of H.
        g_rows = tuple(solver.solve(mat_vec(h, 1 << f)) | 1 << f for f in free_cols)
        if any(mat_vec(h, w) for w in g_rows):
            raise InvariantError("generator row is not in the null space")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", self.n - len(h))
        object.__setattr__(self, "g_rows", g_rows)
        object.__setattr__(self, "message_positions", free_cols)
        object.__setattr__(self, "solver", solver)

    @property
    def check_positions(self) -> tuple[int, ...]:
        msg = set(self.message_positions)
        return tuple(c for c in range(self.n) if c not in msg)


def encode(code: LinearCode, message: Word) -> Word:
    """Codeword whose message_positions carry the message bits."""
    if message.n != code.k:
        raise ContractError(f"message must have {code.k} bits")
    w = 0
    for i in range(code.k):
        if (message.value >> i) & 1:
            w ^= code.g_rows[i]
    return Word(w, code.n)


def gather_bits(value: int, positions: Sequence[int]) -> int:
    """Bit i of the result is value's bit at positions[i]."""
    out = 0
    for i, pos in enumerate(positions):
        out |= ((value >> pos) & 1) << i
    return out


def extract_message(code: LinearCode, codeword: Word) -> Word:
    if codeword.n != code.n:
        raise ContractError("codeword length mismatch")
    return Word(gather_bits(codeword.value, code.message_positions), code.k)


def syndrome(code: LinearCode, x: Word) -> Word:
    """H*x, as an (n-k)-bit word; zero exactly on codewords."""
    if x.n != code.n:
        raise ContractError(f"word has {x.n} bits, code length is {code.n}")
    return Word(mat_vec(code.h, x.value), code.n - code.k)


_FULL_RANK_ATTEMPTS = 1000


def rank(masks: Sequence[int]) -> int:
    """Rank over GF(2) of these bit vectors: the pivot count of their reduced form."""
    return len(_rref(masks, max(masks, default=0).bit_length())[1])


def random_linear_code(n: int, k: int, rng: Random) -> LinearCode:
    """The code of uniformly random (n-k) x n parity-check rows, resampled
    until they have full row rank."""
    if not 1 <= k < n:
        raise ContractError("need 1 <= k < n")
    for _ in range(_FULL_RANK_ATTEMPTS):
        masks = tuple(rng.getrandbits(n) for _ in range(n - k))
        if rank(masks) == n - k:
            return LinearCode(n, masks)
    raise RetryLimitError(f"no full-rank parity matrix in {_FULL_RANK_ATTEMPTS} samples")


@lru_cache(maxsize=128)
def codewords(code: LinearCode) -> tuple[int, ...]:
    """All 2^k codeword values in ascending order, enumerated by spanning the
    generator rows (never by scanning the 2^n cube)."""
    if code.k > _DECODE_ENUM_LIMIT:
        raise CapabilityError(f"enumerating 2^{code.k} codewords is out of budget")
    words = [0]
    for g in code.g_rows:
        words += [w ^ g for w in words]
    words.sort()
    return tuple(words)


def check_list_decodable(code: LinearCode, radius: int) -> None:
    """The limits of list_decode_exhaustive, for protocols to check before
    they run."""
    if code.n > _DECODE_ENUM_LIMIT:
        raise CapabilityError(f"exhaustive decoding is capped at n <= {_DECODE_ENUM_LIMIT}")
    if not 0 <= radius <= code.n:
        raise ContractError("radius must be in [0, n]")


def list_decode_exhaustive(code: LinearCode, y: Word, radius: int) -> list[Word]:
    """All codewords within the given distance of y, ascending by value.
    Relies on check_list_decodable(code, radius) and y.n == code.n, which the
    list protocols check at entry (syncdet._check_list_radius)."""
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


def min_distance(code: LinearCode) -> int:
    """Minimum weight of a nonzero codeword (enumerates all 2^k of them)."""
    return min(c.bit_count() for c in codewords(code) if c)


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
