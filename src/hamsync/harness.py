"""Experiment runner: protocol sweeps with exact bit accounting, aggregated
into byte-stable CSV / JSON report rows.

Every run is driven by one experiment seed.  The root generator first feeds
any shared setup (sampled codes), then per-trial seeds in a fixed order, so
the listening and connecting sides of a TCP run rebuild identical trial
sequences, and a repeated run reproduces its report byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain, combinations
from random import Random
from typing import Any, Callable, Iterator, Optional

from .bitword import (
    Bounds,
    Word,
    ball_volume,
    binary_entropy,
    lower_bound_bits,
    pack_fields,
    random_word_within,
    unpack_fields,
)
from .errors import ContractError, TransportError
from .gf2codes import check_walk_budget, hamming_7_4, random_linear_code
from .hashing import multi_nba_parties, nba_parties
from .probproto import ProbParams, composite_parties, one_round_prob_parties
from .syncdet import (
    SyncInstance,
    brute_parties,
    coloring_parties,
    listdec_parties,
    syndrome_parties,
)
from .transport import (
    RECV,
    Party,
    Role,
    TcpEnd,
    TcpListener,
    host_port,
    outcome_from_party_run,
    run_party,
    run_protocol,
    tcp_connect,
)

_EXHAUSTIVE_LIMIT = 1_000_000


@dataclass
class ExperimentConfig:
    protocol: str
    n: Optional[int] = None
    alpha: Optional[Fraction] = None
    trials: int = 100
    seed: int = 0
    exhaustive: bool = False
    listen: Optional[str] = None  # HOST:PORT; serve Alice's side over TCP
    connect: Optional[str] = None  # HOST:PORT; run Bob's side over TCP and report
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TrialCase:
    """One protocol run: the word Bob must recover plus both parties, not yet
    started.  Each side of a TCP run drives only its own party."""

    truth: Word
    alice: Party
    bob: Party


@dataclass(frozen=True)
class ReportRow:
    protocol: str
    n: int
    alpha: str
    trials: int
    success_rate: float
    mean_bits: float
    max_bits: int
    rounds: int
    lower_bound_bits: float
    entropy_reference_bits: float
    diagnostics: str
    wall_time_s: float  # console only; kept out of files so they stay byte-stable


# Report columns in ReportRow's field order; wall_time_s is deliberately absent.
REPORT_FIELDS = tuple(f.name for f in fields(ReportRow) if f.name != "wall_time_s")


def _sync_cases(cfg: ExperimentConfig, bounds: Bounds, root: Random, parties) -> Iterator[TrialCase]:
    """Promise-pair instances: either every (x, y) with d <= radius, or
    `trials` sampled ones.  parties(instance, alice_seed) returns the
    protocol's (alice, bob) pair.  A Bob seed is drawn per trial to keep the
    seed order fixed; no promise protocol's Bob draws from it."""
    n, r = bounds.n, bounds.radius
    if cfg.exhaustive:
        if n > 20 or (1 << n) * ball_volume(r, n) > _EXHAUSTIVE_LIMIT:
            raise ContractError("exhaustive sweep exceeds the enumeration budget")
        # Each pair draws its own seeds, so this order is part of the report:
        # by weight, then by the flipped positions, lexicographically.
        masks = [sum(1 << i for i in c) for w in range(r + 1) for c in combinations(range(n), w)]
        for xv in range(1 << n):
            for mask in masks:
                sa = root.getrandbits(64)
                root.getrandbits(64)
                inst = SyncInstance(Word(xv, n), Word(xv ^ mask, n), bounds)
                yield TrialCase(inst.x, *parties(inst, sa))
    else:
        for _ in range(cfg.trials):
            si = root.getrandbits(64)
            sa = root.getrandbits(64)
            root.getrandbits(64)
            rng = Random(si)
            y = Word(rng.getrandbits(n), n)
            inst = SyncInstance(random_word_within(y, r, rng), y, bounds)
            yield TrialCase(inst.x, *parties(inst, sa))


def _identification_draws(cfg: ExperimentConfig, root: Random) -> Iterator[tuple[Random, int]]:
    """Per trial, the generator that draws Bob's set and Alice's words, and
    Bob's seed.  Alice's seed is drawn and unused: her half draws nothing."""
    if cfg.exhaustive:
        raise ContractError("identification runs have no promise pairs to enumerate")
    for _ in range(cfg.trials):
        si = root.getrandbits(64)
        root.getrandbits(64)
        sb = root.getrandbits(64)
        yield Random(si), sb


def _distinct_words(inst: Random, n: int, k: int) -> list[Word]:
    if k > 1 << n:
        raise ContractError(f"cannot draw {k} distinct words of {n} bits")
    seen: set[int] = set()
    words: list[Word] = []
    while len(words) < k:
        v = inst.getrandbits(n)
        if v not in seen:
            seen.add(v)
            words.append(Word(v, n))
    return words


# ---------------------------------------------------------------------------
# per-protocol case builders; every precondition is checked by the
# protocol's own parties function


def _naive_alice(x: Word):
    yield x
    return None


def _naive_bob(n: int):
    (x,) = unpack_fields((yield RECV), [n])
    return Word(x, n), {}


def _build_naive(cfg, bounds, params, root):
    """x sent raw: one message of n bits."""
    return _sync_cases(
        cfg, bounds, root, lambda inst, sa: (_naive_alice(inst.x), _naive_bob(inst.n))
    )


def _build_brute(cfg, bounds, params, root):
    code = hamming_7_4()
    return _sync_cases(cfg, bounds, root, lambda inst, sa: brute_parties(code, inst))


def _build_syndrome(cfg, bounds, params, root):
    code = hamming_7_4()
    return _sync_cases(cfg, bounds, root, lambda inst, sa: syndrome_parties(code, inst))


def _list_code(bounds, params, root):
    """The list protocols' set-up: the list radius, the promise radius unless
    given, checked against the walk budget before their code is drawn."""
    radius = bounds.radius if params["radius"] is None else params["radius"]
    check_walk_budget(bounds.n, radius)  # before a wide code is sampled
    return random_linear_code(bounds.n, params["code_k"], root), radius


def _build_listdec(cfg, bounds, params, root):
    code, radius = _list_code(bounds, params, root)
    return _sync_cases(cfg, bounds, root, lambda inst, sa: listdec_parties(code, radius, inst))


def _build_coloring(cfg, bounds, params, root):
    return _sync_cases(cfg, bounds, root, lambda inst, sa: coloring_parties(inst))


def _build_nba(cfg, bounds, params, root):
    n, k = bounds.n, params["k"]
    for inst, _sb in _identification_draws(cfg, root):
        words = _distinct_words(inst, n, k)
        # An empty set has no member to draw; nba_parties rejects it.
        x = words[inst.randrange(k)] if words else None
        yield TrialCase(x, *nba_parties(x, words, n))


def _build_multinba(cfg, bounds, params, root):
    n, k, l = bounds.n, params["k"], params["l"]
    for inst, sb in _identification_draws(cfg, root):
        words = _distinct_words(inst, n, k)
        # l outside [0, k] cannot be drawn; multi_nba_parties rejects it.
        xs = inst.sample(words, l) if 0 <= l <= k else []
        alice, bob = multi_nba_parties(xs, words, n, Random(sb))
        yield TrialCase(pack_fields([(w.value, n) for w in xs]), alice, bob)


def _build_problist(cfg, bounds, params, root):
    code, radius = _list_code(bounds, params, root)
    oversample, list_cap = params["oversample"], params["list_cap"]

    def parties(inst, sa):
        return one_round_prob_parties(code, radius, inst, oversample, Random(sa), list_cap=list_cap)

    return _sync_cases(cfg, bounds, root, parties)


def _build_smith(cfg, bounds, params, root):
    pp = ProbParams(**params)
    return _sync_cases(cfg, bounds, root, lambda inst, sa: composite_parties(inst, pp, Random(sa)))


@dataclass(frozen=True)
class _ProtoSpec:
    default_n: int
    default_alpha: Fraction
    default_params: dict[str, Any]
    build: Callable[..., Iterator[TrialCase]]


PROTOCOLS: dict[str, _ProtoSpec] = {
    "naive": _ProtoSpec(8, Fraction(1, 8), {}, _build_naive),
    "brute": _ProtoSpec(4, Fraction(1, 4), {}, _build_brute),
    "syndrome": _ProtoSpec(7, Fraction(1, 7), {}, _build_syndrome),
    "listdec": _ProtoSpec(14, Fraction(3, 14), {"code_k": 5, "radius": None}, _build_listdec),
    "coloring": _ProtoSpec(10, Fraction(1, 10), {}, _build_coloring),
    "nba": _ProtoSpec(16, Fraction(0), {"k": 4}, _build_nba),
    "multinba": _ProtoSpec(256, Fraction(0), {"k": 8, "l": 4}, _build_multinba),
    "problist": _ProtoSpec(
        14,
        Fraction(3, 14),
        {"code_k": 5, "radius": None, "oversample": 16, "list_cap": 16},
        _build_problist,
    ),
    "smith": _ProtoSpec(
        2048,
        Fraction(1, 20),
        {"k": 11, "s": 64, "delta": Fraction(3, 20), "inner_dim": 6},
        _build_smith,
    ),
}


# ---------------------------------------------------------------------------
# execution and aggregation


def _scalar_diags(diag: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in diag.items() if isinstance(v, (bool, int, float, str))}


def _agree_on_run(
    end: TcpEnd, cfg: ExperimentConfig, bounds: Bounds, params: dict[str, Any]
) -> None:
    """Exchange one frame with the peer before the first trial: a SHA-256 of
    the protocol, the resolved n, alpha and params, the seed, the trial count
    and exhaustive.  Each side sends its own and checks the peer's, so both
    raise TransportError when they would run different trials.  The frame
    belongs to no transcript, so it is not counted as payload."""
    # Imported here, not with the module: hashlib loads OpenSSL, 3.5 to
    # 3.7 MB of resident memory that only a TCP run needs.
    import hashlib

    run = (
        (cfg.protocol, bounds.n, bounds.alpha, sorted(params.items())),
        (cfg.seed, cfg.trials, cfg.exhaustive),
    )
    digest = Word(int.from_bytes(hashlib.sha256(repr(run).encode()).digest(), "little"), 256)
    end.send_bits(digest)
    if end.recv_bits() != digest:
        raise TransportError(
            "the peer runs a different experiment (protocol, n, alpha, params, seed,"
            " trials or exhaustive differ)"
        )


def run_experiment(cfg: ExperimentConfig) -> list[ReportRow]:
    """Run one configured experiment and aggregate it into a single row.

    With neither listen= nor connect= both parties run in process.  Over
    TCP the listening side plays Alice for every trial and returns no rows;
    the connecting side plays Bob and reports.  Both sides must be started
    with identical configurations, which they check before the first trial
    (_agree_on_run).
    """
    if cfg.protocol not in PROTOCOLS:
        known = ", ".join(sorted(PROTOCOLS))
        raise ContractError(f"unknown protocol {cfg.protocol!r}; choose from {known}")
    if cfg.trials < 1:
        raise ContractError("need at least one trial")
    if cfg.listen and cfg.connect:
        raise ContractError("give at most one of listen= and connect=")
    listen = host_port(cfg.listen) if cfg.listen else None
    connect = host_port(cfg.connect) if cfg.connect else None
    spec = PROTOCOLS[cfg.protocol]
    n = cfg.n if cfg.n is not None else spec.default_n
    alpha = cfg.alpha if cfg.alpha is not None else spec.default_alpha
    bounds = Bounds(alpha, n)
    unknown = set(cfg.params) - set(spec.default_params)
    if unknown:
        raise ContractError(f"parameters not used by {cfg.protocol}: {sorted(unknown)}")
    params = {**spec.default_params, **cfg.params}
    cases = spec.build(cfg, bounds, params, Random(cfg.seed))
    # Build the first case now, so bad parameters fail before a socket opens.
    cases = chain([next(cases)], cases)
    start = time.monotonic()

    if listen:
        listener = TcpListener(*listen)
        try:
            end = listener.accept()
        finally:
            listener.close()
        try:
            _agree_on_run(end, cfg, bounds, params)
            for case in cases:
                run_party(case.alice, Role.ALICE, end)
        finally:
            end.close()
        return []
    if connect:
        end = tcp_connect(*connect)
        try:
            _agree_on_run(end, cfg, bounds, params)
            pairs = (
                (case, outcome_from_party_run(run_party(case.bob, Role.BOB, end)))
                for case in cases
            )
            return [_aggregate(cfg, n, bounds, pairs, start)]
        finally:
            end.close()
    pairs = ((case, run_protocol(case.alice, case.bob)) for case in cases)
    return [_aggregate(cfg, n, bounds, pairs, start)]


def _aggregate(cfg, n, bounds, pairs, start) -> ReportRow:
    count = successes = 0
    bits_sum = bits_max = rounds_max = 0
    diag_first: Optional[dict[str, Any]] = None
    for case, outcome in pairs:
        count += 1
        if not outcome.reported_failure and outcome.recovered == case.truth:
            successes += 1
        bits = outcome.transcript.total_bits
        bits_sum += bits
        bits_max = max(bits_max, bits)
        rounds_max = max(rounds_max, outcome.transcript.rounds)
        if diag_first is None:
            diag_first = outcome.diagnostics
    if count == 0:
        raise ContractError("the experiment produced no trials")
    return ReportRow(
        protocol=cfg.protocol,
        n=n,
        alpha=str(bounds.alpha),
        trials=count,
        success_rate=round(successes / count, 6),
        mean_bits=round(bits_sum / count, 3),
        max_bits=bits_max,
        rounds=rounds_max,
        lower_bound_bits=round(lower_bound_bits(bounds.alpha, n), 6),
        entropy_reference_bits=round(binary_entropy(float(2 * bounds.alpha)) * n, 6),
        diagnostics=json.dumps(_scalar_diags(diag_first or {}), sort_keys=True),
        wall_time_s=time.monotonic() - start,
    )


def emit_report(rows: list[ReportRow], fmt: str, path: str) -> None:
    """Write rows to path; CSV and JSON carry the same fields in the same
    order, and repeated runs under one seed produce identical bytes."""
    if fmt == "csv":
        # Imported here, not with the module: csv is 0.05 to 0.1 MB of
        # resident memory that only a CSV report needs.
        import csv

        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(REPORT_FIELDS)
            for row in rows:
                writer.writerow([getattr(row, name) for name in REPORT_FIELDS])
    elif fmt == "json":
        payload = [{name: getattr(row, name) for name in REPORT_FIELDS} for row in rows]
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    else:
        raise ContractError(f"unknown report format {fmt!r}")
