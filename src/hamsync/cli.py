"""Command-line front end.

`hamsync run` sweeps one protocol and prints an aggregated row (optionally
writing it to a CSV or JSON file); `hamsync bounds` prints the entropy and
log-volume yardsticks that the reports compare against.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .bitword import Bounds, ball_volume, binary_entropy, log2_big
from .errors import CapabilityError, ContractError, ProtocolExecutionError, TransportError
from .harness import PROTOCOLS, ExperimentConfig, emit_report, run_experiment

# Protocol knobs, each with a flag of the same name (dashes for underscores).
_PARAM_NAMES = sorted({name for spec in PROTOCOLS.values() for name in spec.default_params})


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hamsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one protocol experiment")
    run.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
    run.add_argument("--n", type=int, default=None, help="word length (protocol default if omitted)")
    run.add_argument("--alpha", type=_fraction, default=None, help="mismatch rate, e.g. 1/7 or 0.1")
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--exhaustive", action="store_true", help="enumerate every promise pair instead of sampling")
    run.add_argument("--listen", metavar="HOST:PORT", default=None, help="serve the Alice side over TCP")
    run.add_argument("--connect", metavar="HOST:PORT", default=None, help="run the Bob side over TCP and report")
    run.add_argument("--out", default=None, help="write the report to this file")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--k", type=int, default=None, help="candidate-set size (nba, multinba) or block width (smith)")
    run.add_argument("--code-k", dest="code_k", type=int, default=None, help="code dimension (listdec, problist)")
    run.add_argument("--l", type=int, default=None, help="words to identify per batch (multinba)")
    run.add_argument("--s", type=int, default=None, help="RS sum count (smith)")
    run.add_argument("--inner-dim", dest="inner_dim", type=int, default=None, help="per-block code dimension (smith)")
    run.add_argument("--radius", type=int, default=None, help="list radius (listdec, problist)")
    run.add_argument("--oversample", type=int, default=None, help="prime-pool factor (problist)")
    run.add_argument("--list-cap", dest="list_cap", type=int, default=None, help="list-size budget (problist)")
    run.add_argument("--delta", type=_fraction, default=None, help="dangerous-block slack (smith)")
    run.set_defaults(func=_cmd_run)

    bounds = sub.add_parser("bounds", help="print entropy and log-volume references")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--alpha", type=_fraction, required=True)
    bounds.set_defaults(func=_cmd_bounds)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.listen and args.out:
        raise ContractError("--listen writes no report; give --out on the connecting side")
    params = {}
    for name in _PARAM_NAMES:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    cfg = ExperimentConfig(
        protocol=args.protocol,
        n=args.n,
        alpha=args.alpha,
        trials=args.trials,
        seed=args.seed,
        exhaustive=args.exhaustive,
        listen=args.listen,
        connect=args.connect,
        params=params,
    )
    rows = run_experiment(cfg)
    if not rows:
        print("listener done: all trials served")
        return 0
    if args.out:
        emit_report(rows, args.format, args.out)
        print(f"wrote {args.out}")
    for row in rows:
        print(
            f"{row.protocol} n={row.n} alpha={row.alpha} trials={row.trials} "
            f"success_rate={row.success_rate} mean_bits={row.mean_bits} "
            f"max_bits={row.max_bits} rounds={row.rounds} "
            f"lower_bound={row.lower_bound_bits} entropy_ref={row.entropy_reference_bits} "
            f"wall={row.wall_time_s:.2f}s"
        )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    b = Bounds(args.alpha, args.n)
    n, r = args.n, b.radius
    print(f"n={n} alpha={b.alpha} radius={r}")
    print(f"H(alpha)*n   = {binary_entropy(float(b.alpha)) * n:.6f}")
    print(f"H(2*alpha)*n = {binary_entropy(float(2 * b.alpha)) * n:.6f}")
    print(f"log2 Vol({r}, {n}) = {log2_big(ball_volume(r, n)):.6f}")
    print(f"log2 Vol({2 * r}, {n}) = {log2_big(ball_volume(2 * r, n)):.6f}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapabilityError, ContractError, ProtocolExecutionError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
