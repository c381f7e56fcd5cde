"""hamsync benchmark: what a sync costs in time, in bits, and in wrong words.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the hamsync source under
``src/`` and the standard library only.  Each workload is a closed loop with
one caller: the next sync starts when the previous one has returned.  The
run starts WORKERS fresh interpreters one after another, each for S/WORKERS
seconds (see worker.py), so set-up time is sampled WORKERS times and the
timings pool trials from several processes spread over the whole run.
Latency percentiles, throughput, bits and outcome counts are taken over all
trials of all workers; set-up time and memory are medians over workers.

The timing metrics (``*_norm`` and ``setup_s``) are normalised for the
host's speed, which drifts by a third or more on shared virtual CPUs: the
CPU time of each trial and of each set-up is rescaled to a nominal machine
on which a fixed reference kernel takes 1 ms, timed in the same process
every quarter second (see reference.py), and waiting time is kept as
measured.  The report lines before the JSON object also give the raw
wall-clock figures and the kernel's median time.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` each worker runs half its time
untraced and half traced over the same trials, and the JSON object holds
the per-layer metrics.  The lines before it name each metric with its unit
and sample count, and record the environment.  The exit code is 0 only when
every trial passed its checks.

Smoke test (schema, metric names and the deterministic bit counts):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS = 7

# name, unit, better, bound
END_TO_END = (
    ("trials_per_s_norm", "1/s", "higher", 0.25),
    ("trial_ms_p50_norm", "ms", "lower", 0.25),
    ("trial_ms_p90_norm", "ms", "lower", 0.25),
    ("bits_per_trial", "bits", "lower", 0.05),
    ("bits_over_lower_bound", "ratio", "lower", 0.05),
    ("exact_rate", "ratio", "higher", 0.1),
    ("no_silent_error_rate", "ratio", "higher", 0.04),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, which end-to-end metric it should move, on which workload
PER_LAYER = (
    ("transport.driver_self_ms", "ms", "lower",
     "trials_per_s_norm and trial_ms_p50_norm on desk-loopback (about half a trial); under 1% on smith-*"),
    ("transport.messages_per_trial", "count", "lower", "trial_ms_p50_norm on tcp-interactive"),
    ("transport.rounds_per_trial", "count", "lower", "trial_ms_p50_norm on tcp-interactive"),
    ("transport.tcp_recv_wait_ms", "ms", "lower",
     "trial_ms_p90_norm and trials_per_s_norm on tcp-interactive (Bob's thread blocked in TcpEnd.recv_bits)"),
    ("transport.tcp_send_ms", "ms", "lower", "trial_ms_p90_norm and trials_per_s_norm on tcp-interactive"),
    ("transport.tcp_wire_bits_ratio", "ratio", "lower",
     "framed bits over payload bits on tcp-interactive; 0 where TCP is unused"),
    ("gf2k_rs.rs_extra_evals_ms", "ms", "lower",
     "trials_per_s_norm and trial_ms_p50_norm on smith-2048; less on smith-stress; none elsewhere"),
    ("gf2k_rs.rs_correct_ms", "ms", "lower",
     "trials_per_s_norm and trial_ms_p50_norm on smith-2048; less on smith-stress; none elsewhere"),
    ("gf2k_rs.rs_correct_none_share", "ratio", "lower", "exact_rate on smith-stress"),
    ("gf2k_rs.field_s", "s", "lower", "setup_s on smith-*"),
    ("probproto.apply_permutation_ms", "ms", "lower", "trials_per_s_norm on smith-2048 and smith-stress"),
    ("probproto.apply_permutation_calls", "count", "lower", "trials_per_s_norm on smith-*"),
    ("probproto.sample_inner_code_ms", "ms", "lower", "trials_per_s_norm on smith-stress"),
    ("probproto.inner_code_attempts", "count", "lower",
     "trials_per_s_norm on smith-stress (random_linear_code calls per accepted inner code)"),
    ("probproto.party_ms", "ms", "lower", "trials_per_s_norm on smith-* and desk-loopback (problist)"),
    ("gf2codes.unique_decode_ms", "ms", "lower", "trials_per_s_norm on smith-2048 and smith-stress"),
    ("gf2codes.unique_decode_calls", "count", "lower", "trials_per_s_norm on smith-*"),
    ("gf2codes.mat_vec_ms", "ms", "lower", "trials_per_s_norm on desk-loopback and smith-*"),
    ("gf2codes.mat_vec_calls", "count", "lower", "trials_per_s_norm on desk-loopback and smith-*"),
    ("gf2codes.list_decode_exhaustive_ms", "ms", "lower", "trials_per_s_norm on desk-loopback"),
    ("gf2codes.affine_solver_build_ms", "ms", "lower",
     "trials_per_s_norm on desk-loopback and tcp-interactive (rebuilt per coset_representative)"),
    ("gf2codes.codewords_hit_ratio", "ratio", "higher", "trials_per_s_norm on smith-* and desk-loopback"),
    ("hashing.find_injective_prime_ms", "ms", "lower", "trial_ms_p50_norm on desk-loopback and tcp-interactive"),
    ("hashing.find_secondary_hash_ms", "ms", "lower", "trial_ms_p50_norm on desk-loopback and tcp-interactive"),
    ("hashing.random_prime_hash_ms", "ms", "lower", "trial_ms_p50_norm on desk-loopback"),
    ("hashing.party_ms", "ms", "lower", "trial_ms_p50_norm on desk-loopback and tcp-interactive"),
    ("hashing.prime_pool_s", "s", "lower", "setup_s on desk-loopback"),
    ("syncdet.coset_representative_ms", "ms", "lower", "trials_per_s_norm on desk-loopback"),
    ("syncdet.party_ms", "ms", "lower", "trials_per_s_norm on desk-loopback and tcp-interactive"),
    ("syncdet.build_greedy_coloring_s", "s", "lower", "setup_s on desk-loopback"),
    ("bitword.pack_fields_ms", "ms", "lower", "trial_ms_p50_norm on desk-loopback and tcp-interactive"),
    ("bitword.unpack_fields_ms", "ms", "lower", "trial_ms_p50_norm on desk-loopback and tcp-interactive"),
    ("trace_overhead", "ratio", "higher", "none: traced over untraced trials_per_s_norm, in each worker"),
)

# per-trial self time of these spans, in ms
SPAN_MS = {
    "gf2k_rs.rs_extra_evals_ms": ("gf2k_rs.rs_extra_evals",),
    "gf2k_rs.rs_correct_ms": ("gf2k_rs.rs_correct",),
    "probproto.apply_permutation_ms": ("probproto.apply_permutation",),
    "probproto.sample_inner_code_ms": ("probproto.sample_inner_code",),
    "probproto.party_ms": ("probproto.party",),
    "gf2codes.unique_decode_ms": ("gf2codes.unique_decode",),
    "gf2codes.mat_vec_ms": ("gf2codes.mat_vec",),
    "gf2codes.list_decode_exhaustive_ms": ("gf2codes.list_decode_exhaustive",),
    "gf2codes.affine_solver_build_ms": ("gf2codes.affine_solver_build",),
    "hashing.find_injective_prime_ms": ("hashing.find_injective_prime",),
    "hashing.find_secondary_hash_ms": ("hashing.find_secondary_hash",),
    "hashing.random_prime_hash_ms": ("hashing.random_prime_hash",),
    "hashing.party_ms": ("hashing.party",),
    "syncdet.coset_representative_ms": ("syncdet.coset_representative",),
    "syncdet.party_ms": ("syncdet.party",),
    "bitword.pack_fields_ms": ("bitword.pack_fields",),
    "bitword.unpack_fields_ms": ("bitword.unpack_fields",),
    "transport.driver_self_ms": ("transport.run_protocol", "transport.run_party"),
    "transport.tcp_send_ms": ("transport.tcp_send",),
}
# calls per trial
SPAN_CALLS = {
    "probproto.apply_permutation_calls": "probproto.apply_permutation",
    "gf2codes.unique_decode_calls": "gf2codes.unique_decode",
    "gf2codes.mat_vec_calls": "gf2codes.mat_vec",
}
# self time of these spans during set-up, in s (median over workers)
SETUP_S = {
    "gf2k_rs.field_s": ("gf2k_rs.field",),
    "hashing.prime_pool_s": ("hashing.random_prime_pool", "hashing.sieve_primes"),
    "syncdet.build_greedy_coloring_s": ("syncdet.build_greedy_coloring",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timings(latencies: list[float]) -> tuple[float, float, float]:
    """Trials per busy second, p50 and p90 in ms."""
    latencies = sorted(latencies)
    n = len(latencies)
    return n / sum(latencies), statistics.median(latencies) * 1e3, latencies[min(n - 1, (9 * n) // 10)] * 1e3


def end_to_end(workers: list[dict]) -> dict[str, float]:
    plain = [w["plain"] for w in workers]
    trials = sum(p["trials"] for p in plain)
    outcomes = {k: sum(p["outcomes"][k] for p in plain) for k in plain[0]["outcomes"]}
    completed = trials - outcomes["raised_error"]
    rate, p50, p90 = timings([x for p in plain for x in p["normalised"]])
    return {
        "trials_per_s_norm": rate,
        "trial_ms_p50_norm": p50,
        "trial_ms_p90_norm": p90,
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "bits_per_trial": _ratio(sum(p["bits"] for p in plain), completed),
        "bits_over_lower_bound": _ratio(sum(p["bound_bits"] for p in plain), sum(p["bound"] for p in plain)),
        "exact_rate": outcomes["exact"] / trials,
        "no_silent_error_rate": 1 - outcomes["silent_error"] / trials,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }


def per_layer(workers: list[dict]) -> dict[str, float]:
    traced = [w["traced"] for w in workers]
    spans = [w["spans"] for w in workers]
    n = sum(t["trials"] for t in traced)

    def pooled(key: str, name: str) -> float:
        return sum(s[key].get(name, 0) for s in spans)

    out = {m: sum(pooled("trial_s", s) for s in names) / n * 1e3 for m, names in SPAN_MS.items()}
    out.update({m: pooled("calls", name) / n for m, name in SPAN_CALLS.items()})
    for metric, names in SETUP_S.items():
        out[metric] = statistics.median(sum(s["setup_s"].get(x, 0.0) for x in names) for s in spans)
    out["transport.tcp_recv_wait_ms"] = pooled("main_trial_s", "transport.tcp_recv") / n * 1e3
    out["transport.messages_per_trial"] = sum(t["messages"] for t in traced) / n
    out["transport.rounds_per_trial"] = sum(t["rounds"] for t in traced) / n
    payload = sum(t["bits"] for t in traced)
    out["transport.tcp_wire_bits_ratio"] = _ratio(sum(t["wire_bits"] for t in traced), payload)
    out["gf2k_rs.rs_correct_none_share"] = _ratio(
        sum(t["rs_failures"] for t in traced), pooled("calls", "gf2k_rs.rs_correct")
    )
    out["probproto.inner_code_attempts"] = _ratio(
        pooled("nested", "probproto.sample_inner_code>gf2codes.random_linear_code"),
        pooled("calls", "probproto.sample_inner_code"),
    )
    hits = sum(w["codewords"]["hits"] for w in workers)
    out["gf2codes.codewords_hit_ratio"] = _ratio(hits, hits + sum(w["codewords"]["misses"] for w in workers))
    out["trace_overhead"] = statistics.median(
        (w["traced"]["trials"] / sum(w["traced"]["normalised"]))
        / (w["plain"]["trials"] / sum(w["plain"]["normalised"]))
        for w in workers
    )
    return out


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, index: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        args.workload,
        str(args.seed),
        repr(args.seconds / WORKERS),
        str(args.trace),
        str(index),
    ]
    # Generous for set-up, yet WORKERS timeouts stay within a few minutes.
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30 + args.seconds / WORKERS, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hamsync" / "__init__.py").is_file():
        print(f"error: no hamsync source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(
        f"env python={platform.python_version()} cpu_count={os.cpu_count()}"
        f" affinity={','.join(map(str, sorted(os.sched_getaffinity(0))))}"
        f" git={git_sha()} loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())}"
    )
    try:
        workers = [run_worker(args, i) for i in range(WORKERS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    segments = [w["plain"] for w in workers] + [w["traced"] for w in workers if "traced" in w]
    attempted = sum(s["trials"] for s in segments)
    failed = sum(s["outcomes"]["raised_error"] for s in segments)
    mismatches = [m for s in segments for m in s["mismatches"]]
    mismatch_count = sum(s["mismatch_count"] for s in segments)
    plain_trials = sum(w["plain"]["trials"] for w in workers)
    outcomes = {k: sum(w["plain"]["outcomes"][k] for w in workers) for k in workers[0]["plain"]["outcomes"]}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} workers={WORKERS}")
    print(f"untraced trials={plain_trials} outcomes={json.dumps(outcomes)}")
    print(
        f"failure_rate={(plain_trials - outcomes['exact']) / plain_trials}"
        f" silent_error_rate={outcomes['silent_error'] / plain_trials}"
    )
    rate, p50, p90 = timings([x for w in workers for x in w["plain"]["latencies"]])
    kernel_ms = statistics.median(x for w in workers for x in w["plain"]["kernel_s"]) * 1e3
    setup_wall = statistics.median(w["setup_wall_s"] for w in workers)
    print(
        f"wall clock, not normalised: trials_per_s={rate:.6g} trial_ms_p50={p50:.6g} trial_ms_p90={p90:.6g}"
        f" setup_s={setup_wall:.6g}; reference kernel median {kernel_ms:.4g} ms"
        f" (nominal {reference.NOMINAL_S * 1e3:g} ms)"
    )
    if args.trace:
        values = per_layer(workers)
        traced_trials = sum(w["traced"]["trials"] for w in workers)
        print(f"traced trials={traced_trials} bits_per_trial={sum(w['traced']['bits'] for w in workers) / traced_trials}")
        table = [(name, unit, values[name], f"moves {moves}") for name, unit, _better, moves in PER_LAYER]
    else:
        values = end_to_end(workers)
        note = f"over {plain_trials} trials in {WORKERS} workers"
        table = [(name, unit, values[name], note if name.startswith("trial") else "") for name, unit, _b, _bound in END_TO_END]
    for name, unit, value, note in table:
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")
    for text in mismatches[:20]:
        print(f"MISMATCH {text}")
    if mismatch_count:
        print(f"{mismatch_count} mismatches in all")
    correct = mismatch_count == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, unit, value, _note in table},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
