"""One benchmark worker: set up one workload in a fresh interpreter, run a
closed loop of trials for a fixed time, and print a JSON summary as the last
line of standard output.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE INDEX

run.py starts several workers one after another and combines them.  Set-up
time runs from before ``import hamsync`` until the inputs are drawn, the
shared codes are sampled and one untimed warm-up trial per protocol has
filled the lazy caches; like the trials, it is normalised by the reference
kernel, timed right after it.

With TRACE 1 the worker runs the loop twice over the same trials, first
untraced and then traced, and checks that both give every trial the same
outcome and bit count.

Every SLICE_S seconds the loop times the reference kernel (reference.py);
each trial is also recorded normalised by the mean of the kernel times
before and after its slice.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()
SETUP_CPU = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402  (imports hamsync)
from hamsync import gf2codes, harness  # noqa: E402

MAX_REPORTED_MISMATCHES = 20
# Each traced run overwrites the span sample of its workload and worker.
TRACE_DIR = ROOT / ".bench_out"
SPAN_DUMP_TRIALS = 10
# Short enough to follow the host's speed, long enough that the kernel
# (about 1% of each slice) costs little.
SLICE_S = 0.25
SETUP_KERNEL_CALLS = 25


class Segment:
    """Aggregates of one closed-loop run."""

    def __init__(self, keep_trials: bool) -> None:
        self.latencies = array("d")
        self.normalised = array("d")  # see reference.normalise
        self.kernel_s: list[float] = []  # one per slice boundary
        self.outcomes = dict.fromkeys(workloads.OUTCOMES, 0)
        self.bits = 0
        self.bound_bits = 0  # bits of trials whose lower bound is positive
        self.bound = 0.0
        self.messages = 0
        self.rounds = 0
        self.wire_bits = 0
        self.rs_failures = 0
        self.mismatches: list[str] = []
        self.mismatch_count = 0
        self.trials: list[tuple[str, int]] | None = [] if keep_trials else None

    def mismatch(self, text: str) -> None:
        self.mismatch_count += 1
        if len(self.mismatches) < MAX_REPORTED_MISMATCHES:
            self.mismatches.append(text)

    def summary(self) -> dict:
        return {
            "trials": len(self.latencies),
            "latencies": self.latencies.tolist(),
            "normalised": self.normalised.tolist(),
            "kernel_s": self.kernel_s,
            "outcomes": self.outcomes,
            "bits": self.bits,
            "bound_bits": self.bound_bits,
            "bound": self.bound,
            "messages": self.messages,
            "rounds": self.rounds,
            "wire_bits": self.wire_bits,
            "rs_failures": self.rs_failures,
            "mismatches": self.mismatches,
            "mismatch_count": self.mismatch_count,
        }


def run_segment(workload, slots, driver, seconds, trial_seed, tracer=None, keep_trials=False):
    """Closed loop with one caller: the next trial starts when the last one
    has returned.  Trials take the protocols in turn; trial i of a segment
    always gets the same input and the same Random seed."""
    seg = Segment(keep_trials)
    seeds = Random(trial_seed)
    seg.kernel_s.append(reference.kernel_seconds())
    deadline = time.perf_counter() + seconds
    slice_end = time.perf_counter() + SLICE_S
    times: list[tuple[float, float]] = []  # (wall, cpu) of the slice's trials
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        slot = slots[i % len(slots)]
        case = slot.pool[(i // len(slots)) % len(slot.pool)]
        rng = Random(seeds.getrandbits(64))
        if tracer is not None:
            tracer.trial = i
        wall, cpu, outcome, error = driver.run(case, rng)
        seg.latencies.append(wall)
        times.append((wall, cpu))
        trial = check_trial(seg, workload, slot, case, outcome, error, i)
        if seg.trials is not None:
            seg.trials.append(trial)
        i += 1
        if driver.broken:
            seg.mismatch("the TCP connection failed; the loop stopped early")
            break
        if time.perf_counter() >= slice_end:
            _close_slice(seg, times)
            slice_end = time.perf_counter() + SLICE_S
    if times:
        _close_slice(seg, times)
    if tracer is not None:
        tracer.trial = None
    return seg


def _close_slice(seg: Segment, times: list[tuple[float, float]]) -> None:
    """Time the kernel and record the slice's trials normalised by it."""
    seg.kernel_s.append(reference.kernel_seconds())
    ref = (seg.kernel_s[-2] + seg.kernel_s[-1]) / 2
    seg.normalised.extend(reference.normalise(wall, cpu, ref) for wall, cpu in times)
    times.clear()


def check_trial(seg, workload, slot, case, outcome, error, i) -> tuple[str, int]:
    """Count one trial into seg, record any mismatch, and return its
    (outcome class, transcript bits)."""
    cls = workloads.classify(outcome, case.truth)
    seg.outcomes[cls] += 1
    if cls not in slot.allowed:
        seg.mismatch(f"trial {i} ({slot.protocol}): {cls} {error or ''}".rstrip())
    if outcome is None:
        return cls, 0
    transcript = outcome.transcript
    bits = transcript.total_bits
    seg.bits += bits
    if slot.lower_bound > 0:
        seg.bound_bits += bits
        seg.bound += slot.lower_bound
    seg.messages += len(transcript.messages)
    seg.rounds += transcript.rounds
    if workload.tcp:
        # 4-byte length header, payload padded to whole bytes
        seg.wire_bits += sum(32 + 8 * ((m.payload.n + 7) // 8) for m in transcript.messages)
    if outcome.diagnostics.get("rs_failure"):
        seg.rs_failures += 1
    if slot.expected_bits is not None and bits != slot.expected_bits:
        seg.mismatch(f"trial {i} ({slot.protocol}): {bits} bits, expected {slot.expected_bits}")
    for key, want in (slot.expected_stages or {}).items():
        got = outcome.diagnostics.get(key)
        if got != want:
            seg.mismatch(f"trial {i} ({slot.protocol}): {key}={got}, expected {want}")
    return cls, bits


def oracle_check(workload, seed) -> list[str]:
    """Compare the workload's fixed bit count with the harness's report."""
    if workload.oracle is None:
        return []
    protocol, mean_bits = workload.oracle
    rows = harness.run_experiment(harness.ExperimentConfig(protocol=protocol, trials=2, seed=seed))
    if rows[0].mean_bits != mean_bits:
        return [f"harness reports mean_bits {rows[0].mean_bits} for {protocol}, expected {mean_bits}"]
    return []


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, index = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", int(argv[4])
    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    slots = workloads.build_slots(workload, seed, index)
    driver = workloads.open_driver(workload)
    result: dict = {}
    try:
        for slot in slots:
            driver.run(slot.pool[0], Random(0))
        setup_wall = time.perf_counter() - SETUP_START
        setup_cpu = time.process_time() - SETUP_CPU
        result["setup_wall_s"] = setup_wall
        # One set-up per worker against many slices: take more kernel calls.
        result["setup_s"] = reference.normalise(setup_wall, setup_cpu, reference.kernel_seconds(SETUP_KERNEL_CALLS))
        trial_seed = f"{name}/{seed}/{index}/trials"
        if tracer is None:
            plain = run_segment(workload, slots, driver, seconds, trial_seed)
        else:
            tracer.uninstall()
            plain = run_segment(workload, slots, driver, seconds / 2, trial_seed, keep_trials=True)
            before = gf2codes.codewords.cache_info()
            tracer.install()
            traced = run_segment(workload, slots, driver, seconds / 2, trial_seed, tracer, True)
            tracer.uninstall()
            after = gf2codes.codewords.cache_info()
            for i, (untraced_trial, traced_trial) in enumerate(zip(plain.trials, traced.trials)):
                if untraced_trial != traced_trial:
                    traced.mismatch(f"trial {i}: untraced {untraced_trial}, traced {traced_trial}")
            result["traced"] = traced.summary()
            result["codewords"] = {"hits": after.hits - before.hits, "misses": after.misses - before.misses}
        if index == 0:
            for text in oracle_check(workload, seed):
                plain.mismatch(text)
    finally:
        driver.close()
    # Read before the latency list for run.py is built, which is not the
    # workload's memory.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:  # only now has Alice's thread closed its last span
        result["spans"] = tracer.summary()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{name}-worker{index}.jsonl", SPAN_DUMP_TRIALS)
    for text in driver.alice_errors:
        plain.mismatch(f"alice raised {text}")
    result["plain"] = plain.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
