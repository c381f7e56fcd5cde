"""Smoke test of the benchmark.  It checks BENCHMARK.json's schema and names,
that the file agrees with the benchmark's own tables, the deterministic bit
counts, and one short run in each mode.  It sets no timing threshold.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Transcript bits per trial, measured when the benchmark was defined.
EXPECTED_BITS = {
    "smith-2048": {"smith": 1718},
    "smith-stress": {"smith": 306},
    "desk-loopback": {"brute": 3, "syndrome": 3, "coloring": 4, "nba": 18, "multinba": 58, "problist": 49},
    "tcp-interactive": {"nba": 18, "multinba": 58},
}


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text())


def test_schema_and_names():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [x["name"] for x in spec["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)


def test_file_matches_the_benchmark_tables():
    spec = _spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == [row[:3] for row in run.PER_LAYER]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_deterministic_bit_counts(name):
    workload = workloads.WORKLOADS[name]
    slots = workloads.build_slots(workload, seed=3, worker=0)
    driver = workloads.open_driver(workload)
    seg = worker.Segment(keep_trials=False)
    bits = {}
    try:
        for i, slot in enumerate(slots):
            _wall, _cpu, outcome, error = driver.run(slot.pool[1], Random(i))
            assert error is None
            _cls, bits[slot.protocol] = worker.check_trial(seg, workload, slot, slot.pool[1], outcome, error, i)
    finally:
        driver.close()
    assert seg.mismatches == []
    for protocol, expected in EXPECTED_BITS[name].items():
        assert bits[protocol] == expected


def test_harness_agrees_on_smith_bits():
    assert worker.oracle_check(workloads.WORKLOADS["smith-2048"], seed=5) == []


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_short_run_prints_every_metric(trace, table):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tcp-interactive", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {row[0]: row[1] for row in table}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-loopback", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_normalise_scales_cpu_time_and_keeps_waiting():
    ref = 2 * reference.NOMINAL_S  # a host at half the nominal speed
    assert reference.normalise(wall=0.010, cpu=0.010, ref=ref) == pytest.approx(0.005)
    assert reference.normalise(wall=0.050, cpu=0.010, ref=ref) == pytest.approx(0.045)
    # CPU time beyond the wall time (a second thread) counts as wall time.
    assert reference.normalise(wall=0.010, cpu=0.015, ref=ref) == pytest.approx(0.005)
