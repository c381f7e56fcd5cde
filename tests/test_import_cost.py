"""Only a TCP run loads the socket stack and only a CSV report loads csv.

The check runs in a fresh interpreter, since pytest itself has already
loaded socket and csv.  It reports which of the deferred modules are
loaded after each stage: the import, a loopback run of every protocol with
a JSON report, a TCP listener, and a CSV report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

DEFERRED = ("socket", "_socket", "selectors", "select", "csv", "_csv", "hashlib")

SCRIPT = """
import json, os, sys, tempfile

def loaded():
    return sorted(m for m in sys.argv[1:] if m in sys.modules)

stages = {}
import hamsync, hamsync.harness
from hamsync.harness import PROTOCOLS, ExperimentConfig, emit_report, run_experiment
from hamsync.transport import TcpListener
stages["import"] = loaded()
rows = []
for protocol in sorted(PROTOCOLS):
    rows += run_experiment(ExperimentConfig(protocol=protocol, trials=2, seed=5))
with tempfile.TemporaryDirectory() as tmp:
    emit_report(rows, "json", os.path.join(tmp, "report.json"))
    stages["loopback"] = loaded()
    TcpListener("127.0.0.1", 0).close()
    stages["listener"] = loaded()
    emit_report(rows, "csv", os.path.join(tmp, "report.csv"))
    stages["csv"] = loaded()
print(json.dumps(stages))
"""


def test_only_tcp_loads_socket_and_only_csv_reports_load_csv():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *DEFERRED],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["loopback"] == []
    assert {"socket", "_socket"} <= set(stages["listener"])
    assert not {"csv", "_csv", "hashlib"} & set(stages["listener"])
    assert {"csv", "_csv"} <= set(stages["csv"])
    assert "hashlib" not in stages["csv"]
