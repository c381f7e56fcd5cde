import argparse
import json
import socket
import threading

import pytest

from hamsync.cli import _PARAM_NAMES, _build_parser, main
from hamsync.harness import PROTOCOLS


def test_run_writes_report(tmp_path, capsys):
    out = tmp_path / "row.json"
    rc = main(
        [
            "run",
            "--protocol",
            "syndrome",
            "--exhaustive",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "success_rate=1.0" in printed
    data = json.loads(out.read_text())
    assert data[0]["trials"] == 1024
    assert data[0]["max_bits"] == 3


def test_run_protocol_flags_reach_the_registry(capsys):
    rc = main(["run", "--protocol", "nba", "--trials", "12", "--k", "3", "--seed", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "trials=12" in printed
    assert "success_rate=1.0" in printed


def test_every_protocol_parameter_has_a_flag():
    # _cmd_run reads one attribute per registry parameter; a parameter
    # without a flag would make every run fail with AttributeError.
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    run_flags = {a.dest: a for a in subparsers.choices["run"]._actions}
    general = {
        "help", "protocol", "n", "alpha", "trials", "seed", "exhaustive",
        "listen", "connect", "out", "format",
    }
    assert set(run_flags) - general == set(_PARAM_NAMES)
    for spec in PROTOCOLS.values():
        for name, default in spec.default_params.items():
            if default is not None:
                assert run_flags[name].type(str(default)) == default


def test_run_coloring_past_the_old_cube_cap(capsys):
    # n = 23 at r = 3, the Golay shape: 11 bits a trial.
    rc = main(["run", "--protocol", "coloring", "--n", "23", "--alpha", "3/23", "--trials", "2"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "success_rate=1.0" in printed
    assert "max_bits=11 " in printed


def test_run_rejects_misdirected_parameter(capsys):
    rc = main(["run", "--protocol", "syndrome", "--k", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_output(capsys):
    rc = main(["bounds", "--n", "2000", "--alpha", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=2000 alpha=1/10 radius=200" in out
    assert "H(alpha)*n" in out
    assert "log2 Vol(200, 2000)" in out


def test_alpha_accepts_plain_fractions(capsys):
    rc = main(["bounds", "--n", "14", "--alpha", "3/14"])
    assert rc == 0
    assert "radius=3" in capsys.readouterr().out


def test_bad_arguments_exit_via_argparse():
    with pytest.raises(SystemExit):
        main(["run"])  # --protocol is required
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "bogus"])
    with pytest.raises(SystemExit):
        main(["bounds", "--n", "10", "--alpha", "zebra"])


def test_listen_rejects_out_before_opening_a_socket(tmp_path, capsys):
    # The listening side returns no rows, so --out would write nothing.  A
    # listener would block in accept, so the run gets a thread and a timeout.
    out = tmp_path / "row.csv"
    codes = []
    run = threading.Thread(
        target=lambda: codes.append(
            main(["run", "--protocol", "syndrome", "--listen", "127.0.0.1:0", "--out", str(out)])
        ),
        daemon=True,
    )
    run.start()
    run.join(timeout=10)
    assert codes == [2]
    assert "connecting side" in capsys.readouterr().err
    assert not out.exists()


def _row(printed: str) -> str:
    (line,) = [l for l in printed.splitlines() if l.startswith("listdec ")]
    return line.rsplit(" wall=", 1)[0]


def test_run_over_tcp_matches_loopback(capsys):
    with socket.socket() as probe:  # a port that is free right now
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    common = ["run", "--protocol", "listdec", "--trials", "10", "--seed", "3"]
    codes = []
    listener = threading.Thread(
        target=lambda: codes.append(main(common + ["--listen", f"127.0.0.1:{port}"])),
        daemon=True,
    )
    listener.start()
    try:
        assert main(common + ["--connect", f"127.0.0.1:{port}"]) == 0
    finally:
        listener.join(timeout=30)
    assert codes == [0]
    tcp_row = _row(capsys.readouterr().out)
    assert main(common) == 0
    assert tcp_row == _row(capsys.readouterr().out)
