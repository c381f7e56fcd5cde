import csv
import json
import threading
from fractions import Fraction

import pytest

from hamsync.errors import CapabilityError, ContractError
from hamsync.harness import (
    PROTOCOLS,
    REPORT_FIELDS,
    ExperimentConfig,
    emit_report,
    run_experiment,
)


def row_for(protocol, **kw):
    rows = run_experiment(ExperimentConfig(protocol=protocol, **kw))
    assert len(rows) == 1
    return rows[0]


def test_registry_contents():
    assert set(PROTOCOLS) == {
        "naive",
        "brute",
        "syndrome",
        "listdec",
        "coloring",
        "nba",
        "multinba",
        "problist",
        "smith",
    }
    assert PROTOCOLS["syndrome"].default_n == 7
    assert PROTOCOLS["syndrome"].default_alpha == Fraction(1, 7)
    assert PROTOCOLS["listdec"].default_n == 14
    assert PROTOCOLS["smith"].default_n == 2048
    assert PROTOCOLS["smith"].default_alpha == Fraction(1, 20)


def test_syndrome_exhaustive_row():
    row = row_for("syndrome", exhaustive=True)
    assert row.trials == 1024
    assert row.success_rate == 1.0
    assert row.mean_bits == 3.0
    assert row.max_bits == 3
    assert row.rounds == 1
    assert row.lower_bound_bits == 3.0
    assert row.alpha == "1/7"


def test_brute_exhaustive_row():
    row = row_for("brute", exhaustive=True)
    assert row.trials == 80
    assert row.success_rate == 1.0
    assert row.max_bits == 3


def test_promise_protocols_always_succeed():
    cases = [
        ("naive", 30),
        ("brute", 30),
        ("syndrome", 30),
        ("coloring", 30),
        ("listdec", 30),
        ("nba", 30),
        ("multinba", 30),
        ("problist", 30),
        ("smith", 10),
    ]
    for protocol, trials in cases:
        row = row_for(protocol, trials=trials)
        assert row.success_rate == 1.0, protocol
        assert row.trials == trials


def test_naive_costs_exactly_n():
    row = row_for("naive", trials=20)
    assert row.mean_bits == 8.0
    assert row.max_bits == 8
    assert row.rounds == 1


def test_compressing_protocols_send_fewer_than_n_bits():
    cases = [
        ("brute", dict(exhaustive=True)),
        ("syndrome", dict(exhaustive=True)),
        ("coloring", dict(trials=40)),
        ("smith", dict(trials=5)),
    ]
    for protocol, kw in cases:
        row = row_for(protocol, **kw)
        assert row.max_bits < PROTOCOLS[protocol].default_n, protocol
        assert row.mean_bits >= row.lower_bound_bits


def test_rows_deterministic_up_to_wall_time():
    a = row_for("multinba", trials=8, seed=4)
    b = row_for("multinba", trials=8, seed=4)
    for name in REPORT_FIELDS:
        assert getattr(a, name) == getattr(b, name)


def test_reports_are_byte_stable(tmp_path):
    for fmt, suffix in (("csv", "csv"), ("json", "json")):
        paths = [tmp_path / f"{tag}.{suffix}" for tag in ("a", "b")]
        for path in paths:
            rows = run_experiment(
                ExperimentConfig(protocol="listdec", trials=12, seed=9)
            )
            emit_report(rows, fmt, str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_header_and_field_count(tmp_path):
    path = tmp_path / "r.csv"
    rows = [row_for("naive", trials=3), row_for("syndrome", trials=3)]
    emit_report(rows, "csv", str(path))
    with open(path, newline="") as f:
        parsed = list(csv.reader(f))
    assert parsed[0] == list(REPORT_FIELDS)
    assert len(parsed) == 3
    assert all(len(r) == len(REPORT_FIELDS) for r in parsed)


def test_json_fields_and_order(tmp_path):
    path = tmp_path / "r.json"
    emit_report([row_for("nba", trials=5)], "json", str(path))
    data = json.loads(path.read_text())
    assert len(data) == 1
    assert list(data[0]) == list(REPORT_FIELDS)
    assert data[0]["protocol"] == "nba"
    assert data[0]["trials"] == 5
    assert "wall_time_s" not in data[0]
    diag = json.loads(data[0]["diagnostics"])
    assert diag["set_size"] == 4


def test_configuration_errors():
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="nope"))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="syndrome", params={"k": 3}))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="syndrome", trials=0))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="nba", exhaustive=True))
    with pytest.raises(ContractError):
        # 2^14 * Vol(3, 14) is over the enumeration budget
        run_experiment(ExperimentConfig(protocol="listdec", exhaustive=True))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="syndrome", listen="a:1", connect="b:2"))
    # Malformed addresses only: a well-formed listen= opens a real listener.
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="syndrome", listen="127.0.0.1"))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="syndrome", connect="127.0.0.1:notaport"))
    with pytest.raises(ContractError):
        # more distinct 2-bit words than exist; the sampler used to loop forever
        run_experiment(ExperimentConfig(protocol="nba", n=2, params={"k": 5}))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="multinba", n=2, params={"k": 5, "l": 1}))
    with pytest.raises(ContractError):
        # checked before Alice starts, not inside her generator
        run_experiment(ExperimentConfig(protocol="problist", params={"oversample": 1}))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="nba", params={"k": 0}))
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol="multinba", params={"k": 3, "l": 4}))
    with pytest.raises(CapabilityError):
        # the same error composite_prob_sync raises for a block this wide
        run_experiment(ExperimentConfig(protocol="smith", params={"k": 15}))


@pytest.mark.parametrize("protocol", ["listdec", "problist"])
def test_list_decoding_limits_fail_before_the_run(protocol):
    # The parties' own errors, raised before a trial runs or a socket opens.
    with pytest.raises(ContractError):
        run_experiment(ExperimentConfig(protocol=protocol, trials=2, params={"radius": 15}))
    with pytest.raises(CapabilityError):
        run_experiment(ExperimentConfig(protocol=protocol, n=30, alpha=Fraction(1, 10), trials=2))


@pytest.mark.parametrize("connect", [None, "127.0.0.1:1"])
def test_smith_inner_code_shape_fails_before_the_run(connect):
    # No [8, 6] code has distance 3; the sampler used to give up inside
    # Alice's first trial, and over TCP only after the socket opened.
    cfg = ExperimentConfig(
        protocol="smith", n=64, trials=1, params={"k": 8, "inner_dim": 6, "s": 4}, connect=connect
    )
    with pytest.raises(ContractError, match="distance"):
        run_experiment(cfg)


def test_float_alpha_keeps_its_decimal_value():
    # 0.15 is 3/20, radius 3 at n=20, not the binary double just below it.
    row = row_for("listdec", n=20, alpha=0.15, trials=3)
    exact = row_for("listdec", n=20, alpha=Fraction(3, 20), trials=3)
    assert row.alpha == "3/20"
    for name in REPORT_FIELDS:
        assert getattr(row, name) == getattr(exact, name)


def test_emit_report_errors(tmp_path):
    row = row_for("naive", trials=2)
    with pytest.raises(OSError):
        emit_report([row], "csv", str(tmp_path / "missing" / "r.csv"))
    with pytest.raises(ContractError):
        emit_report([row], "yaml", str(tmp_path / "r.yaml"))


def test_tcp_run_matches_loopback():
    base = dict(protocol="syndrome", trials=6, seed=11)
    spec = "127.0.0.1:38471"
    listener_rows = []

    def serve():
        listener_rows.append(
            run_experiment(ExperimentConfig(listen=spec, **base))
        )

    t = threading.Thread(target=serve)
    t.start()
    tcp_row = run_experiment(ExperimentConfig(connect=spec, **base))[0]
    t.join()
    assert listener_rows == [[]]
    loop_row = run_experiment(ExperimentConfig(**base))[0]
    for name in REPORT_FIELDS:
        assert getattr(tcp_row, name) == getattr(loop_row, name)


# Reports of every protocol at its registry defaults under one seed.  These
# bytes pin transcripts, recovered words, shared-code sampling and the order
# in which the experiment seed is consumed; any refactor must keep them.
GOLDEN_CSV_LINES = (
    'protocol,n,alpha,trials,success_rate,mean_bits,max_bits,rounds,lower_bound_bits,entropy_reference_bits,diagnostics',
    'brute,4,1/4,20,1.0,3.0,3,1,2.321928,4.0,"{""check_bits"": 3, ""decode_distance"": 1}"',
    'coloring,10,1/10,20,1.0,4.0,4,1,3.459432,7.219281,"{""color_bits"": 4, ""n_colors"": 16}"',
    'listdec,14,3/14,20,1.0,20.3,23,3,8.876517,13.793194,"{""list_size"": 2, ""q"": 3, ""set_size"": 2, ""syndrome_bits"": 9}"',
    'multinba,256,0,20,1.0,58.0,58,2,0.0,0.0,"{""q"": 23, ""s"": 14, ""set_size"": 8}"',
    'naive,8,1/8,20,1.0,8.0,8,1,3.169925,6.490225,{}',
    'nba,16,0,20,1.0,18.0,18,2,0.0,0.0,"{""q"": 5, ""set_size"": 4}"',
    'problist,14,3/14,20,1.0,49.0,49,1,8.876517,13.793194,"{""list_size"": 2, ""q"": 85793}"',
    'smith,2048,1/20,3,1.0,1718.0,1718,1,580.291905,960.502976,"{""block_count"": 187, ""matrix_bits"": 55, ""nba_bits"": 0, ""p"": 2053, ""rs_bits"": 704, ""stage1_bits"": 24, ""syndrome_bits"": 935}"',
    'syndrome,7,1/7,20,1.0,3.0,3,1,3.0,6.041844,"{""decoded_difference_weight"": 1, ""syndrome_bits"": 3}"',
)


def test_golden_report_bytes(tmp_path):
    rows = []
    for protocol in sorted(PROTOCOLS):
        trials = 3 if protocol == "smith" else 20
        rows += run_experiment(ExperimentConfig(protocol=protocol, trials=trials, seed=20))
    path = tmp_path / "golden.csv"
    emit_report(rows, "csv", str(path))
    expected = "".join(line + "\r\n" for line in GOLDEN_CSV_LINES)
    assert path.read_bytes() == expected.encode()
