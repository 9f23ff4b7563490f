import ast
import csv
import importlib
import io
import json
import re
from pathlib import Path

import jsonschema
import pytest

import swapbound
from swapbound.bench import (
    BenchRow,
    bench_summary,
    beta_histogram,
    correlation_csv,
    load_manifest,
    pearson,
    read_circuit_file,
    rows_to_csv,
    run_pair,
)
from swapbound.circuits import interaction_graph, parse_device
from swapbound.cli import main
from swapbound.uncomplexity import compute_bound, standard_beta_grid

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "swapbound" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA = json.loads((ROOT / "src" / "swapbound" / "schemas" / "report_schema.json").read_text())


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_json_validates_against_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "paw4.json"),
        "--device", str(FIXTURES / "tshape7.json"),
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["u_swap"] == 1
    assert doc["ged"] == 1
    assert doc["m_swap_max"] == 4


def test_bound_isomorphic_path(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "chain3.json"),
        "--device", str(FIXTURES / "line5.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["u_swap"] == 0
    assert doc["ged"] == 0


def test_bound_k4_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "complete4.json"),
        "--device", str(FIXTURES / "line5.json"),
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "circuit,device,u_swap,beta_star,m_swap_max,ged,stalled,method"
    cells = row.split(",")
    assert int(cells[2]) <= 3
    assert cells[4] == "12"


def test_bound_k4_on_p4_device(tmp_path, capsys):
    device = {"name": "p4", "num_qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    dpath = tmp_path / "p4.json"
    dpath.write_text(json.dumps(device))
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "complete4.json"),
        "--device", str(dpath),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["u_swap"] <= 3
    assert doc["m_swap_max"] == 12


def test_bound_single_beta(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "star4.json"),
        "--device", str(FIXTURES / "line5.json"),
        "--beta", "0.001",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["beta_star"] == 0.001
    assert "per_beta" not in doc


def test_bound_bad_input_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(
        capsys, "bound", "--circuit", str(bad), "--device", str(FIXTURES / "line5.json")
    )
    assert code == 1
    assert "error" in err


def test_bound_non_string_device_name_exit_one(tmp_path, capsys):
    # printed as "device": 5, the report would fail the bundled schema
    device = tmp_path / "d.json"
    device.write_text('{"name": 5, "num_qubits": 3, "edges": [[0, 1], [1, 2]]}')
    code, out, err = run_cli(
        capsys, "bound", "--circuit", str(FIXTURES / "chain3.json"), "--device", str(device)
    )
    assert (code, out, err) == (1, "", "error: 'name' must be a string\n")


LATIN1_CIRCUIT = b'{"name": "caf\xe9", "qubits": 2, "gates": [[0, 1]]}'


def test_bound_non_utf8_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(LATIN1_CIRCUIT)
    code, out, err = run_cli(
        capsys, "bound", "--circuit", str(bad), "--device", str(FIXTURES / "line5.json")
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bound_missing_file_exit_one(capsys):
    code, _, err = run_cli(
        capsys,
        "bound",
        "--circuit", "/nonexistent/x.json",
        "--device", str(FIXTURES / "line5.json"),
    )
    assert code == 1


def test_oracle_guard_exit_three(tmp_path, capsys, monkeypatch):
    # a 9-qubit ring on a 4x4 grid sends the placement into the similarity
    # search for seconds; the guard must refuse the circuit before that
    placed = []
    monkeypatch.setattr("swapbound.cli.assign_qubits", lambda *args: placed.append(args))
    circuit = {"name": "ring9", "qubits": 9, "gates": [[i, (i + 1) % 9] for i in range(9)]}
    grid = [[r * 4 + c, r * 4 + c + 1] for r in range(4) for c in range(3)]
    grid += [[r * 4 + c, r * 4 + c + 4] for r in range(3) for c in range(4)]
    device = {"name": "grid4x4", "num_qubits": 16, "edges": grid}
    cpath, dpath = tmp_path / "ring9.json", tmp_path / "grid4x4.json"
    cpath.write_text(json.dumps(circuit))
    dpath.write_text(json.dumps(device))
    for extra in ((), ("--all-assignments",)):
        result = run_cli(capsys, "oracle", "--circuit", str(cpath), "--device", str(dpath), *extra)
        assert result == (3, "", "error: brute force is guarded at 8 vertices, got 9\n")
    assert placed == []


def test_oracle_all_assignments_past_the_class_budget_exit_three(capsys, monkeypatch):
    # the pipeline scope places paw4 by the dense fallback instead
    monkeypatch.setattr("swapbound.assignment.CLASS_BUDGET", 2)
    pair = ("--circuit", str(FIXTURES / "paw4.json"), "--device", str(FIXTURES / "tshape7.json"))
    assert run_cli(capsys, "oracle", *pair, "--all-assignments") == (
        3, "", "error: class enumeration is guarded at 2 connected 4-subsets\n"
    )
    assert run_cli(capsys, "oracle", *pair)[0] == 0


def test_oracle_all_assignments_past_the_class_budget_answers_a_zero_swap_embedding(
    tmp_path, capsys
):
    # an 8-ring has over 100,000 connected 8-subsets of a 10x10 grid to class,
    # but it embeds, and no placement needs fewer than 0 swaps
    circuit = {"name": "ring8", "qubits": 8, "gates": [[i, (i + 1) % 8] for i in range(8)]}
    grid = [[r * 10 + c, r * 10 + c + 1] for r in range(10) for c in range(9)]
    grid += [[r * 10 + c, r * 10 + c + 10] for r in range(9) for c in range(10)]
    device = {"name": "grid10x10", "num_qubits": 100, "edges": grid}
    cpath, dpath = tmp_path / "ring8.json", tmp_path / "grid10x10.json"
    cpath.write_text(json.dumps(circuit))
    dpath.write_text(json.dumps(device))
    code, out, err = run_cli(
        capsys, "oracle", "--circuit", str(cpath), "--device", str(dpath), "--all-assignments"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "circuit": "ring8",
        "device": "grid10x10",
        "min_swaps": 0,
        "ig_to_cg": [0, 1, 2, 3, 13, 12, 11, 10],
        "scope": "all-assignments",
    }


def test_assign_embeds_a_thousand_qubit_chain(tmp_path, capsys):
    circuit = {"name": "chain1100", "qubits": 1100, "gates": [[i, i + 1] for i in range(1099)]}
    device = {"name": "line1200", "num_qubits": 1200, "edges": [[i, i + 1] for i in range(1199)]}
    cpath, dpath = tmp_path / "chain1100.json", tmp_path / "line1200.json"
    cpath.write_text(json.dumps(circuit))
    dpath.write_text(json.dumps(device))
    code, out, err = run_cli(capsys, "assign", "--circuit", str(cpath), "--device", str(dpath))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["method"], doc["ged"]) == ("vf2", 0)
    assert doc["ig_to_cg"] == list(range(1100))


@pytest.mark.parametrize(
    "extra, scope",
    [((), "pipeline-assignment"), (("--all-assignments",), "all-assignments")],
)
def test_oracle_json_both_scopes(tmp_path, capsys, extra, scope):
    # the hub on node 1 reaches nodes 0 and 2; one swap fetches leaf 3
    device = {"name": "path4", "num_qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    dpath = tmp_path / "path4.json"
    dpath.write_text(json.dumps(device))
    code, out, _ = run_cli(
        capsys, "oracle", "--circuit", str(FIXTURES / "star4.json"), "--device", str(dpath), *extra
    )
    assert code == 0
    assert json.loads(out) == {
        "circuit": "star4",
        "device": "path4",
        "min_swaps": 1,
        "ig_to_cg": [1, 0, 2, 3],
        "scope": scope,
    }


def test_bound_stall_exit_two(capsys):
    # at ultra-high temperature no exchange improves by the strict margin on a
    # non-matching pair: the run spends its m_swap_max forced swaps and must
    # flag the stall through the exit code
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "star4.json"),
        "--device", str(FIXTURES / "line5.json"),
        "--beta", "1e-300",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["stalled"] is True
    assert doc["u_swap"] == doc["m_swap_max"] == 6


def test_huge_finite_beta_stalls_with_nothing_on_stderr(capsys):
    # beta * (w - w0) overflows to inf at 1e308, and exp(-inf) = 0 is the
    # weight meant: the stall is reported through the exit code alone
    code, out, err = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "ring5.json"),
        "--device", str(FIXTURES / "line5.json"),
        "--beta", "1e308",
    )
    assert (code, err) == (2, "")
    assert json.loads(out)["stalled"] is True


@pytest.mark.parametrize("command", ["bound", "sweep"])
def test_every_sweep_run_stalled_exit_two(capsys, monkeypatch, command):
    # one ultra-high-temperature grid point, where the run spends its stall
    # budget, stalls the whole sweep: the output is printed all the same,
    # flagged stalled, with the assignment and the diameter bound `assign` gives
    pair = ("--circuit", str(FIXTURES / "star4.json"), "--device", str(FIXTURES / "line5.json"))
    assigned = json.loads(run_cli(capsys, "assign", *pair)[1])
    _, fixed, _ = run_cli(capsys, "bound", *pair, "--beta", "1e-300")
    monkeypatch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: (1e-300,))
    code, out, err = run_cli(capsys, command, *pair)
    assert (code, err) == (2, "")
    if command == "sweep":
        assert out == f"beta,m,stalled\n1e-300,{assigned['m_swap_max']},true\n"
        return
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["stalled"] is True
    assert [doc[k] for k in ("ged", "method", "m_swap_max")] == [
        assigned[k] for k in ("ged", "method", "m_swap_max")
    ]
    # the least-bad run is the one grid point's: the fixed-beta report plus its row
    assert doc.pop("per_beta") == [[1e-300, doc["u_swap"], True]]
    assert doc == json.loads(fixed)


def test_qasm_circuit_through_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--circuit", str(FIXTURES / "toffoli3.qasm"),
        "--device", str(FIXTURES / "line5.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["circuit"] == "toffoli3"


def test_sweep_csv_is_99_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--circuit", str(FIXTURES / "chain3.json"),
        "--device", str(FIXTURES / "line5.json"),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "beta,m,stalled"
    assert len(lines) == 100
    assert all(line.split(",")[1] == "0" for line in lines[1:])


@pytest.mark.parametrize(
    "flag, name", [("--device", "line5"), ("--circuit", "paw4")], ids=["line5", "paw4"]
)
def test_curve_csv(capsys, flag, name):
    code, out, _ = run_cli(capsys, "curve", flag, str(FIXTURES / f"{name}.json"))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "beta,entropy"
    assert len(lines) == 100
    golden = (GOLDEN / "cli" / f"curve_{name}.csv").read_text().strip().split("\n")
    fresh = [line.split(",") for line in lines[1:]]
    recorded = [line.split(",") for line in golden[1:]]
    assert [b for b, _ in fresh] == [b for b, _ in recorded]
    assert not any(s.startswith("-") for _, s in fresh)  # a pure state's entropy is 0, not -0
    assert [float(s) for _, s in fresh] == pytest.approx(
        [float(s) for _, s in recorded], abs=1e-12
    )


def test_curve_of_one_qubit_prints_zero_not_negative_zero(tmp_path, capsys):
    # a 1-qubit circuit's state is pure at every beta: its entropy is 0
    path = tmp_path / "one_qubit.json"
    path.write_text(json.dumps({"qubits": 1, "gates": []}))
    code, out, _ = run_cli(capsys, "curve", "--circuit", str(path))
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["0"] * 99


@pytest.mark.parametrize(
    "name, text",
    [
        ("zero.json", json.dumps({"qubits": 0, "gates": []})),
        ("zero.qasm", 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[0];\n'),
    ],
    ids=["json", "qasm"],
)
def test_curve_of_zero_qubits_exits_input(tmp_path, capsys, name, text):
    # a zero-qubit circuit has no Gibbs state: one error line, not a traceback
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "curve", "--circuit", str(path))
    assert (code, out, err) == (1, "", "error: entropy curve of the empty graph is undefined\n")


CHAIN3 = json.dumps({"qubits": 3, "gates": [[0, 1], [1, 2]]})
NO_QUBITS = json.dumps({"qubits": 0, "gates": []})


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("bound --beta=-1", "c.json", CHAIN3, "beta must be finite and >= 0, got -1.0"),
        ("bound --beta=nan", "c.json", CHAIN3, "beta must be finite and >= 0, got nan"),
        ("bound --beta=inf", "c.json", CHAIN3, "beta must be finite and >= 0, got inf"),
        ("bound", "c.json", NO_QUBITS, "empty interaction graph"),
        ("assign", "c.json", NO_QUBITS, "empty interaction graph"),
        ("oracle", "c.json", NO_QUBITS, "empty interaction graph"),
        ("bound", "c.qasm", "qreg q[2];\ncx r[0],q[1];\n",
         "unknown register in 'cx r[0],q[1]' (declared: q)"),
        ("bound", "c.qasm", "qreg q[2];\ncx q[1],q[1];\n",
         "gate on identical qubits in 'cx q[1],q[1]'"),
        ("bound", "c.qasm", "OPENQASM 2.0;\nh q[0];\n", "no qreg declaration found"),
    ],
    ids=[
        "negative_beta", "nan_beta", "infinite_beta", "bound_no_qubits", "assign_no_qubits",
        "oracle_no_qubits", "qasm_unknown_register", "qasm_identical_qubits", "qasm_no_qreg",
    ],
)
def test_input_errors_exit_one_with_one_error_line(tmp_path, capsys, command, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    device = str(FIXTURES / "line5.json")
    code, out, err = run_cli(capsys, *command.split(), "--circuit", str(path), "--device", device)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_assign_csv_of_one_qubit(tmp_path, capsys):
    # K1 is complete, but a one-node image is connected: vf2 places it before the dense rule
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"qubits": 1, "gates": []}))
    device = str(FIXTURES / "line5.json")
    code, out, _ = run_cli(capsys, "assign", "--circuit", str(path), "--device", device,
                           "--format", "csv")
    assert (code, out.splitlines()[1:]) == (0, ["one,line-5,0,vf2,0"])


def test_output_determinism(capsys):
    args = (
        "bound",
        "--circuit", str(FIXTURES / "paw4.json"),
        "--device", str(FIXTURES / "grid2x4.json"),
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_assign_outputs(capsys):
    code, out, _ = run_cli(
        capsys,
        "assign",
        "--circuit", str(FIXTURES / "paw4.json"),
        "--device", str(FIXTURES / "tshape7.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ged"] == 1
    assert doc["method"] == "similarity"


def test_bench_runs_manifest(tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    code, out, err = run_cli(
        capsys,
        "bench",
        str(FIXTURES / "manifest.json"),
        "--out", str(outdir),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("benchmark,device,")
    assert len(lines) == 20  # header + one row per manifest pair
    summary = json.loads((outdir / "bench_summary.json").read_text())
    assert summary["failed_rows"] == 0
    assert summary["sandwich_violations"] == []
    assert (outdir / "bench_rows.csv").read_text() == out
    assert (outdir / "bench_correlation.csv").exists()
    assert (outdir / "bench_beta_histogram.csv").exists()


def test_bench_records_row_failures(tmp_path, capsys):
    manifest = {
        "pairs": [
            {"circuit": "chain3.json", "device": "line5.json"},
            {"circuit": "missing.json", "device": "line5.json"},
        ]
    }
    for name in ("chain3.json", "line5.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "bench", str(mpath))
    assert code == 1  # failures recorded per-row, flagged via exit code
    lines = out.strip().split("\n")
    assert len(lines) == 3


def test_bench_stalled_row_exit_two_other_failure_exit_one(tmp_path, capsys, monkeypatch):
    # no bundled pair stalls at every beta, so the grid is one ultra-high-temperature
    # point: star4 spends its stall budget there, and chain3 embeds on line5
    monkeypatch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: (1e-300,))
    for name in ("chain3.json", "star4.json", "line5.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    pairs = [{"circuit": c, "device": "line5.json"} for c in ("chain3.json", "star4.json")]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"pairs": pairs}))
    code, out, _ = run_cli(capsys, "bench", str(mpath))
    assert code == 2
    header, good, stalled = csv.reader(io.StringIO(out))
    row = dict(zip(header, stalled))
    assert (row["benchmark"], row["stalled"], row["error"]) == (
        "star4", "true", "every sweep run stalled"
    )
    assert dict(zip(header, good))["error"] == ""
    # a row that failed for another reason still exits 1
    mpath.write_text(json.dumps({"pairs": pairs + [{"circuit": "x.json", "device": "line5.json"}]}))
    assert run_cli(capsys, "bench", str(mpath))[0] == 1


def test_bench_summary_counts_stalled_rows_apart_from_failed_ones(
    tmp_path, capsys, monkeypatch
):
    # at beta = 1e-300 no exchange can improve by the strict margin, so the
    # star4 pair spends its stall budget at the one grid point and its row
    # stalls; chain3 embeds on line5 and needs no swap at all
    monkeypatch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: (1e-300,))
    for name in ("chain3.json", "star4.json", "line5.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    pairs = [{"circuit": c, "device": "line5.json"} for c in ("chain3.json", "star4.json")]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"pairs": pairs}))
    code, out, err = run_cli(capsys, "bench", str(mpath), "--out", str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "bench_summary.json").read_text())
    assert json.loads(err) == summary
    assert code == 2
    assert (summary["failed_rows"], summary["stalled_rows"]) == (1, 1)
    # the stalled row keeps the assignment and the diameter bound found before
    # the sweep: the values `swapbound assign` prints for star4@line5
    header, _, stalled = csv.reader(io.StringIO(out))
    row = dict(zip(header, stalled))
    assert (row["stalled"], row["ged"], row["method"], row["m_swap_max"]) == (
        "true", "2", "similarity", "6"
    )
    assert (row["u_swap"], row["beta_star"], row["oracle"]) == ("", "", "")
    # a row that fails for another reason adds to failed_rows only, and exits 1
    pairs.append({"circuit": "missing.json", "device": "line5.json"})
    mpath.write_text(json.dumps({"pairs": pairs}))
    code, _, err = run_cli(capsys, "bench", str(mpath))
    summary = json.loads(err)
    assert code == 1
    assert (summary["failed_rows"], summary["stalled_rows"]) == (2, 1)


def test_bench_row_follows_the_oracle_size_rule(monkeypatch):
    # bench asks the oracle module whether a size is in range, so a lower
    # guard leaves the oracle blank instead of failing the row on the guard
    monkeypatch.setattr("swapbound.oracle.ORACLE_MAX_VERTICES", 3)
    row = run_pair(FIXTURES / "star4.json", FIXTURES / "line5.json")
    assert (row.oracle, row.error, row.u_swap is not None) == (None, "", True)


def test_bench_records_non_utf8_row_and_keeps_the_others(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(LATIN1_CIRCUIT)
    for name in ("chain3.json", "line5.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    pairs = [("chain3.json", "line5.json"), ("latin1.json", "line5.json")]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"pairs": [{"circuit": c, "device": d} for c, d in pairs]}))
    code, out, _ = run_cli(capsys, "bench", str(mpath))
    assert code == 1
    header, good, bad = (line.split(",") for line in out.strip().split("\n"))
    error = header.index("error")
    assert good[error] == "" and good[header.index("u_swap")] == "0"
    assert bad[0] == "latin1" and bad[error].startswith("input is not UTF-8")


def test_bench_quotes_an_error_that_holds_a_comma(tmp_path, capsys):
    # the JSON parser's message for `{broken` contains a comma; unquoted, it
    # split the row into 20 fields under the 19-column header
    (tmp_path / "broken.json").write_text("{broken")
    for name in ("chain3.json", "line5.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    pairs = [("chain3.json", "line5.json"), ("broken.json", "line5.json")]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"pairs": [{"circuit": c, "device": d} for c, d in pairs]}))
    code, out, _ = run_cli(capsys, "bench", str(mpath), "--out", str(tmp_path / "out"))
    assert code == 1
    assert (tmp_path / "out" / "bench_rows.csv").read_text() == out
    header, good, bad = csv.reader(io.StringIO(out))
    assert len(header) == len(good) == len(bad) == 19
    assert "," in bad[header.index("error")]
    assert bad[header.index("error")].startswith("malformed JSON")


# valid JSON that the parser cannot descend into: it raised RecursionError
NESTED_CIRCUIT = '{"qubits": 2, "gates": ' + "[" * 200_000 + "]" * 200_000 + "}"


def test_bound_deeply_nested_circuit_exit_one(tmp_path, capsys):
    (tmp_path / "nested.json").write_text(NESTED_CIRCUIT)
    assert run_cli(
        capsys, "bound", "--circuit", str(tmp_path / "nested.json"),
        "--device", str(FIXTURES / "line5.json"),
    ) == (1, "", "error: JSON nests too deeply\n")


def test_bench_records_deeply_nested_row_and_keeps_the_others(tmp_path, capsys):
    (tmp_path / "nested.json").write_text(NESTED_CIRCUIT)
    for name in ("chain3.json", "line5.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    pairs = [("chain3.json", "line5.json"), ("nested.json", "line5.json")]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"pairs": [{"circuit": c, "device": d} for c, d in pairs]}))
    code, out, _ = run_cli(capsys, "bench", str(mpath))
    assert code == 1
    header, good, bad = csv.reader(io.StringIO(out))
    error = header.index("error")
    assert good[error] == "" and good[header.index("u_swap")] == "0"
    assert (bad[0], bad[error]) == ("nested", "JSON nests too deeply")


@pytest.mark.parametrize(
    "text",
    [b'{"pairs": [], "note": "\xff"}', b'{"pairs": [{"circuit": 5, "device": "d.json"}]}'],
    ids=["non_utf8", "path_not_string"],
)
def test_bench_malformed_manifest_exit_one(tmp_path, capsys, text):
    mpath = tmp_path / "manifest.json"
    mpath.write_bytes(text)
    code, out, err = run_cli(capsys, "bench", str(mpath))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_rows_deterministic_modulo_timing():
    pairs = load_manifest(FIXTURES / "manifest.json")[:5]

    def scrub(rows):
        out = []
        for r in rows:
            clone = dict(r.__dict__)
            clone["assign_ms"] = clone["sweep_ms"] = clone["oracle_ms"] = 0.0
            out.append(clone)
        return out

    first = scrub([run_pair(c, d) for c, d in pairs])
    second = scrub([run_pair(c, d) for c, d in pairs])
    assert first == second


def test_pearson_self_is_one():
    assert pearson([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_anticorrelated():
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)


def test_bench_normalized_columns_sum_to_one():
    pairs = load_manifest(FIXTURES / "manifest.json")[:6]
    rows = [run_pair(c, d) for c, d in pairs]
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    idx = header.index("m_swap_max_norm")
    total = sum(float(line.split(",")[idx]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_histogram_counts_rows():
    pairs = load_manifest(FIXTURES / "manifest.json")[:4]
    rows = [run_pair(c, d) for c, d in pairs]
    hist = beta_histogram(rows, standard_beta_grid())
    assert sum(c for _, c in hist) == len([r for r in rows if r.beta_star is not None])


def _blank_timings(csv_text: str) -> str:
    lines = csv_text.split("\n")
    timed = [i for i, name in enumerate(lines[0].split(",")) if name.endswith("_ms")]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) > 1:
            for i in timed:
                cells[i] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def test_correlation_csv_oracle_pool_smaller_than_bound_pool():
    # oracle cells use the rows with an oracle, the others every row with a
    # bound: a k > 8 row has no oracle and an errored row has no bound
    rows = [
        BenchRow("a", "d", u_swap=1, m_swap_max=4, oracle=1),
        BenchRow("b", "d", u_swap=3, m_swap_max=6, oracle=2),
        BenchRow("c", "d", u_swap=2, m_swap_max=9, oracle=2),
        BenchRow("big", "d", ig_nodes=9, u_swap=7, m_swap_max=10),
        BenchRow("bad", "d", error="ParseError: malformed JSON"),
    ]
    assert correlation_csv(rows) == (
        "metric,u_swap,m_swap_max,oracle\n"
        "u_swap,1,0.724904518975527,0.866025403784439\n"
        "m_swap_max,0.724904518975527,1,0.802955068546966\n"
        "oracle,0.866025403784439,0.802955068546966,1\n"
    )
    # no oracle at all drops the column; one row has no variance
    assert correlation_csv(rows[3:]) == "metric,u_swap,m_swap_max\nu_swap,nan,nan\nm_swap_max,nan,nan\n"
    # no row with a bound leaves every cell blank
    assert correlation_csv(rows[4:]) == "metric,u_swap,m_swap_max\nu_swap,,\nm_swap_max,,\n"


def test_bench_artifacts_match_golden(tmp_path, capsys):
    # a fresh run must reproduce the recorded artifacts; the *_ms columns are
    # wall-clock times, blanked in the recording
    code, _, _ = run_cli(
        capsys, "bench", str(FIXTURES / "manifest.json"), "--out", str(tmp_path)
    )
    assert code == 0
    rows = (tmp_path / "bench_rows.csv").read_text()
    assert _blank_timings(rows) == (GOLDEN / "bench_rows.csv").read_text()
    for name in ("bench_correlation.csv", "bench_beta_histogram.csv", "bench_summary.json"):
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text(), name


def test_sandwich_violations_only_flag_relations_that_hold(tmp_path):
    # the descent needs 3 swaps where the optimum needs 2: u_swap > oracle is
    # legitimate, so neither pair may be reported as a violation. The first
    # pair's count rests on the rounding of its winning run; the second's
    # holds at every one of its 60 non-stalled betas, and its improving steps
    # beat the strict margin by at least 5e-12.
    pairs = [
        (
            (5, [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 4]]),
            (7, [[0, 4], [0, 6], [1, 2], [1, 4], [1, 5], [3, 5], [4, 6]]),
        ),
        (
            (5, [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [2, 4], [3, 4]]),
            (6, [[0, 4], [1, 2], [1, 3], [2, 3], [2, 4], [3, 5]]),
        ),
    ]
    for i, ((qubits, gates), (nodes, edges)) in enumerate(pairs):
        (tmp_path / f"c{i}.json").write_text(json.dumps({"qubits": qubits, "gates": gates}))
        (tmp_path / f"d{i}.json").write_text(json.dumps({"num_qubits": nodes, "edges": edges}))
    (tmp_path / "m.json").write_text(
        json.dumps({"pairs": [{"circuit": f"c{i}.json", "device": f"d{i}.json"} for i in (0, 1)]})
    )
    rows = [run_pair(c, d) for c, d in load_manifest(tmp_path / "m.json")]
    assert [(r.u_swap, r.oracle) for r in rows] == [(3, 2), (3, 2)]
    assert (rows[1].beta_star, rows[1].m_swap_max) == (1e-5, 14)
    summary = bench_summary(rows, standard_beta_grid())
    assert summary["sandwich_violations"] == []


def test_sandwich_violations_flag_oracle_above_a_bound():
    rows = [run_pair(c, d) for c, d in load_manifest(FIXTURES / "manifest.json")[:3]]
    rows[2].oracle = rows[2].m_swap_max + 1  # an optimum no feasible schedule allows
    summary = bench_summary(rows, standard_beta_grid())
    assert summary["sandwich_violations"] == [(rows[2].benchmark, rows[2].device)]


def test_usage_errors_exit_input(capsys):
    assert main(["bench", "m.json", "--jobs", "2"]) == 1
    assert main(["bound"]) == 1
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    pair = ["--circuit", str(FIXTURES / "paw4.json"), "--device", str(FIXTURES / "tshape7.json")]
    assert main(["bound", *pair, "--format", "yaml"]) == 1
    assert main(["bound", *pair, "--sweep"]) == 1  # sweeping is the default, not a flag
    # the stall budget is m_swap_max, not a flag
    assert main(["bound", *pair, "--stall-budget", "0"]) == 1
    assert main(["sweep", *pair, "--stall-budget", "0"]) == 1
    # the class budget is a constant, not a flag
    assert main(["bound", *pair, "--class-budget", "100000"]) == 1
    assert main(["assign", *pair, "--class-budget", "100000"]) == 1


def test_bench_row_matches_compute_bound():
    pairs = load_manifest(FIXTURES / "manifest.json")
    for circuit_path, device_path in pairs:
        row = run_pair(circuit_path, device_path)
        ig = interaction_graph(read_circuit_file(circuit_path))
        report = compute_bound(ig, parse_device(device_path.read_bytes()).coupling)
        assert (row.ged, row.method, row.u_swap, row.beta_star, row.m_swap_max) == (
            report.ged,
            report.method,
            report.u_swap,
            report.beta_star,
            report.m_swap_max,
        ), circuit_path.name


def _golden_case(circuit, device, suffix, command, code=0):
    return pytest.param(circuit, device, suffix, command, code, id=f"{circuit}@{device}:{suffix}")


CLI_GOLDEN_CASES = [
    _golden_case(circuit, device, suffix, command)
    for circuit, device in (("paw4", "tshape7"), ("chain6_repeats", "grid2x4"))
    for suffix, command in (
        ("bound.json", ["bound"]),
        ("bound_beta0.5.json", ["bound", "--beta", "0.5"]),
        ("bound.csv", ["bound", "--format", "csv"]),
        ("sweep.csv", ["sweep"]),
    )
] + [
    # stalled runs: 42 and 36 of the 99 betas stall, and at beta = 100 the
    # single run walks forced swaps until its stall budget runs out (exit 2)
    _golden_case("complete4", "tshape7", "sweep.csv", ["sweep"]),
    _golden_case("ring5", "line5", "sweep.csv", ["sweep"]),
    _golden_case("ring5", "line5", "bound_beta100.json", ["bound", "--beta", "100"], code=2),
    # runs that come back after an erasure to a placement they evaluated
    # under the larger pending set (5 stalled betas)
    _golden_case("complete4", "line5", "sweep.csv", ["sweep"]),
]


def _pop_divergences(doc: dict) -> list[float]:
    """The trace's divergence floats, blanked in ``doc``."""
    values = []
    for step in doc["trace"]:
        for key in ("qjsd_before", "qjsd_after"):
            if key in step:
                values.append(step[key])
                step[key] = None
    return values


@pytest.mark.parametrize("circuit, device, suffix, command, expected_code", CLI_GOLDEN_CASES)
def test_cli_output_matches_golden(capsys, circuit, device, suffix, command, expected_code):
    # every byte is pinned except the trace's divergences, which another
    # LAPACK build may round differently
    code, out, err = run_cli(
        capsys,
        command[0],
        "--circuit", str(FIXTURES / f"{circuit}.json"),
        "--device", str(FIXTURES / f"{device}.json"),
        *command[1:],
    )
    assert (code, err) == (expected_code, "")
    golden = (GOLDEN / "cli" / f"{circuit}_{device}_{suffix}").read_text()
    if suffix.endswith(".csv"):
        assert out == golden
        return
    fresh, recorded = json.loads(out), json.loads(golden)
    assert _pop_divergences(fresh) == pytest.approx(_pop_divergences(recorded), abs=1e-12)
    assert json.dumps(fresh, indent=2) + "\n" == json.dumps(recorded, indent=2) + "\n"


def _benchmark_api_names() -> set[str]:
    """The ``swapbound.<name>`` attributes perfbench's ``plain_api`` reads."""
    tree = ast.parse((ROOT / "perfbench" / "pipeline.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "plain_api")
    return {
        n.attr
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "swapbound"
    }


def _readme_library_names() -> set[str]:
    """The names README "Library use" imports from, or lists as exported by, the package."""
    text = (ROOT / "README.md").read_text()
    section = " ".join(text.split("## Library use", 1)[1].split("\n## ", 1)[0].split())
    imported = re.search(r"from swapbound import (\w+(?:, \w+)*)", section).group(1).split(",")
    listed = re.search(r"exports the stages on their own: (.*?)\. ", section).group(1)
    return {n.strip() for n in imported} | set(re.findall(r"`(\w+)`", listed))


def _benchmark_module_names() -> set[tuple[str, str]]:
    """``(module, name)`` for every ``from swapbound.x import y`` in perfbench, and
    every tuple in ``tracing.py`` that names a swapbound module and a string
    attribute: the ``MODULE_PATCHES`` entries and the patched ``connected_subsets``.
    """
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("swapbound."):
                found |= {(n.module, alias.name) for alias in n.names}
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    aliases = {  # local names bound to a module, as in ``module = swapbound.assignment``
        ast.unparse(n.targets[0]): ast.unparse(n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and len(n.targets) == 1
    }
    for n in ast.walk(tree):
        if isinstance(n, ast.Tuple) and len(n.elts) >= 2 and isinstance(n.elts[1], ast.Constant):
            head = ast.unparse(n.elts[0])
            module = aliases.get(head, head)
            if module.startswith("swapbound."):
                found.add((module, n.elts[1].value))
    return found


def test_benchmark_and_readme_names_resolve_on_the_package():
    # a trimmed export list or a renamed function must fail here, not in the
    # benchmark's imports or its traced pass
    bench, readme = _benchmark_api_names(), _readme_library_names()
    assert {"assign_qubits", "beta_sweep", "brute_force_min_swaps"} <= bench
    assert {"compute_bound", "parse_device", "swap_uncomplexity"} <= readme
    assert sorted(n for n in bench | readme if not hasattr(swapbound, n)) == []
    modules = _benchmark_module_names()
    assert {
        ("swapbound.oracle", "ORACLE_MAX_VERTICES"),
        ("swapbound.spectral", "laplacian_spectrum"),
        ("swapbound.assignment", "connected_subsets"),
        ("swapbound.assignment", "graph_edit_distance"),
        ("swapbound.uncomplexity", "swap_uncomplexity"),
    } <= modules
    missing = [(m, n) for m, n in modules if not hasattr(importlib.import_module(m), n)]
    assert sorted(missing) == []
