import pytest

from swapbound.circuits import (
    Circuit,
    interaction_graph,
    parse_circuit_json,
    parse_circuit_qasm_subset,
    parse_device,
)
from swapbound.errors import ParseError, UnsupportedError, ValidationError

from conftest import serialize_circuit, serialize_device


def test_parse_circuit_minimal():
    c = parse_circuit_json(b'{"qubits":2,"gates":[[0,1]]}')
    assert c.num_qubits == 2
    assert c.two_qubit_gates == ((0, 1),)


def test_parse_circuit_keeps_duplicates_in_order():
    c = parse_circuit_json(b'{"qubits":3,"gates":[[0,1],[0,1],[1,2]]}')
    assert c.two_qubit_gates == ((0, 1), (0, 1), (1, 2))


def test_parse_circuit_index_out_of_range():
    with pytest.raises(ValidationError):
        parse_circuit_json(b'{"qubits":2,"gates":[[0,2]]}')


def test_parse_circuit_rejects_identical_pair():
    with pytest.raises(ValidationError):
        parse_circuit_json(b'{"qubits":2,"gates":[[1,1]]}')


def test_parse_circuit_malformed_json_has_location():
    with pytest.raises(ParseError) as err:
        parse_circuit_json(b'{"qubits": 2,\n "gates": [[0,1]')
    assert err.value.line is not None


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_circuit_json, '{"qubits": 2, "gates": [[0, true]]}'),
        (parse_circuit_json, '{"qubits": true, "gates": []}'),
        (parse_device, '{"num_qubits": 2, "edges": [[false, true]]}'),
    ],
    ids=["gate", "qubits", "device_edge"],
)
def test_json_booleans_are_not_integers(parse, text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("parse", [parse_circuit_json, parse_circuit_qasm_subset, parse_device])
def test_non_utf8_input_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="not UTF-8"):
        parse(b'{"name": "caf\xe9"}')


@pytest.mark.parametrize(
    "parse, fields",
    [
        (parse_circuit_json, '"qubits": 2, "gates": [[0, 1]]'),
        (parse_device, '"num_qubits": 2, "edges": [[0, 1]]'),
    ],
    ids=["circuit", "device"],
)
@pytest.mark.parametrize("name", ["5", "null", "[\"a\"]"])
def test_json_name_must_be_a_string(parse, fields, name):
    with pytest.raises(ParseError, match="'name' must be a string"):
        parse(f'{{"name": {name}, {fields}}}')


def test_circuit_roundtrip():
    c = parse_circuit_json(b'{"name":"x","qubits":3,"gates":[[2,1],[0,1]]}')
    again = parse_circuit_json(serialize_circuit(c))
    assert again == c


@pytest.mark.parametrize("cnot", ["cx", "CX"])  # CX is OpenQASM 2.0's built-in CNOT
def test_qasm_drops_single_qubit_gates(cnot):
    c = parse_circuit_qasm_subset(f"qreg q[3]; h q[0]; {cnot} q[0],q[1]; cx q[1],q[2];")
    assert c.num_qubits == 3
    assert c.two_qubit_gates == ((0, 1), (1, 2))


def test_qasm_requires_qreg_before_gate():
    with pytest.raises(ParseError):
        parse_circuit_qasm_subset(b"cx q[0],q[1];")


def test_qasm_swap_counts_as_two_qubit():
    c = parse_circuit_qasm_subset(b"qreg q[2]; swap q[0],q[1];")
    assert c.two_qubit_gates == ((0, 1),)


def test_qasm_multiple_qregs_unsupported():
    with pytest.raises(UnsupportedError):
        parse_circuit_qasm_subset(b"qreg q[2]; qreg r[2]; cx q[0],q[1];")


def test_qasm_skips_noise_statements():
    text = b"""
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[4];
    creg c[4];
    // a comment; with a semicolon
    barrier q;
    cz q[2],q[3];
    measure q[0] -> c[0];
    rz(0.5) q[1];
    swap q[0], q[2];
    """
    c = parse_circuit_qasm_subset(text)
    assert c.two_qubit_gates == ((2, 3), (0, 2))


def test_qasm_index_out_of_range():
    with pytest.raises(ValidationError):
        parse_circuit_qasm_subset(b"qreg q[2]; cx q[0],q[2];")


def test_qasm_gate_definitions_are_skipped():
    text = b"""
    OPENQASM 2.0;
    gate majority a,b,c
    {
      cx c,b;
      cx c,a;
      ccx a,b,c;
    }
    qreg q[3];
    majority q[0],q[1],q[2];
    cx q[0],q[1];
    """
    c = parse_circuit_qasm_subset(text)
    assert c.two_qubit_gates == ((0, 1),)  # body uses formal params, no registers


def test_parse_device_line():
    d = parse_device(b'{"name":"l","num_qubits":5,"edges":[[0,1],[1,2],[2,3],[3,4]]}')
    assert d.coupling.num_edges() == 4


def test_parse_device_dedups_reversed():
    d = parse_device(b'{"name":"d","num_qubits":2,"edges":[[0,1],[1,0]]}')
    assert d.coupling.num_edges() == 1


def test_parse_device_disconnected_names_components():
    with pytest.raises(ValidationError) as err:
        parse_device(b'{"name":"d","num_qubits":4,"edges":[[0,1],[2,3]]}')
    assert "[0, 1]" in str(err.value) and "[2, 3]" in str(err.value)


def test_device_roundtrip():
    raw = b'{"name":"rt","num_qubits":4,"edges":[[3,2],[0,1],[1,2]]}'
    d = parse_device(raw)
    again = parse_device(serialize_device(d))
    assert again == d


def test_interaction_graph_multiplicities():
    ig = interaction_graph(Circuit(3, ((0, 1), (1, 0), (1, 2))))
    assert ig.graph.edge_list == ((0, 1), (1, 2))
    assert ig.multiplicity == {(0, 1): 2, (1, 2): 1}
    assert ig.gate_count() == 3


def test_interaction_graph_retains_isolated_vertices():
    ig = interaction_graph(Circuit(3, ()))
    assert ig.graph.n == 3
    assert ig.graph.num_edges() == 0


def test_interaction_graph_edge_count_vs_gates():
    ig_dup = interaction_graph(Circuit(4, ((0, 1), (0, 1), (2, 3))))
    assert ig_dup.graph.num_edges() < len(ig_dup.multiplicity) + 1  # 2 distinct
    ig_all_distinct = interaction_graph(Circuit(4, ((0, 1), (1, 2), (2, 3))))
    assert ig_all_distinct.graph.num_edges() == 3


def test_interaction_graph_from_branched_circuit():
    # the 4-vertex branched example: triangle with one pendant vertex
    circuit = Circuit(4, ((0, 1), (0, 2), (1, 2), (1, 3)))
    ig = interaction_graph(circuit)
    assert ig.graph.edge_list == ((0, 1), (0, 2), (1, 2), (1, 3))
    assert ig.graph.degrees == (2, 3, 2, 1)
