"""Circuit and device input formats and interaction-graph extraction.

The canonical circuit input is JSON ``{"name": str, "qubits": int,
"gates": [[i,j],...]}``. A small OpenQASM-2.0-style reader lowers ``cx``,
the built-in ``CX``, ``cz`` and ``swap`` statements into the same
representation; everything else in a QASM file is skipped.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import ParseError, UnsupportedError, ValidationError
from .graphs import Edge, Graph, connected_components, is_connected, normalize_edge


@dataclass(frozen=True)
class Circuit:
    """Two-qubit gate list; single-qubit gates are dropped at parse time."""

    num_qubits: int
    two_qubit_gates: tuple[Edge, ...]
    name: str = ""

    def __post_init__(self):
        for i, j in self.two_qubit_gates:
            if i == j:
                raise ValidationError(f"gate on identical qubits ({i},{j})")
            if not (0 <= i < self.num_qubits and 0 <= j < self.num_qubits):
                raise ValidationError(f"gate ({i},{j}) out of range for {self.num_qubits} qubits")


@dataclass(frozen=True)
class InteractionGraph:
    """Unweighted simple graph of interacting pairs plus gate multiplicities."""

    graph: Graph
    multiplicity: dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.multiplicity) != set(self.graph.edges):
            raise ValidationError("multiplicity keys must equal the edge set")
        if any(m < 1 for m in self.multiplicity.values()):
            raise ValidationError("multiplicities must be >= 1")

    def gate_count(self) -> int:
        """Total two-qubit gates including repeats."""
        return sum(self.multiplicity.values())


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    coupling: Graph

    @property
    def num_qubits(self) -> int:
        return self.coupling.n

    def __post_init__(self):
        if not is_connected(self.coupling):
            comps = connected_components(self.coupling)
            raise ValidationError(f"device coupling is disconnected: components {comps}")


def _decode(text: bytes | str) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text (byte {exc.start})") from exc


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` are not counts or indices."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_json(text: bytes | str) -> dict:
    try:
        doc = json.loads(_decode(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno, offset=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nests too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def _name(doc: dict) -> str:
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return name


def _int_pairs(raw: list, kind: str, members: str) -> list[Edge]:
    """The entries of ``raw`` as integer pairs; ``kind`` and ``members`` name them in errors.

    Ranges and repeated endpoints are checked once, by ``Circuit`` and ``Graph``.
    """
    pairs = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"{kind} entry {entry!r} is not a pair")
        if not (_is_int(entry[0]) and _is_int(entry[1])):
            raise ParseError(f"{kind} entry {entry!r} has non-integer {members}")
        pairs.append(tuple(entry))
    return pairs


def parse_circuit_json(text: bytes | str) -> Circuit:
    """Parse the canonical circuit JSON document."""
    doc = _load_json(text)
    if "qubits" not in doc or "gates" not in doc:
        raise ParseError("circuit JSON requires 'qubits' and 'gates' fields")
    num_qubits = doc["qubits"]
    if not _is_int(num_qubits) or num_qubits < 0:
        raise ParseError("'qubits' must be a non-negative integer")
    if not isinstance(doc["gates"], list):
        raise ParseError("'gates' must be a list of pairs")
    gates = _int_pairs(doc["gates"], "gate", "qubits")
    return Circuit(num_qubits, tuple(gates), _name(doc))


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_TWO_QUBIT_RE = re.compile(
    r"^(cx|CX|cz|swap)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]\s*,"
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$"
)


def parse_circuit_qasm_subset(text: bytes | str, name: str = "") -> Circuit:
    """Extract cx/CX/cz/swap statements from an OpenQASM-2.0-like file.

    One ``qreg`` declaration is required before the first recognized
    two-qubit gate; a second ``qreg`` raises ``UnsupportedError``. Other
    statements (single-qubit gates, creg/measure/barrier/include,
    comments) are skipped.
    """
    source = _decode(text)
    source = re.sub(r"//[^\n]*", "", source)
    # gate-definition braces delimit statements too (bodies only use formal
    # parameters, so their statements never match the register-indexed forms)
    source = source.replace("{", ";").replace("}", ";")
    register: tuple[str, int] | None = None
    gates: list[Edge] = []
    for raw in source.split(";"):
        stmt = " ".join(raw.split())
        if not stmt:
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if register is not None:
                raise UnsupportedError("multiple qreg declarations are not supported")
            register = (m.group(1), int(m.group(2)))
            continue
        m = _TWO_QUBIT_RE.match(stmt)
        if m is None:
            continue
        if register is None:
            raise ParseError(f"two-qubit gate before qreg declaration: '{stmt}'")
        reg_name, size = register
        _, ra, ia, rb, ib = m.groups()
        if ra != reg_name or rb != reg_name:
            raise ParseError(f"unknown register in '{stmt}' (declared: {reg_name})")
        i, j = int(ia), int(ib)
        if i >= size or j >= size:
            raise ValidationError(f"qubit index in '{stmt}' out of range (n={size})")
        if i == j:
            raise ValidationError(f"gate on identical qubits in '{stmt}'")
        gates.append((i, j))
    if register is None:
        raise ParseError("no qreg declaration found")
    return Circuit(register[1], tuple(gates), name)


def parse_device(text: bytes | str) -> DeviceSpec:
    """Parse a device JSON document; reversed/duplicate edges are merged."""
    doc = _load_json(text)
    if "num_qubits" not in doc or "edges" not in doc:
        raise ParseError("device JSON requires 'num_qubits' and 'edges' fields")
    num_qubits = doc["num_qubits"]
    if not _is_int(num_qubits) or num_qubits <= 0:
        raise ParseError("'num_qubits' must be a positive integer")
    if not isinstance(doc["edges"], list):
        raise ParseError("'edges' must be a list of pairs")
    name = _name(doc)
    pairs = _int_pairs(doc["edges"], "edge", "endpoints")
    coupling = Graph(num_qubits, frozenset(normalize_edge(u, v) for u, v in pairs))
    return DeviceSpec(name, coupling)


def interaction_graph(circuit: Circuit) -> InteractionGraph:
    """Distinct interacting pairs with gate multiplicities.

    Qubits without any two-qubit gate stay as isolated vertices: they
    still occupy assignment slots on the device.
    """
    counts = Counter(normalize_edge(i, j) for i, j in circuit.two_qubit_gates)
    g = Graph(circuit.num_qubits, frozenset(counts))
    return InteractionGraph(g, dict(counts))
