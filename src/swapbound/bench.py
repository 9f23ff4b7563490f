"""Benchmark harness: manifests of circuit/device pairs, CSV reporting.

Rows carry raw counts plus sum-normalized columns so runs of different
scales stay comparable; the harness also emits the Pearson correlation
matrix of the bound columns and the distribution of winning inverse
temperatures.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .circuits import (
    _load_json,
    interaction_graph,
    parse_circuit_json,
    parse_circuit_qasm_subset,
    parse_device,
)
from .errors import ParseError, SwapBoundError, ValidationError
from .oracle import brute_force_min_swaps, within_guard
from .uncomplexity import compute_bound

HIGH_TEMP_MAX = 1e-3  # upper edge of the high-temperature band reported on


@dataclass
class BenchRow:
    benchmark: str
    device: str
    ig_nodes: int = 0
    ig_edges: int = 0
    gate_count: int = 0
    ged: int | None = None
    u_swap: int | None = None
    beta_star: float | None = None
    m_swap_max: int | None = None
    oracle: int | None = None
    assign_ms: float = 0.0
    sweep_ms: float = 0.0
    oracle_ms: float = 0.0
    stalled: bool = False
    method: str = ""
    error: str = ""


BENCH_COLUMNS = [f.name for f in fields(BenchRow)]
BENCH_COLUMNS += ["u_swap_norm", "m_swap_max_norm", "oracle_norm"]  # sum-normalized, from rows_to_csv


def format_cell(value) -> str:
    """One CSV cell, in double quotes when it holds a comma, quote or line break (RFC 4180)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: list[str], rows) -> str:
    """The header line, then one line of ``format_cell`` cells per row."""
    lines = [",".join(header)] + [",".join(format_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_circuit_file(path: Path):
    data = path.read_bytes()
    if path.suffix.lower() == ".qasm":
        return parse_circuit_qasm_subset(data, name=path.stem)
    circuit = parse_circuit_json(data)
    if not circuit.name:
        circuit = type(circuit)(circuit.num_qubits, circuit.two_qubit_gates, path.stem)
    return circuit


def load_manifest(path: Path) -> list[tuple[Path, Path]]:
    doc = _load_json(path.read_bytes())
    if not isinstance(doc.get("pairs"), list):
        raise ParseError("manifest must be an object with a 'pairs' list")
    base = path.parent
    pairs = []
    for entry in doc["pairs"]:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("circuit", "device")
        ):
            raise ParseError(f"manifest entry {entry!r} needs 'circuit' and 'device'")
        pairs.append((base / entry["circuit"], base / entry["device"]))
    return pairs


def run_pair(circuit_path: Path, device_path: Path) -> BenchRow:
    row = BenchRow(benchmark=circuit_path.stem, device=device_path.stem)
    try:
        circuit = read_circuit_file(circuit_path)
        device = parse_device(device_path.read_bytes())
        row.benchmark = circuit.name or circuit_path.stem
        row.device = device.name or device_path.stem
        ig = interaction_graph(circuit)
        row.ig_nodes = ig.graph.n
        row.ig_edges = ig.graph.num_edges()
        row.gate_count = ig.gate_count()

        report = compute_bound(ig, device.coupling)
        row.ged = report.ged
        row.method = report.method
        row.m_swap_max = report.m_swap_max
        row.assign_ms = report.assign_ms
        row.sweep_ms = report.sweep_ms
        row.stalled = report.stalled
        if report.stalled:  # no bound, so nothing for the oracle to check
            row.error = "every sweep run stalled"
            return row
        row.u_swap = report.u_swap
        row.beta_star = report.beta_star

        if within_guard(ig.graph.n):
            t0 = time.perf_counter()
            row.oracle = brute_force_min_swaps(ig.graph, report.assignment)
            row.oracle_ms = (time.perf_counter() - t0) * 1000
    except (SwapBoundError, OSError) as exc:
        row.error = str(exc)
    return row


def _normalize(values: list[float | None]) -> list[float | None]:
    total = sum(v for v in values if v is not None)
    return [None if v is None else v / total if total > 0 else 0.0 for v in values]


def rows_to_csv(rows: list[BenchRow]) -> str:
    u_norm = _normalize([r.u_swap for r in rows])
    m_norm = _normalize([r.m_swap_max for r in rows])
    o_norm = _normalize([r.oracle for r in rows])
    cells = [astuple(r) + (un, mn, on) for r, un, mn, on in zip(rows, u_norm, m_norm, o_norm)]
    return csv_text(BENCH_COLUMNS, cells)


def pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    if n == 0 or n != len(ys):
        raise ValidationError("pearson needs two equal-length non-empty columns")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    return sxy / math.sqrt(sxx * syy)


def correlation_csv(rows: list[BenchRow]) -> str:
    """Pearson matrix over the bound columns, oracle included when present.

    A cell that involves the oracle pairs the rows that have one; the other
    cells pair every row that has a bound.
    """
    complete = [r for r in rows if r.u_swap is not None]
    with_oracle = [r for r in complete if r.oracle is not None]
    names = ["u_swap", "m_swap_max"] + (["oracle"] if with_oracle else [])
    table = []
    for a in names:
        cells = [a]
        for b in names:
            pool = with_oracle if "oracle" in (a, b) else complete
            xs = [float(getattr(r, a)) for r in pool]
            ys = [float(getattr(r, b)) for r in pool]
            cells.append(pearson(xs, ys) if pool else None)
        table.append(cells)
    return csv_text(["metric"] + names, table)


def beta_histogram(rows: list[BenchRow], grid: tuple[float, ...]) -> list[tuple[float, int]]:
    counts = {b: 0 for b in grid}
    for r in rows:
        if r.beta_star is not None and r.beta_star in counts:
            counts[r.beta_star] += 1
    return [(b, counts[b]) for b in grid]


def bench_summary(rows: list[BenchRow], grid: tuple[float, ...]) -> dict:
    ok = [r for r in rows if not r.error and r.u_swap is not None]
    non_iso = [r for r in ok if (r.ged or 0) > 0]
    high_temp = [r for r in non_iso if r.beta_star is not None and r.beta_star <= HIGH_TEMP_MAX]
    # Only relations that hold by construction: a non-stalled descent and the
    # diameter schedule are both feasible, so neither can beat the optimum.
    violations = [
        (r.benchmark, r.device)
        for r in ok
        if r.oracle is not None and not (r.oracle <= r.u_swap and r.oracle <= r.m_swap_max)
    ]
    return {
        "rows": len(rows),
        "failed_rows": sum(1 for r in rows if r.error),
        "stalled_rows": sum(1 for r in rows if r.stalled),
        "isomorphic_rows": sum(1 for r in ok if r.ged == 0),
        "non_isomorphic_rows": len(non_iso),
        "high_temperature_count": len(high_temp),
        "high_temperature_fraction": (len(high_temp) / len(non_iso)) if non_iso else None,
        "beta_star_within_grid": all(
            grid[0] <= r.beta_star <= grid[-1] for r in ok if r.beta_star is not None
        ),
        "sandwich_violations": violations,
    }
