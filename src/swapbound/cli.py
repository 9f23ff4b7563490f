"""Command-line surface.

Exit codes: 0 success, 1 input or usage error, 2 stall, 3 size-guard
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    bench_summary,
    beta_histogram,
    correlation_csv,
    csv_text,
    load_manifest,
    read_circuit_file,
    read_device_file,
    rows_to_csv,
    run_manifest,
)
from .assignment import DEFAULT_CLASS_BUDGET, assign_qubits, max_swap_bound
from .circuits import interaction_graph
from .errors import SizeGuardError, SwapBoundError, SweepError
from .oracle import brute_force_min_swaps, brute_force_over_assignments
from .spectral import entropy_curve
from .uncomplexity import (
    AlgoTrace,
    BoundReport,
    EraseStep,
    StallStep,
    SwapStep,
    compute_bound,
    standard_beta_grid,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STALL = 2
EXIT_GUARD = 3


_STEP_TYPES = {SwapStep: "swap", EraseStep: "erase", StallStep: "stall"}


def _trace_json(trace: AlgoTrace) -> list[dict]:
    return [{"type": _STEP_TYPES[type(step)], **dataclasses.asdict(step)} for step in trace.steps]


def report_to_json(report: BoundReport, circuit_name: str, device_name: str) -> dict:
    doc = {
        "circuit": circuit_name,
        "device": device_name,
        "u_swap": report.u_swap,
        "beta_star": report.beta_star,
        "m_swap_max": report.m_swap_max,
        "ged": report.ged,
        "stalled": report.stalled,
        "method": report.method,
        "assignment": {
            "ig_to_cg": list(report.assignment.ig_to_cg),
            "cg_subgraph_nodes": list(report.assignment.cg_subgraph_nodes),
        },
        "trace": _trace_json(report.trace),
    }
    if report.per_beta is not None:
        doc["per_beta"] = [[b, m, s] for b, m, s in report.per_beta]
    return doc


def _write(doc: dict, fmt: str, csv_header: list[str]) -> None:
    """``doc`` as indented JSON, or as one CSV row of its ``csv_header`` fields."""
    if fmt == "csv":
        sys.stdout.write(csv_text(csv_header, [[doc[h] for h in csv_header]]))
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _load_pair(args):
    circuit = read_circuit_file(Path(args.circuit))
    device = read_device_file(Path(args.device))
    ig = interaction_graph(circuit)
    return circuit, device, ig


def cmd_bound(args) -> int:
    circuit, device, ig = _load_pair(args)
    report = compute_bound(
        ig,
        device.coupling,
        beta=args.beta,
        class_budget=args.class_budget,
        stall_budget=args.stall_budget,
    )
    _write(
        report_to_json(report, circuit.name, device.name),
        args.format,
        ["circuit", "device", "u_swap", "beta_star", "m_swap_max", "ged", "stalled", "method"],
    )
    return EXIT_STALL if report.stalled else EXIT_OK


def cmd_assign(args) -> int:
    circuit, device, ig = _load_pair(args)
    placed = assign_qubits(ig, device.coupling, class_budget=args.class_budget)
    a = placed.assignment
    doc = {
        "circuit": circuit.name,
        "device": device.name,
        "ged": placed.ged,
        "method": placed.method,
        "ig_to_cg": list(a.ig_to_cg),
        "cg_subgraph_nodes": list(a.cg_subgraph_nodes),
        "cg_subgraph_edges": [list(e) for e in a.cg_subgraph.edge_list],
        "m_swap_max": max_swap_bound(ig, a),
    }
    _write(doc, args.format, ["circuit", "device", "ged", "method", "m_swap_max"])
    return EXIT_OK


def cmd_oracle(args) -> int:
    circuit, device, ig = _load_pair(args)
    if args.all_assignments:
        count, assignment = brute_force_over_assignments(ig.graph, device.coupling)
        scope = "all-assignments"
    else:
        assignment = assign_qubits(ig, device.coupling).assignment
        count = brute_force_min_swaps(ig.graph, assignment)
        scope = "pipeline-assignment"
    doc = {
        "circuit": circuit.name,
        "device": device.name,
        "min_swaps": count,
        "ig_to_cg": list(assignment.ig_to_cg),
        "scope": scope,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    circuit, device, ig = _load_pair(args)
    report = compute_bound(ig, device.coupling, stall_budget=args.stall_budget)
    sys.stdout.write(csv_text(["beta", "m", "stalled"], report.per_beta))
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.circuit:
        circuit = read_circuit_file(Path(args.circuit))
        graph = interaction_graph(circuit).graph
    else:
        graph = read_device_file(Path(args.device)).coupling
    sys.stdout.write(csv_text(["beta", "entropy"], entropy_curve(graph, standard_beta_grid())))
    return EXIT_OK


def cmd_bench(args) -> int:
    pairs = load_manifest(Path(args.manifest))
    rows = run_manifest(pairs)
    rows_csv = rows_to_csv(rows)
    sys.stdout.write(rows_csv)
    grid = standard_beta_grid()
    summary = bench_summary(rows, grid)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench_rows.csv").write_text(rows_csv)
        (out / "bench_correlation.csv").write_text(correlation_csv(rows))
        hist = beta_histogram(rows, grid)
        (out / "bench_beta_histogram.csv").write_text(csv_text(["beta", "count"], hist))
        (out / "bench_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    sys.stderr.write(json.dumps(summary, indent=2) + "\n")
    if summary["failed_rows"]:
        return EXIT_INPUT
    if any(r.stalled for r in rows):
        return EXIT_STALL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapbound",
        description="Lower and upper SWAP-count bounds for circuit/device pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("--circuit", required=True, help="circuit JSON or .qasm file")
        p.add_argument("--device", required=True, help="device JSON file")

    p_bound = sub.add_parser("bound", help="assignment, swept lower bound and max bound")
    add_pair(p_bound)
    p_bound.add_argument(
        "--beta",
        type=float,
        help="single inverse temperature (default: sweep the standard grid)",
    )
    p_bound.add_argument("--format", choices=["json", "csv"], default="json")
    p_bound.add_argument("--stall-budget", type=int)
    p_bound.add_argument("--class-budget", type=int, default=DEFAULT_CLASS_BUDGET)
    p_bound.set_defaults(func=cmd_bound)

    p_assign = sub.add_parser("assign", help="qubit assignment and edit distance")
    add_pair(p_assign)
    p_assign.add_argument("--format", choices=["json", "csv"], default="json")
    p_assign.add_argument("--class-budget", type=int, default=DEFAULT_CLASS_BUDGET)
    p_assign.set_defaults(func=cmd_assign)

    p_oracle = sub.add_parser("oracle", help="exact brute-force optimum (size-guarded)")
    add_pair(p_oracle)
    p_oracle.add_argument(
        "--all-assignments",
        action="store_true",
        help="minimize over every connected placement instead of the pipeline's",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="per-beta swap counts as CSV")
    add_pair(p_sweep)
    p_sweep.add_argument("--stall-budget", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_curve = sub.add_parser("curve", help="entropy as a function of beta, CSV")
    src = p_curve.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit", help="use the circuit's interaction graph")
    src.add_argument("--device", help="use the device coupling graph")
    p_curve.set_defaults(func=cmd_curve)

    p_bench = sub.add_parser("bench", help="run a manifest of circuit/device pairs")
    p_bench.add_argument("manifest", help="JSON manifest with a 'pairs' list")
    p_bench.add_argument("--out", help="directory for CSV/JSON artifacts")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except SizeGuardError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_GUARD
    except SweepError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STALL
    except SwapBoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
