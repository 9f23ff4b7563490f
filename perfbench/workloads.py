"""Benchmark inputs: three workloads of (circuit, device) pairs, made from a seed.

``grid_similarity`` and ``dense_oracle`` use relabelling ``seed % 64``.
Relabelling 0 is the inputs exactly as listed; relabelling ``v > 0``
renames the circuit qubits and the device nodes of every pair with random
permutations drawn from ``random.Random(v)``. That keeps the work
comparable (the same graphs up to isomorphism) but changes the program's
tie-breaks, so a claim can be re-checked on a seed it was not tuned on.

``manifest`` is the bundled manifest exactly as listed, whatever the
seed. Its pairs are small, and their work hangs on tie-breaks: under
relabelling, ``chain6_repeats@tshape-7`` alone sweeps for 0.02-0.29 s and
its ``u_swap`` is 1 or 3. A relabelled pass took 0.64-0.95 s over 64
relabellings, so runs on different seeds differed by 10% in pass time and
22% in slowest-pair time: no longer the same work.

``expected.json`` holds the outputs of every relabelling a seed can pick,
recorded with the unchanged program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("manifest", "grid_similarity", "dense_oracle")
VARIANTS = {"manifest": 1, "grid_similarity": 64, "dense_oracle": 64}


@dataclass(frozen=True)
class Pair:
    pair_id: str  # circuit@device, the key in expected.json
    circuit: bytes  # circuit JSON, or OpenQASM when ``qasm`` is set
    device: bytes  # device JSON
    qasm: bool = False
    circuit_name: str = ""  # name handed to the QASM reader


def variant_of(workload: str, seed: int) -> int:
    """The relabelling ``seed`` selects for ``workload``."""
    return seed % VARIANTS[workload]


def _ring(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def _line(n: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(n - 1)]


def _complete(n: int) -> list[list[int]]:
    return [[i, j] for i in range(n) for j in range(i + 1, n)]


def _grid(rows: int, cols: int) -> list[list[int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append([v, v + 1])
            if r + 1 < rows:
                edges.append([v, v + cols])
    return edges


def _circuit(name: str, qubits: int, gates: list[list[int]]) -> dict:
    return {"name": name, "qubits": qubits, "gates": gates}


def _device(name: str, n: int, edges: list[list[int]]) -> dict:
    return {"name": name, "num_qubits": n, "edges": edges}


def _grid_similarity_docs() -> list[tuple[dict, dict]]:
    # The chord (0, 2) closes an odd cycle, so the bipartite grid has no
    # embedding and assignment runs the similarity search.
    grid = _device("grid-4x4", 16, _grid(4, 4))
    # Known pair with u_swap = 3 > oracle = 2: u_swap <= oracle is not a
    # valid check, and this pair must still count as passing.
    counterexample = (
        _circuit("cex5", 5, [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 4]]),
        _device("cex7", 7, [[0, 4], [0, 6], [1, 2], [1, 4], [1, 5], [3, 5], [4, 6]]),
    )
    return [
        (_circuit("ringchord5", 5, _ring(5) + [[0, 2]]), grid),
        (_circuit("ringchord6", 6, _ring(6) + [[0, 2]]), grid),
        counterexample,
    ]


def _dense_oracle_docs() -> list[tuple[dict, dict]]:
    return [
        (_circuit("K6", 6, _complete(6)), _device("line6", 6, _line(6))),
        (_circuit("K6", 6, _complete(6)), _device("ring6", 6, _ring(6))),
        (_circuit("K7", 7, _complete(7)), _device("ring7", 7, _ring(7))),
    ]


def _permute_circuit(doc: dict, perm: list[int]) -> dict:
    gates = [[perm[i], perm[j]] for i, j in doc["gates"]]
    return {**doc, "gates": gates}


def _permute_device(doc: dict, perm: list[int]) -> dict:
    edges = [[perm[u], perm[v]] for u, v in doc["edges"]]
    return {**doc, "edges": edges}


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _encode(doc: dict) -> bytes:
    return json.dumps(doc).encode()


def _manifest_pairs(root: Path) -> list[Pair]:
    fixtures = root / "src" / "swapbound" / "fixtures"
    manifest = json.loads((fixtures / "manifest.json").read_text())
    pairs = []
    for entry in manifest["pairs"]:
        cpath, dpath = fixtures / entry["circuit"], fixtures / entry["device"]
        qasm = cpath.suffix == ".qasm"
        circuit = cpath.read_bytes()
        cname = cpath.stem if qasm else json.loads(circuit).get("name") or cpath.stem
        device = dpath.read_bytes()
        pair_id = f"{cname}@{json.loads(device)['name']}"
        pairs.append(Pair(pair_id, circuit, device, qasm, cpath.stem))
    return pairs


def _generated_pairs(docs: list[tuple[dict, dict]], rng: random.Random | None) -> list[Pair]:
    pairs = []
    for circuit, device in docs:
        if rng is not None:
            circuit = _permute_circuit(circuit, _shuffled(rng, circuit["qubits"]))
            device = _permute_device(device, _shuffled(rng, device["num_qubits"]))
        pair_id = f"{circuit['name']}@{device['name']}"
        pairs.append(Pair(pair_id, _encode(circuit), _encode(device)))
    return pairs


def variant_pairs(workload: str, variant: int, root: Path) -> list[Pair]:
    """The workload's pairs under one relabelling; ``root`` is the source checkout."""
    rng = random.Random(variant) if variant else None
    if workload == "manifest":
        return _manifest_pairs(root)
    if workload == "grid_similarity":
        return _generated_pairs(_grid_similarity_docs(), rng)
    if workload == "dense_oracle":
        return _generated_pairs(_dense_oracle_docs(), rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
