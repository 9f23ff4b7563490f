"""One pass over a workload's pairs, and the checks on its outputs.

Each pair goes through the library's public entry points in the order
``swapbound bench`` uses: parse, ``interaction_graph``, ``assign_qubits``,
``max_swap_bound``, ``beta_sweep`` and, up to the oracle's size guard,
``brute_force_min_swaps``. Pairs run sequentially in one process: a
closed loop with a single caller.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import swapbound
from swapbound.oracle import ORACLE_MAX_VERTICES
from swapbound.spectral import laplacian_spectrum

from workloads import Pair

PAIR_TIMEOUT_S = 30  # a pair without a result by then counts as stalled

# Output fields compared against expected.json.
OUTPUT_FIELDS = ("method", "ged", "u_swap", "beta_star", "m_swap_max", "oracle")


def plain_api() -> SimpleNamespace:
    """The public functions a pass calls; the tracer wraps the same names."""
    return SimpleNamespace(
        parse_circuit_json=swapbound.parse_circuit_json,
        parse_circuit_qasm_subset=swapbound.parse_circuit_qasm_subset,
        parse_device=swapbound.parse_device,
        interaction_graph=swapbound.interaction_graph,
        assign_qubits=swapbound.assign_qubits,
        max_swap_bound=swapbound.max_swap_bound,
        beta_sweep=swapbound.beta_sweep,
        brute_force_min_swaps=swapbound.brute_force_min_swaps,
    )


@dataclass
class Outcome:
    """What one pair returned, kept until the pass's outputs are checked."""

    ig: object
    coupling: object
    placed: object
    sweep: object
    m_swap_max: int
    oracle: int | None

    def outputs(self) -> tuple:
        return (
            self.placed.method,
            self.placed.ged,
            self.sweep.m_star,
            self.sweep.beta_star,
            self.m_swap_max,
            self.oracle,
        )


@dataclass
class PairRun:
    pair_id: str
    start: float  # time.perf_counter() when the pair began
    end: float
    outcome: Outcome | None
    error: str = ""


def run_pair(pair: Pair, api: SimpleNamespace) -> Outcome:
    if pair.qasm:
        circuit = api.parse_circuit_qasm_subset(pair.circuit, name=pair.circuit_name)
    else:
        circuit = api.parse_circuit_json(pair.circuit)
    device = api.parse_device(pair.device)
    ig = api.interaction_graph(circuit)
    placed = api.assign_qubits(ig, device.coupling)
    m_swap_max = api.max_swap_bound(ig, placed.assignment)
    sweep = api.beta_sweep(ig, placed.assignment)
    oracle = None
    if ig.graph.n <= ORACLE_MAX_VERTICES:
        oracle = api.brute_force_min_swaps(ig.graph, placed.assignment)
    return Outcome(ig, device.coupling, placed, sweep, m_swap_max, oracle)


class PairTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise PairTimeout(f"no result within {PAIR_TIMEOUT_S} s")


def run_pass(pairs: list[Pair], api: SimpleNamespace, tracer=None, skip=frozenset()):
    """Bound every pair once from a cold spectrum cache; returns (start, end, runs).

    Pairs in ``skip`` (those that timed out before) are not run again and
    count as failed, so that one stalled pair cannot stretch a run past
    its time limit.
    """
    laplacian_spectrum.cache_clear()
    gc.collect()
    runs = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        for pair in pairs:
            if pair.pair_id in skip:
                now = time.perf_counter()
                runs.append(PairRun(pair.pair_id, now, now, None, "PairTimeout: skipped"))
                continue
            call = tracer.pair_call(pair.pair_id, run_pair) if tracer else run_pair
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, PAIR_TIMEOUT_S)
                outcome = call(pair, api)
                error = ""
            except Exception as exc:  # any raise counts the pair as failed
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            runs.append(PairRun(pair.pair_id, t0, time.perf_counter(), outcome, error))
        end = time.perf_counter()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return start, end, runs


def _diameter(nodes: list[int], edges: set[tuple[int, int]]) -> int:
    adjacency = {v: [] for v in nodes}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    best = 0
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != len(nodes):
            raise ValueError("chosen device subgraph is disconnected")
        best = max(best, max(dist.values()))
    return best


def check_outcome(o: Outcome, expected: list | None) -> list[str]:
    """Problems with one pair's outputs, from relations that hold by construction.

    ``u_swap <= oracle`` is deliberately not checked: it is false in
    general, and ``grid_similarity`` holds a pair where it fails.
    """
    problems = []
    k, device_n = o.ig.graph.n, o.coupling.n
    placement = tuple(o.placed.assignment.ig_to_cg)
    if len(placement) != k or len(set(placement)) != k:
        problems.append(f"assignment {placement} is not injective over {k} qubits")
    if not all(0 <= c < device_n for c in placement):
        problems.append(f"assignment {placement} leaves the device's {device_n} nodes")
    if problems:
        return problems
    nodes = sorted(placement)
    chosen = set(nodes)
    induced = {e for e in o.coupling.edges if e[0] in chosen and e[1] in chosen}
    mapped = {tuple(sorted((placement[u], placement[v]))) for u, v in o.ig.graph.edges}
    method, ged = o.placed.method, o.placed.ged
    if method == "vf2":
        if ged != 0 or not mapped <= induced:
            problems.append(f"vf2 placement has ged={ged} or an interaction off the couplers")
    elif ged != len(mapped ^ induced):
        problems.append(f"ged={ged} but the placement's edge difference is {len(mapped ^ induced)}")
    try:
        diameter = _diameter(nodes, induced)
    except ValueError as exc:
        problems.append(str(exc))
    else:
        want = o.ig.gate_count() * max(diameter - 1, 0)
        if o.m_swap_max != want:
            problems.append(f"m_swap_max={o.m_swap_max}, diameter bound gives {want}")
    if (o.oracle is None) != (k > ORACLE_MAX_VERTICES):
        problems.append(f"oracle={o.oracle} for k={k} contradicts the size guard")
    if o.oracle is not None:
        if o.oracle > o.sweep.m_star:
            problems.append(f"oracle={o.oracle} > u_swap={o.sweep.m_star}")
        if o.oracle > o.m_swap_max:
            problems.append(f"oracle={o.oracle} > m_swap_max={o.m_swap_max}")
    if expected is not None and list(o.outputs()) != expected:
        problems.append(f"outputs {list(o.outputs())} differ from recorded {expected}")
    return problems
