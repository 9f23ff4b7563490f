"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np

from swapbound.assignment import (
    assign_qubits,
    enumerate_connected_subgraph_classes,
    graph_edit_distance,
    max_swap_bound,
    vf2_embed,
)
from swapbound.bench import bench_summary, beta_histogram, load_manifest, run_manifest
from swapbound.circuits import Circuit, interaction_graph, parse_circuit_json, parse_device
from swapbound.graphs import Graph, canonical_form, induced_subgraph
from swapbound.oracle import _SwapFloor, brute_force_min_swaps
from swapbound.spectral import entropy_curve, laplacian
from swapbound.uncomplexity import (
    beta_sweep,
    standard_beta_grid,
    swap_uncomplexity,
)

from conftest import (
    all_graphs,
    build_assignment,
    connected_graphs,
    cycle_graph,
    exhaustive_ged,
    graph_from_edges,
    random_circuit,
    random_connected_graph,
    random_density,
    star_graph,
)
from reference_spectral import (
    DensityMatrix,
    aligned_qjsd,
    gibbs_state,
    qjsd,
    qjsd_via_qre,
    von_neumann_entropy,
)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "swapbound" / "fixtures"
LN2 = math.log(2.0)


def report(line: str):
    print(line, flush=True)


# -------------------------------------------------------------------------
# 1. Sandwich: certified floor <= exact optimum <= swept count, and the
#    exact optimum <= maximal bound
# -------------------------------------------------------------------------

def test_acceptance_1_sandwich_property():
    # Only relations that hold by construction are asserted: the floor
    # is a lower bound, and both the swept count (a non-stalled run is a
    # schedule) and the diameter bound are feasible schedules. The swept
    # count can exceed the optimum (cex5@cex7), so how often it equals
    # the optimum is reported as an empirical count.
    rng = np.random.default_rng(20240811)
    budget = time.time() + 300  # the stated runtime expectation
    violations = []
    instances = 0
    tight = 0
    while instances < 200:
        assert time.time() < budget, "sandwich suite exceeded its runtime budget"
        k = int(rng.integers(3, 6))
        n = int(rng.integers(5, 8))
        cg = random_connected_graph(rng, n, float(rng.uniform(0.1, 0.5)))
        ig = interaction_graph(random_circuit(rng, k))
        placed = assign_qubits(ig, cg)
        sweep = beta_sweep(ig, placed.assignment)
        oracle = brute_force_min_swaps(ig.graph, placed.assignment)
        m_max = max_swap_bound(ig, placed.assignment)
        floor = _SwapFloor(sorted(ig.graph.edges), placed.assignment.cg_subgraph)
        layers = floor.layers(placed.assignment.positions())
        lower = floor(sum(mask for _, mask in layers), layers)
        instances += 1
        tight += sweep.m_star == oracle
        if not (lower <= oracle <= sweep.m_star and oracle <= m_max):
            violations.append((instances, lower, oracle, sweep.m_star, m_max))
    assert instances >= 200
    assert violations == [], f"sandwich violations: {violations}"
    report(
        f"ACCEPTANCE 1 floor <= oracle <= u_swap, oracle <= m_swap_max on "
        f"{instances} instances: PASS (empirical: u_swap == oracle on {tight})"
    )


# -------------------------------------------------------------------------
# 2. Exact embeddings certify zero: u_swap = 0 and vanishing divergence
# -------------------------------------------------------------------------

def _grown_tree_instance(rng):
    """IG tree planted in a larger tree: every monomorphism is induced-exact
    (a k-vertex induced forest holding k-1 mapped edges has exactly them)."""
    k = int(rng.integers(3, 7))
    n = k + int(rng.integers(1, 4))
    ig_edges = [(int(rng.integers(0, i)), i) for i in range(1, k)]
    ig = graph_from_edges(k, ig_edges)
    placement = [int(x) for x in rng.permutation(n)]
    planted, others = placement[:k], placement[k:]
    edges = {tuple(sorted((planted[u], planted[v]))) for u, v in ig.edges}
    attached = list(planted)
    for o in others:
        anchor = attached[int(rng.integers(0, len(attached)))]
        edges.add(tuple(sorted((o, anchor))))
        attached.append(o)
    return ig, graph_from_edges(n, edges)


def _planted_instance(rng):
    """Connected IG planted in a host grown around it with leaf attachments."""
    k = int(rng.integers(3, 6))
    ig = random_connected_graph(rng, k, float(rng.uniform(0.1, 0.5)))
    n = k + int(rng.integers(1, 4))
    placement = [int(x) for x in rng.permutation(n)]
    planted, others = placement[:k], placement[k:]
    edges = {tuple(sorted((planted[u], planted[v]))) for u, v in ig.edges}
    attached = list(planted)
    for o in others:
        anchor = attached[int(rng.integers(0, len(attached)))]
        edges.add(tuple(sorted((o, anchor))))
        attached.append(o)
    return ig, graph_from_edges(n, edges)


def _every_spanning_host_is_exact(ig: Graph, cg: Graph) -> bool:
    """True when every k-subset hosting the pattern induces exactly its edges,
    so any embedding the matcher returns aligns with vanishing divergence."""
    k = ig.n
    for subset in itertools.combinations(range(cg.n), k):
        host = induced_subgraph(cg, subset)
        if vf2_embed(ig, host) is not None and host.num_edges() != ig.num_edges():
            return False
    return True


def test_acceptance_2_isomorphism_zero():
    rng = np.random.default_rng(424242)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 3000, "instance filter failed to converge"
        ig_graph, cg = (_grown_tree_instance if attempts % 2 else _planted_instance)(rng)
        if not _every_spanning_host_is_exact(ig_graph, cg):
            # non-exact hosts exist: u_swap is still zero for any embedding
            # (every interaction executes), only the divergence claim weakens
            loose = interaction_graph(Circuit(ig_graph.n, tuple(ig_graph.edge_list)))
            loose_placed = assign_qubits(loose, cg)
            if loose_placed.method == "vf2":
                m, _ = swap_uncomplexity(loose, loose_placed.assignment, 1e-3)
                assert m == 0
            continue
        ig = interaction_graph(Circuit(ig_graph.n, tuple(ig_graph.edge_list)))
        placed = assign_qubits(ig, cg)
        assert placed.method == "vf2" and placed.ged == 0
        initial = aligned_qjsd(ig.graph, placed.assignment, 1.0)
        assert initial <= 1e-10
        sweep = beta_sweep(ig, placed.assignment)
        assert sweep.m_star == 0
        accepted += 1
    report(f"ACCEPTANCE 2 isomorphism zero on {accepted} instances: PASS")


# -------------------------------------------------------------------------
# 3. Bundled branched-IG fixture: two host classes and edit distance one
# -------------------------------------------------------------------------

def test_acceptance_3_branched_fixture_reproduction():
    circuit = parse_circuit_json((FIXTURES / "paw4.json").read_bytes())
    device = parse_device((FIXTURES / "tshape7.json").read_bytes())
    ig = interaction_graph(circuit)
    classes = enumerate_connected_subgraph_classes(device.coupling, ig.graph.n)
    assert len(classes) == 2
    placed = assign_qubits(ig, device.coupling)
    assert placed.ged == 1
    best = min(
        graph_edit_distance(ig.graph, c.graph).distance for c in classes
    )
    assert best == 1
    report("ACCEPTANCE 3 branched fixture (2 classes, GED=1): PASS")


# -------------------------------------------------------------------------
# 4. Divergence dual-form identity
# -------------------------------------------------------------------------

def test_acceptance_4_qjsd_dual_form():
    rng = np.random.default_rng(515151)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        a = DensityMatrix.from_matrix(random_density(rng, d))
        b = DensityMatrix.from_matrix(random_density(rng, d))
        diff = abs(qjsd(a, b) - qjsd_via_qre(a, b))
        worst = max(worst, diff)
        assert diff <= 1e-9
    report(f"ACCEPTANCE 4 dual-form identity (1000 pairs, worst {worst:.2e}): PASS")


# -------------------------------------------------------------------------
# 5. Metric and entropy property suite
# -------------------------------------------------------------------------

def test_acceptance_5_metric_entropy_suite():
    rng = np.random.default_rng(616161)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        a = DensityMatrix.from_matrix(random_density(rng, d))
        b = DensityMatrix.from_matrix(random_density(rng, d))
        c = DensityMatrix.from_matrix(random_density(rng, d))
        vab, vac, vbc = qjsd(a, b), qjsd(a, c), qjsd(b, c)
        for v in (vab, vac, vbc):
            assert 0.0 <= v <= LN2 + 1e-12
        assert math.sqrt(vab) + math.sqrt(vac) >= math.sqrt(vbc) - 1e-9
        assert math.sqrt(vab) + math.sqrt(vbc) >= math.sqrt(vac) - 1e-9
        assert math.sqrt(vac) + math.sqrt(vbc) >= math.sqrt(vab) - 1e-9

    for _ in range(200):
        d = int(rng.integers(2, 9))
        rho = DensityMatrix.from_matrix(random_density(rng, d))
        perm = np.eye(d)[rng.permutation(d)]
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s = von_neumann_entropy(rho)
        s_perm = von_neumann_entropy(DensityMatrix.from_matrix(perm @ rho.entries @ perm.T))
        s_orth = von_neumann_entropy(DensityMatrix.from_matrix(q @ rho.entries @ q.T))
        assert abs(s_perm - s) <= 1e-10
        assert abs(s_orth - s) <= 1e-10

    grid = standard_beta_grid()
    count = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            count += 1
            rho = gibbs_state(laplacian(g), float(rng.uniform(0.0, 2.0)))
            assert abs(float(np.trace(rho.entries)) - 1.0) <= 1e-12
            values = [s for _, s in entropy_curve(g, grid)]
            assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(values, values[1:]))
    report(f"ACCEPTANCE 5 metric/entropy suite ({count} connected graphs): PASS")


# -------------------------------------------------------------------------
# 6. Oracle cross-validation
# -------------------------------------------------------------------------

def test_acceptance_6_oracle_cross_validation():
    pairs_checked = 0
    for n in (3, 4, 5):
        reps = {}
        for g in all_graphs(n):
            reps.setdefault(canonical_form(g), g)
        reps = list(reps.values())
        for g, h in itertools.permutations(reps, 2):
            assert graph_edit_distance(g, h).distance == exhaustive_ged(g, h)
            pairs_checked += 1

    p4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_force_min_swaps(p4, build_assignment(p4, (0, 1, 2, 3))) == 0
    star = star_graph(4)
    assert brute_force_min_swaps(star, build_assignment(p4, (1, 0, 2, 3))) == 1
    k4 = graph_from_edges(4, itertools.combinations(range(4), 2))
    assert brute_force_min_swaps(k4, build_assignment(p4, (0, 1, 2, 3))) == 3
    report(f"ACCEPTANCE 6 oracle cross-validation ({pairs_checked} pairs, 0/1/3): PASS")


# -------------------------------------------------------------------------
# 8. Winning-beta distribution report on the bundled manifest
# -------------------------------------------------------------------------

def test_acceptance_8_beta_distribution_report():
    grid = standard_beta_grid()
    rows = run_manifest(load_manifest(FIXTURES / "manifest.json"))
    assert all(not r.error for r in rows)
    hist = beta_histogram(rows, grid)
    assert sum(c for _, c in hist) == len(rows)
    non_iso = [r for r in rows if r.ged and r.ged > 0]
    assert non_iso, "manifest must exercise non-isomorphic pairs"
    for r in non_iso:
        assert 1e-5 <= r.beta_star <= 1e5
    summary = bench_summary(rows, grid)
    assert summary["sandwich_violations"] == []
    report(
        "ACCEPTANCE 8 beta distribution: PASS "
        f"(high-temperature fraction {summary['high_temperature_fraction']:.2f}, "
        "informational)"
    )


# -------------------------------------------------------------------------
# 9. Runtime-scaling sanity (informational)
# -------------------------------------------------------------------------

def _per_iteration_cost(n: int) -> float:
    ig = interaction_graph(Circuit(n, tuple((0, i) for i in range(1, n))))
    ring = cycle_graph(n)
    a = build_assignment(ring, tuple(range(n)))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _, trace = swap_uncomplexity(ig, a, 1e-2)
        elapsed = time.perf_counter() - t0
        if trace.iterations:
            best = min(best, elapsed / trace.iterations)
    assert math.isfinite(best)
    return best


def test_acceptance_9_runtime_scaling():
    dims = (4, 8, 16)
    costs = {n: _per_iteration_cost(n) for n in dims}
    report(f"ACCEPTANCE 9 per-iteration costs: { {n: f'{c*1e6:.0f}us' for n, c in costs.items()} }")
    # allowed envelope: cubic in candidate count (ring: n) times eig cost (n^3)
    for small, large in ((4, 8), (8, 16)):
        allowed = (large / small) ** 3 * (large / small) ** 3 * 10.0
        measured = costs[large] / costs[small]
        assert measured <= allowed, f"cost ratio {measured:.1f} exceeds envelope {allowed:.0f}"
    report("ACCEPTANCE 9 runtime-scaling sanity (factor-10 slack): PASS")
