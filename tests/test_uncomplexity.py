import math
from dataclasses import replace

import numpy as np
import pytest

from swapbound.assignment import (
    assign_qubits,
    exchanges,
    max_swap_bound,
    pending_interactions,
)
from swapbound.circuits import Circuit, interaction_graph
from swapbound.errors import SweepError, ValidationError
from swapbound.graphs import Graph
from swapbound.oracle import brute_force_min_swaps
from swapbound.spectral import laplacian_spectrum
from swapbound.uncomplexity import (
    EraseStep,
    StallStep,
    SwapStep,
    _divergences,
    _gibbs,
    beta_sweep,
    compute_bound,
    standard_beta_grid,
    swap_uncomplexity,
)

from conftest import (
    build_assignment,
    complete_graph,
    cycle_graph,
    gibbs_probs,
    graph_from_edges,
    path_graph,
    random_connected_graph,
    random_interaction_graph,
    scalar_entropy,
    star_graph,
)
from reference_spectral import (
    aligned_qjsd,
    cg_in_ig_frame,
    graph_gibbs,
    qjsd,
    remove_trivial_edges,
)


def ig_of(graph: Graph):
    return interaction_graph(Circuit(graph.n, tuple(graph.edge_list)))


def test_standard_grid_shape():
    grid = standard_beta_grid()
    assert len(grid) == 99
    assert len(set(grid)) == 99
    assert all(b2 > b1 for b1, b2 in zip(grid, grid[1:]))
    assert grid[0] == 1e-5
    assert grid[-1] == 9e5
    mantissas = {round(b / 10 ** math.floor(math.log10(b))) for b in grid}
    assert mantissas == set(range(1, 10))


def test_remove_trivial_edges_isomorphic_match():
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    assert remove_trivial_edges(path_graph(4), a).num_edges() == 0


def test_remove_trivial_edges_k4_on_p4():
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    remaining = remove_trivial_edges(complete_graph(4), a)
    assert remaining.edge_list == ((0, 2), (0, 3), (1, 3))


def test_remove_trivial_edges_edgeless():
    a = build_assignment(path_graph(3), (0, 1, 2))
    assert remove_trivial_edges(Graph(3), a).num_edges() == 0


def test_aligned_qjsd_zero_on_exact_match():
    a = build_assignment(path_graph(4), (1, 0, 2, 3))
    frame = cg_in_ig_frame(a)
    assert aligned_qjsd(frame, a, 0.8) <= 1e-12


def test_aligned_qjsd_edgeless_ig_commuting_oracle():
    # I/n against the device state: scalar evaluation in the shared eigenbasis
    a = build_assignment(path_graph(3), (0, 1, 2))
    beta = 0.6
    q = gibbs_probs([0.0, 1.0, 3.0], beta)  # P3 Laplacian spectrum
    mix = [(1 / 3 + x) / 2 for x in q]
    expected = scalar_entropy(mix) - (math.log(3) + scalar_entropy(q)) / 2
    got = aligned_qjsd(Graph(3), a, beta)
    assert got == pytest.approx(expected, abs=1e-12)


def test_aligned_qjsd_symmetric_roles():
    a = build_assignment(path_graph(4), (2, 1, 0, 3))
    g = star_graph(4)
    beta = 0.3
    rho = graph_gibbs(g, beta)
    sigma = graph_gibbs(cg_in_ig_frame(a), beta)
    assert qjsd(rho, sigma) == pytest.approx(qjsd(sigma, rho), abs=1e-12)
    assert aligned_qjsd(g, a, beta) == pytest.approx(qjsd(rho, sigma), abs=1e-12)


def test_swap_uncomplexity_zero_on_monomorphic_match():
    ig = ig_of(path_graph(3))
    res = assign_qubits(ig, path_graph(4))
    m, trace = swap_uncomplexity(ig, res.assignment, 0.5)
    assert m == 0
    assert not trace.stalled


def test_swap_uncomplexity_star_on_path():
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (1, 0, 2, 3))
    for beta in (1e-4, 1e-3, 1e-2):
        m, trace = swap_uncomplexity(ig, a, beta)
        assert m == 1
        assert not trace.stalled
    assert brute_force_min_swaps(ig.graph, a) == 1


def test_swap_uncomplexity_k4_on_p4_bounded_by_oracle():
    ig = ig_of(complete_graph(4))
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    sweep = beta_sweep(ig, a)
    assert sweep.m_star <= 3 == brute_force_min_swaps(ig.graph, a)


def test_early_zero_requires_edge_set_equality_not_just_divergence():
    # At beta tiny the divergence of distinct graphs all but vanishes; the
    # descent must still run until every interaction sits on a coupler.
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (1, 0, 2, 3))
    beta = 1e-5
    assert aligned_qjsd(ig.graph, a, beta) <= 1e-10
    m, _ = swap_uncomplexity(ig, a, beta)
    assert m == 1


def test_trace_swaps_strictly_improve_and_erasures_account():
    rng = np.random.default_rng(109)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(3, 6))
        ig = random_interaction_graph(rng, k)
        cg = random_connected_graph(rng, int(rng.integers(k, 8)), 0.4)
        a = assign_qubits(ig, cg).assignment
        beta = float(rng.choice([1e-4, 1e-2, 1.0]))
        m, trace = swap_uncomplexity(ig, a, beta)
        swaps = [s for s in trace.steps if isinstance(s, SwapStep)]
        assert len(swaps) == m == trace.swap_count
        for s in swaps:
            if not s.forced:
                assert s.qjsd_after < s.qjsd_before - 1e-12
        erased = [e for s in trace.steps if isinstance(s, EraseStep) for e in s.edges]
        if not trace.stalled:
            remaining0 = remove_trivial_edges(ig.graph, a)
            assert sorted(erased) == sorted(remaining0.edge_list)
            checked += 1
    assert checked > 30


def test_termination_iteration_budget():
    rng = np.random.default_rng(113)
    for _ in range(40):
        k = int(rng.integers(3, 6))
        ig = random_interaction_graph(rng, k)
        cg = random_connected_graph(rng, int(rng.integers(k, 8)), 0.4)
        placed = assign_qubits(ig, cg)
        a = placed.assignment
        budget = max_swap_bound(ig, a)
        remaining0 = remove_trivial_edges(ig.graph, a)
        cap = budget + remaining0.num_edges() * max(a.cg_subgraph.num_edges(), 1)
        for beta in (1e-4, 1.0):
            _, trace = swap_uncomplexity(ig, a, beta)
            assert trace.iterations <= cap


def test_trace_divergences_match_public_route():
    # replay the descent's trace through the public single-shot operations
    rng = np.random.default_rng(131)
    replayed = 0
    for _ in range(30):
        k = int(rng.integers(4, 6))
        ig = ig_of(random_connected_graph(rng, k, 0.8))  # dense: forces swaps
        cg = random_connected_graph(rng, int(rng.integers(k, 8)), 0.15)
        a = assign_qubits(ig, cg).assignment
        beta = float(rng.choice([1e-3, 0.1, 1.0]))
        replayed += _replay_through_reference(ig, cg, a, beta)
    assert replayed > 10


def _replay_through_reference(ig, cg, a, beta) -> int:
    """Check every swap's divergences in the run's trace; returns the swaps checked."""
    _, trace = swap_uncomplexity(ig, a, beta)
    current = a
    remaining = remove_trivial_edges(ig.graph, a)
    replayed = 0
    for step in trace.steps:
        if isinstance(step, SwapStep):
            expected = aligned_qjsd(remaining, current, beta)
            assert step.qjsd_before == pytest.approx(expected, abs=1e-10)
            # exchange the IG vertices sitting on the swapped subgraph edge
            ig_to_cg = list(current.ig_to_cg)
            pos = current.positions()
            u, v = pos.index(step.edge[0]), pos.index(step.edge[1])
            ig_to_cg[u], ig_to_cg[v] = ig_to_cg[v], ig_to_cg[u]
            current = build_assignment(cg, ig_to_cg)
            assert step.qjsd_after == pytest.approx(
                aligned_qjsd(remaining, current, beta), abs=1e-10
            )
            replayed += 1
        elif isinstance(step, EraseStep):
            remaining = Graph(remaining.n, remaining.edges - set(step.edges))
    if not trace.stalled:
        assert remaining.num_edges() == 0
    return replayed


def test_a_placement_met_again_after_an_erasure_is_evaluated_afresh():
    # K4 on P5 at beta = 70 comes back after an erasure to a placement it
    # evaluated under the larger pending set; a move kept across the erasure
    # would be stale, so the descent's memo must start empty after each one
    ig, cg = ig_of(complete_graph(4)), path_graph(5)
    a = assign_qubits(ig, cg).assignment
    _, trace = swap_uncomplexity(ig, a, 70.0)
    pending_sets = {}
    for pending, pos in _states_evaluated(ig, a, trace):
        pending_sets.setdefault(pos, set()).add(pending)
    assert max(len(sets) for sets in pending_sets.values()) > 1
    assert _replay_through_reference(ig, cg, a, 70.0) == trace.swap_count
    assert not trace.stalled


FORCING = StallStep("no improving swap; applying least-bad candidate")
CAP = StallStep("iteration cap reached")


def test_trace_grammar_of_the_single_swap_path():
    # A forced swap directly follows the forcing stall, an erase only follows
    # a swap, and any other stall ends a stalled run.
    rng = np.random.default_rng(137)
    forced = stalled = 0
    for _ in range(120):
        k = int(rng.integers(3, 7))
        ig = random_interaction_graph(rng, k)
        cg = random_connected_graph(rng, int(rng.integers(k, 9)), 0.35)
        a = assign_qubits(ig, cg).assignment
        for beta in (1e-300, 1e-4, 1.0, 9e5):
            for stall_budget in (None, 0, 2):
                _, trace = swap_uncomplexity(ig, a, beta, stall_budget=stall_budget)
                steps = trace.steps
                for i, step in enumerate(steps):
                    before = steps[i - 1] if i else None
                    if isinstance(step, SwapStep):
                        assert step.forced == (before == FORCING)
                        forced += step.forced
                    elif isinstance(step, EraseStep):
                        assert isinstance(before, SwapStep)
                    elif step == FORCING:
                        assert isinstance(steps[i + 1], SwapStep)
                    else:
                        assert i == len(steps) - 1
                ends_in_stall = bool(steps) and isinstance(steps[-1], StallStep)
                assert trace.stalled == ends_in_stall
                assert trace.iterations == trace.swap_count + trace.stalled
                stalled += trace.stalled
    assert forced > 0 and stalled > 0


def test_sweep_calls_go_through_the_traced_module_names(monkeypatch):
    # perfbench's tracer counts runs, spectra and eigvalsh batches by patching
    # these names; a descent that bypassed them would zero its counts.
    traces = []
    calls = {"spectra": 0, "eigvalsh": 0}

    def run(*args, **kwargs):
        result = swap_uncomplexity(*args, **kwargs)
        traces.append(result[1])
        return result

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr("swapbound.uncomplexity.swap_uncomplexity", run)
    monkeypatch.setattr(
        "swapbound.uncomplexity.laplacian_spectrum", counted("spectra", laplacian_spectrum)
    )
    monkeypatch.setattr("numpy.linalg.eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    # K4@P4 never comes back to a state; C5@P5 walks forced-swap cycles
    fixtures = [(complete_graph(4), path_graph(4), False), (cycle_graph(5), path_graph(5), True)]
    for graph, cg, revisits in fixtures:
        traces.clear()
        calls.update(spectra=0, eigvalsh=0)
        ig = ig_of(graph)
        a = build_assignment(cg, tuple(range(cg.n)))
        beta_sweep(ig, a)
        iterations = sum(t.iterations for t in traces)
        assert len(traces) == 99
        assert iterations > 99
        evaluated = [set(_states_evaluated(ig, a, t)) for t in traces]
        # the subgraph's spectrum once per run, the pending graph's once per
        # pending set: on the first iteration and on each one after an erasure,
        # never again after a swap that erased nothing
        pending_sets = sum(len({pending for pending, _ in run}) for run in evaluated)
        assert calls["spectra"] == 99 + pending_sets
        assert calls["spectra"] < 99 + iterations
        # one batch per distinct (pending set, placement) state a run evaluates;
        # a revisited state reuses the move chosen on its first visit
        states = sum(len(run) for run in evaluated)
        assert calls["eigvalsh"] == states
        assert (states < iterations) == revisits


def _states_evaluated(ig, a, trace) -> list:
    """The ``(pending set, placement)`` state of every iteration that evaluates one.

    Replayed from the trace: each swap is made from the state before it, and a
    run that ends on its stall budget evaluates its last state first; the
    iteration cap evaluates nothing.
    """
    sub = a.cg_subgraph
    pos = a.positions()
    remaining = pending_interactions(ig.graph.edges, pos, sub.edges)
    states = []
    for step in trace.steps:
        if isinstance(step, SwapStep):
            states.append((remaining, pos))
            x, y = step.edge
            pos = tuple(y if p == x else x if p == y else p for p in pos)
        elif isinstance(step, EraseStep):
            remaining = remaining - set(step.edges)
        elif step == StallStep("stall budget exhausted"):
            states.append((remaining, pos))
    return states


def test_a_run_that_revisits_a_state_ends_stalled():
    # The move from a state depends on the state alone, so a run that comes
    # back to one (with no erasure between: the pending set only shrinks)
    # repeats the same cycle until its stall budget or the iteration cap ends it.
    rng = np.random.default_rng(149)
    revisiting = 0
    for _ in range(60):
        k = int(rng.integers(3, 7))
        ig = random_interaction_graph(rng, k)
        cg = random_connected_graph(rng, int(rng.integers(k, 9)), 0.35)
        a = assign_qubits(ig, cg).assignment
        for beta in (1e-300, 1e-2, 1.0, 100.0):
            for stall_budget in (None, 3):
                _, trace = swap_uncomplexity(ig, a, beta, stall_budget=stall_budget)
                states = _states_evaluated(ig, a, trace)
                assert len(states) == trace.iterations - (trace.steps[-1:] == (CAP,))
                if len(set(states)) < len(states):
                    revisiting += 1
                    assert trace.stalled
    assert revisiting > 10


def _ix_divergences(rho, sigma, placements):
    """``_divergences`` with one ``np.ix_`` gather per placement."""
    (rho_m, s_rho), (sigma_m, s_sigma) = rho, sigma
    k = len(rho_m)
    stacked = np.empty((len(placements), k, k))
    for i, p in enumerate(placements):
        stacked[i] = (rho_m + sigma_m[np.ix_(p, p)]) / 2.0
    q = np.maximum(np.linalg.eigvalsh(stacked), 0.0)
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    entropies = np.maximum(-terms.sum(axis=1), 0.0)
    return np.maximum(entropies - (s_rho + s_sigma) / 2.0, 0.0)


@pytest.mark.parametrize("k", range(2, 8))
def test_divergences_one_gather_equals_per_placement_gathers(k):
    rng = np.random.default_rng(1000 + k)
    for _ in range(4):
        pending = random_interaction_graph(rng, k).graph
        sub = random_connected_graph(rng, k, 0.3)
        pos = tuple(int(i) for i in rng.permutation(k))
        for beta in (1e-5, 1.0, 9e5):
            rho, sigma = _gibbs(pending, beta), _gibbs(sub, beta)
            for placements in ([pos], [pos] + exchanges(pos, sub)):
                assert np.array_equal(
                    _divergences(rho, sigma, placements), _ix_divergences(rho, sigma, placements)
                )


def test_deterministic_traces():
    rng = np.random.default_rng(127)
    ig = random_interaction_graph(rng, 5)
    cg = random_connected_graph(rng, 7, 0.3)
    a = assign_qubits(ig, cg).assignment
    m1, t1 = swap_uncomplexity(ig, a, 0.01)
    m2, t2 = swap_uncomplexity(ig, a, 0.01)
    assert m1 == m2
    assert t1 == t2


def test_stall_budget_zero_flags_stall():
    # An interaction the subgraph cannot relieve in one improving move may
    # stall immediately when the budget is zero; the run must flag it.
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    m, trace = swap_uncomplexity(ig, a, 1e-3, stall_budget=0)
    if trace.stalled:
        assert any(isinstance(s, StallStep) for s in trace.steps)
    else:
        assert m >= 1


def test_beta_sweep_isomorphic_all_zero():
    ig = ig_of(path_graph(3))
    a = assign_qubits(ig, path_graph(4)).assignment
    sweep = beta_sweep(ig, a)
    assert sweep.m_star == 0
    assert sweep.beta_star == 1e-5  # tie on m resolves to the smallest beta
    assert len(sweep.per_beta) == 99
    assert all(m == 0 for _, m, _ in sweep.per_beta)


def test_beta_sweep_star_case():
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (1, 0, 2, 3))
    sweep = beta_sweep(ig, a)
    assert sweep.m_star == 1


def test_beta_sweep_all_stalled_raises(monkeypatch):
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    # a grid of one ultra-high-temperature point with no stall budget: no
    # strict improvement is representable, so the run must stall
    monkeypatch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: (1e-300,))
    with pytest.raises(SweepError) as err:
        beta_sweep(ig, a, stall_budget=0)
    assert err.value.partial == [(1e-300, 0, True)]


def test_compute_bound_end_to_end():
    ig = ig_of(complete_graph(4))
    report = compute_bound(ig, path_graph(4))
    assert report.u_swap <= 3
    assert report.m_swap_max == 12
    assert report.ged == 3
    assert report.per_beta is not None and len(report.per_beta) == 99
    assert report.u_swap <= report.m_swap_max


def test_compute_bound_trace_is_the_winning_run():
    # The smallest beta needs 3 swaps here, the winner (beta = 5) only 2, so
    # the reported trace must come from the winning run, not the first.
    ig = ig_of(
        graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (3, 4)])
    )
    cg = graph_from_edges(5, [(0, 1), (0, 2), (0, 4), (2, 3), (3, 4)])
    report = compute_bound(ig, cg)
    sweep = beta_sweep(ig, report.assignment)
    assert (report.beta_star, report.u_swap, report.per_beta) == (
        sweep.beta_star,
        sweep.m_star,
        sweep.per_beta,
    )
    assert report.per_beta[0][1] > report.u_swap
    m, trace = swap_uncomplexity(ig, report.assignment, report.beta_star)
    assert report.trace == trace == sweep.trace
    assert m == report.u_swap == trace.swap_count


def test_compute_bound_reports_compare_equal_despite_timings():
    ig = ig_of(complete_graph(4))
    first = compute_bound(ig, path_graph(4))
    second = compute_bound(ig, path_graph(4))
    assert first.sweep_ms > 0.0
    assert first == second
    assert first == replace(second, assign_ms=first.assign_ms + 1.0, sweep_ms=0.0)


def test_compute_bound_rejects_negative_stall_budget():
    ig = ig_of(star_graph(4))
    for beta in (None, 1e-3):
        with pytest.raises(ValidationError, match="stall_budget must be >= 0"):
            compute_bound(ig, path_graph(4), beta=beta, stall_budget=-1)


def test_compute_bound_single_beta():
    ig = ig_of(star_graph(4))
    report = compute_bound(ig, path_graph(4), beta=1e-3)
    assert report.beta_star == 1e-3
    assert report.per_beta is None


@pytest.mark.parametrize("beta", [None, 0.5])
def test_compute_bound_computes_max_swap_bound_once(monkeypatch, beta):
    # the default stall budget is m_swap_max: compute it once and pass it down
    calls = []

    def counted(ig, a):
        calls.append(1)
        return max_swap_bound(ig, a)

    monkeypatch.setattr("swapbound.uncomplexity.max_swap_bound", counted)
    report = compute_bound(ig_of(complete_graph(4)), path_graph(4), beta=beta)
    assert len(calls) == 1
    assert report.m_swap_max == 12
