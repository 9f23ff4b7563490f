import hashlib
import itertools
import math
import operator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swapbound
from swapbound.assignment import (
    assign_qubits,
    exchanges,
    max_swap_bound,
    pending_interactions,
)
from swapbound.bench import load_manifest, read_circuit_file
from swapbound.circuits import Circuit, interaction_graph, parse_device
from swapbound.graphs import Graph
from swapbound.oracle import brute_force_min_swaps
from swapbound.spectral import entropy_curve, gibbs_weights, laplacian_spectrum
from swapbound.uncomplexity import (
    AlgoTrace,
    EraseStep,
    StallStep,
    SwapStep,
    SweepResult,
    _divergences,
    _gibbs,
    _routes,
    _sweep,
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
    relabel,
    scalar_entropy,
    star_graph,
)
from reference_spectral import (
    aligned_qjsd,
    cg_in_ig_frame,
    graph_gibbs,
    qjsd,
    reference_descent,
    remove_trivial_edges,
    small_beta_score,
    untrimmed_divergences,
    untrimmed_entropy_of_probs,
    untrimmed_gibbs,
    untrimmed_gibbs_weights,
)


def ig_of(graph: Graph):
    return interaction_graph(Circuit(graph.n, tuple(graph.edge_list)))


def one_run(ig, a, beta, budget):
    """``(m, trace)`` of the lockstep driver on the one-point grid ``(beta,)``."""
    trace = _sweep(ig, a, (beta,), budget).trace
    return trace.swap_count, trace


def draw_connected(draw, st, n, max_extra=None):
    """A connected graph on ``n`` vertices: a random tree, extra edges, relabelled."""
    pairs = list(itertools.combinations(range(n), 2))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=max_extra))
    return relabel(graph_from_edges(n, tree + sorted(extra)), draw(st.permutations(range(n))))


def state(stack, i):
    """Row ``i`` of a ``_gibbs`` stack: one ``(matrix, entropy)`` state."""
    matrices, entropies = stack
    return matrices[i], entropies[i]


def divergences_of_one(rho, sigma, i, placements):
    """``_divergences`` of run ``i`` alone: states from row ``i`` of the stacks."""
    return _divergences(rho, sigma, [i], [placements])[0]


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
    # a swap, and any other stall ends a stalled run. A run spends at most its
    # stall budget on forced swaps, all of it when the budget ends the run;
    # the public run's budget is m_swap_max.
    rng = np.random.default_rng(137)
    forced = stalled = exhausted = 0
    for _ in range(120):
        k = int(rng.integers(3, 7))
        ig = random_interaction_graph(rng, k)
        cg = random_connected_graph(rng, int(rng.integers(k, 9)), 0.35)
        a = assign_qubits(ig, cg).assignment
        m_max = max_swap_bound(ig, a)
        for beta in (1e-300, 1e-4, 1.0, 9e5):
            runs = [(m_max, swap_uncomplexity(ig, a, beta))]
            runs += [(budget, one_run(ig, a, beta, budget)) for budget in (0, 2)]
            for budget, (_, trace) in runs:
                steps = trace.steps
                run_forced = 0
                for i, step in enumerate(steps):
                    before = steps[i - 1] if i else None
                    if isinstance(step, SwapStep):
                        assert step.forced == (before == FORCING)
                        run_forced += step.forced
                    elif isinstance(step, EraseStep):
                        assert isinstance(before, SwapStep)
                    elif step == FORCING:
                        assert isinstance(steps[i + 1], SwapStep)
                    else:
                        assert i == len(steps) - 1
                ends_in_stall = bool(steps) and isinstance(steps[-1], StallStep)
                assert trace.stalled == ends_in_stall
                assert run_forced <= budget
                if steps[-1:] == (StallStep("stall budget exhausted"),):
                    assert run_forced == budget
                    exhausted += budget == m_max > 0
                forced += run_forced
                stalled += trace.stalled
    assert forced > 0 and stalled > 0 and exhausted > 0


def test_sweep_calls_go_through_the_traced_module_names(monkeypatch):
    # perfbench's tracer counts spectra and eigvalsh batches by patching
    # these names; a descent that bypassed them would zero its counts.
    sweep = _sweep_traces(monkeypatch)
    calls = {"spectra": 0, "eigvalsh": 0, "matrices": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "eigvalsh":
                calls["matrices"] += int(np.prod(args[0].shape[:-2]))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        "swapbound.uncomplexity.laplacian_spectrum", counted("spectra", laplacian_spectrum)
    )
    monkeypatch.setattr("numpy.linalg.eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    # K4@P4 never comes back to a state; C5@P5 walks forced-swap cycles
    fixtures = [(complete_graph(4), path_graph(4), False), (cycle_graph(5), path_graph(5), True)]
    for graph, cg, revisits in fixtures:
        calls.update(spectra=0, eigvalsh=0, matrices=0)
        ig = ig_of(graph)
        a = build_assignment(cg, tuple(range(cg.n)))
        traces = [trace for _, trace in sweep(ig, a)[1]]
        iterations = sum(t.iterations for t in traces)
        assert len(traces) == 99
        assert iterations > 99
        # a run asks for each state it evaluates, in the order it first meets
        # them, the r-th in round r
        asked = [list(dict.fromkeys(_states_evaluated(ig, a, t))) for t in traces]
        # the subgraph's spectrum once per sweep; in each round, a pending
        # graph's once for all the runs that ask with a new pending set: on
        # their first state and on each one after an erasure, never again
        # after a swap that erased nothing
        rebuilt = 0
        for r in range(max(map(len, asked))):
            pending = [run[r][0] for run in asked if r < len(run)]
            before = [run[r - 1][0] if r else None for run in asked if r < len(run)]
            rebuilt += len({p for p, b in zip(pending, before) if p != b})
        assert calls["spectra"] == 1 + rebuilt
        # one spectrum per run and per pending set of each run, as when each
        # run built its own states
        pending_sets = sum(len({pending for pending, _ in run}) for run in asked)
        assert calls["spectra"] < 99 + pending_sets
        # one matrix per candidate placement, the state's own and one per
        # subgraph edge, of each state class an asking route evaluates: its
        # runs whose sigma and rho rows, with their entropies, are the same
        # bytes. A revisited state reuses the move chosen on its first visit.
        classes = _state_classes(ig, a, traces, asked)
        states = sum(len(run) for run in asked)
        assert calls["matrices"] == classes * (1 + len(a.cg_subgraph.edge_list))
        assert classes < states  # a run per state would ask more
        assert (states < iterations) == revisits
        # one batch per lockstep round, and every live run asks once a round,
        # so there are as many rounds as the longest run evaluates states
        assert calls["eigvalsh"] == max(len(run) for run in asked) < states


def _state_classes(ig, a, traces, asked) -> int:
    """Divergence rows the sweep needs: per round, the state classes of each asking route.

    Run ``i`` asks ``asked[i][r]`` in round ``r``, in the route of the runs
    that made its moves so far. Its class there is the bytes of its subgraph
    state and of its pending graph's state at its beta, with their entropies,
    rebuilt here from the replayed pending sets.
    """
    betas = np.array(standard_beta_grid())
    sigma = _gibbs([laplacian_spectrum(a.cg_subgraph)], betas)
    states = [_states_evaluated(ig, a, t) for t in traces]
    moves = [_moves(t) for t in traces]
    classes = set()
    for r in range(max(map(len, asked))):
        runs = [i for i, run in enumerate(asked) if r < len(run)]
        graphs = [Graph(ig.graph.n, asked[i][r][0]) for i in runs]
        rho = _gibbs([laplacian_spectrum(g) for g in graphs], betas[runs])
        for j, i in enumerate(runs):
            route = tuple(moves[i][: states[i].index(asked[i][r])])
            rows = [(m[x].tobytes(), float(e[x])) for (m, e), x in ((sigma, i), (rho, j))]
            classes.add((r, route, *rows))
    return len(classes)


def _sweep_traces(monkeypatch):
    """``beta_sweep`` as a function that returns its result, every run's
    ``(m, trace)`` in grid order and the routes the runs ended in; each trace
    is built by ``_Route.trace``, as the winner's is."""
    ended = {}

    def collected(ig, a, betas, budget):
        ended.update(betas=betas.tolist(), routes=_routes(ig, a, betas, budget))
        return ended["routes"]

    def sweep(ig, a):
        ended.clear()
        outcome = beta_sweep(ig, a)
        owner = {run: r for r in ended["routes"] for c in r.classes for run in c}
        traces = [owner[i].trace(i, beta) for i, beta in enumerate(ended["betas"])]
        return outcome, [(t.swap_count, t) for t in traces], ended["routes"]

    monkeypatch.setattr("swapbound.uncomplexity._routes", collected)
    return sweep


def _moves(trace) -> list:
    """The ``(edge, forced)`` choice of each swap: runs that share them share a route."""
    return [(step.edge, step.forced) for step in trace.steps if isinstance(step, SwapStep)]


def _erases_after_a_split(traces) -> bool:
    """Whether some route erases after its first move that no other route made.

    ``traces`` holds one run's trace per route.
    """
    moves = [_moves(trace) for trace in traces]
    for j, trace in enumerate(traces):
        shared = max(
            next((n for n, (x, y) in enumerate(zip(moves[j], other)) if x != y),
                 min(len(moves[j]), len(other)))
            for k, other in enumerate(moves) if k != j
        )
        swaps = 0
        for step in trace.steps:
            swaps += isinstance(step, SwapStep)
            if isinstance(step, EraseStep) and swaps > shared:
                return True
    return False


def test_lockstep_sweep_is_bit_identical_to_the_plain_loop(monkeypatch):
    # The sweep's runs share each round's gather and batched eigvalsh; every
    # run's (m, trace) and the sweep's result, stalled or not, must still be
    # those of running the grid one beta at a time.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sweep = _sweep_traces(monkeypatch)
    cases_seen = [
        "no request", "stalled", "one point", "all stalled", "k >= 7", "routes split",
        "a split route erases", "runs share a state",
    ]
    seen = dict.fromkeys(cases_seen, 0)

    @st.composite
    def cases(draw):
        k = draw(st.integers(2, 8))
        ig = draw_connected(draw, st, k)
        cg = draw_connected(draw, st, draw(st.integers(k, k + 2)))
        points = st.sampled_from(standard_beta_grid() + (1e-300,)).map(lambda b: (b,))
        return ig, cg, draw(st.one_of(st.none(), points))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((path_graph(3), path_graph(4), None))
    @hypothesis.example((star_graph(4), path_graph(5), (1e-300,)))
    @hypothesis.example((cycle_graph(5), path_graph(5), None))
    def check(case):
        graph, cg, grid = case
        ig = ig_of(graph)
        a = assign_qubits(ig, cg).assignment
        betas = grid or standard_beta_grid()
        with monkeypatch.context() as patch:
            patch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: betas)
            plain = [swap_uncomplexity(ig, a, b) for b in betas]
            rows = []  # divergence rows per round: one per state class of an asking route
            patch.setattr("swapbound.uncomplexity._divergences", _rows_counted(rows))
            outcome, runs, routes = sweep(ig, a)
        assert repr(runs) == repr(plain)
        # a run asks once a round for each state it evaluates
        asked = [len(dict.fromkeys(_states_evaluated(ig, a, t))) for _, t in plain]
        asking = [sum(n > r for n in asked) for r in range(max(asked))]
        assert len(rows) == len(asking) and all(map(operator.le, rows, asking))
        # the sweep the plain loop gives: the first minimum by (stalled, m)
        per_beta = tuple((b, m, trace.stalled) for b, (m, trace) in zip(betas, plain))
        best = min((trace for _, trace in plain), key=lambda t: (t.stalled, t.swap_count))
        expected = SweepResult(best.beta, best.swap_count, per_beta, best)
        assert repr(outcome) == repr(expected)
        seen["no request"] += all(m == 0 and not t.stalled for m, t in plain)
        seen["stalled"] += any(t.stalled for _, t in plain) and not best.stalled
        seen["one point"] += len(betas) == 1
        seen["all stalled"] += best.stalled
        seen["k >= 7"] += ig.graph.n >= 7
        seen["routes split"] += len(routes) > 1
        route_traces = [runs[route.classes[0][0]][1] for route in routes]
        seen["a split route erases"] += len(routes) > 1 and _erases_after_a_split(route_traces)
        seen["runs share a state"] += rows != asking

    check()
    assert all(seen.values()), seen


def _rows_counted(rows: list):
    """``_divergences``, appending the number of rows each call evaluates to ``rows``."""
    def counted(rho, sigma, ids, placements):
        rows.append(len(ids))
        return _divergences(rho, sigma, ids, placements)

    return counted


def test_runs_share_a_divergence_row_only_when_their_states_are_the_same_bytes(monkeypatch):
    # Adjacent small betas give different states, so their runs ask apart even
    # while they make the same moves. On P4, from beta = 2000 every Gibbs weight
    # past the ground state underflows, K4's pending graph is a P4 too, and
    # those runs share one row a round. (From beta = 70 the matrices are
    # already the same bytes, but the entropies differ until 2000.)
    rows = []
    monkeypatch.setattr("swapbound.uncomplexity._divergences", _rows_counted(rows))
    ig = ig_of(complete_graph(4))
    a = build_assignment(path_graph(4), tuple(range(4)))
    betas = np.array([1e-5, 2e-5])
    routes = _routes(ig, a, betas, max_swap_bound(ig, a))
    assert [r.classes for r in routes] == [[[0], [1]]] and rows == [2, 2, 2]
    rows.clear()
    grid = np.array(standard_beta_grid())
    collapsed = grid >= 2000.0
    matrices, entropies = _gibbs([laplacian_spectrum(a.cg_subgraph)], grid)
    states = [(m.tobytes(), e) for m, e in zip(matrices, entropies.tolist())]
    assert len(set(itertools.compress(states, collapsed))) == 1
    assert len(set(itertools.compress(states, ~collapsed))) == (~collapsed).sum()
    _routes(ig, a, grid, max_swap_bound(ig, a))
    assert rows == [99 - collapsed.sum() + 1] * 3


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


# sha256 of ``repr`` of the 99 run traces, in grid order, recorded from the
# descent that re-checked the routing model after every swap; like the CLI
# goldens, the floats hold for one numpy/LAPACK build
SWEEP_TRACE_DIGESTS = {
    "K4@P4": "019d276bd03bea3b4eb0cca5dd8af6cba29cd4619be297f0df750b6a9f5dd256",
    "C5@P5": "e458f39239206a881b8e905d89cffeb810d856425dd4e0fd62bf5c54fc1e26be",
}


def test_a_revisit_lap_does_no_routing_work(monkeypatch):
    # A state still in the memo made a move that erased nothing, and the same
    # move from the same pending set erases nothing again: only the initial
    # pending set and swaps made from a freshly evaluated state ask the
    # routing model, once per route, for all the runs that made the same
    # moves. The traces stay those of the descent that always asked.
    sweep = _sweep_traces(monkeypatch)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return pending_interactions(*args)

    monkeypatch.setattr("swapbound.uncomplexity.pending_interactions", counted)
    fixtures = [
        ("K4@P4", complete_graph(4), path_graph(4), False),
        ("C5@P5", cycle_graph(5), path_graph(5), True),
    ]
    for name, graph, cg, revisits in fixtures:
        calls = 0
        ig = ig_of(graph)
        a = build_assignment(cg, tuple(range(cg.n)))
        traces = [trace for _, trace in sweep(ig, a)[1]]
        fresh = swaps = 0
        routed = set()  # each route's fresh states, named by the moves up to and from them
        for trace in traces:
            states = _states_evaluated(ig, a, trace)[: trace.swap_count]
            swaps += len(states)
            fresh += len(set(states))
            moves = _moves(trace)
            routed |= {tuple(moves[: states.index(s) + 1]) for s in set(states)}
        assert len(traces) == 99
        assert calls == 1 + len(routed) < 99 + fresh
        assert (fresh < swaps) == revisits
        digest = hashlib.sha256(repr(traces).encode()).hexdigest()
        assert digest == SWEEP_TRACE_DIGESTS[name]


def test_trimmed_gibbs_and_divergences_are_bit_identical_to_the_untrimmed_ones():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = dict.fromkeys(
        ["k >= 8", "underflow", "k >= 8, < 8 non-zero", "zero-padded sum differs", "batch"], 0
    )

    @st.composite
    def cases(draw):
        k = draw(st.integers(2, 9))
        sub = draw_connected(draw, st, k)
        pairs = list(itertools.combinations(range(k), 2))
        edges = st.sets(st.sampled_from(pairs), min_size=1)
        pendings = [graph_from_edges(k, e) for e in draw(st.lists(edges, min_size=1, max_size=3))]
        grid = st.sampled_from((0.0,) + standard_beta_grid())
        row = st.tuples(st.integers(0, len(pendings) - 1), grid)  # (pending graph, beta)
        rows = draw(st.lists(row, min_size=1, max_size=5))
        pos = tuple(draw(st.permutations(range(k))))
        return sub, pendings, rows, pos

    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return np.array_equal(x, y) and repr(x.tolist()) == repr(y.tolist())

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    @hypothesis.example(
        (path_graph(9), [complete_graph(9)], [(0, 1e5), (0, 0.0), (0, 1e-5)], tuple(range(9)))
    )
    # star(8) at beta 500 keeps 7 non-zero weights, and its entropy summed
    # over the zero-padded row differs in the last bit
    @hypothesis.example(
        (star_graph(8), [complete_graph(8), star_graph(8)], [(1, 500.0), (0, 0.0), (1, 1e-5)],
         tuple(range(8)))
    )
    def check(case):
        # one batch of states, as the sweep builds it in a round (row i: the
        # pending graph which[i] at betas[i]), and the subgraph's on a
        # broadcast spectrum; every row, its weights and its divergences
        # against the untrimmed code at that row's graph and beta
        sub, pendings, rows, pos = case
        which, betas = zip(*rows)
        graphs = [pendings[j] for j in which]
        betas = np.array(betas)
        rho = _gibbs([laplacian_spectrum(g) for g in graphs], betas)
        sigma = _gibbs([laplacian_spectrum(sub)], betas)
        placements = [pos] + exchanges(pos, sub)
        ids = list(range(len(betas)))[::-1]
        batch = _divergences(rho, sigma, ids, [placements] * len(ids))
        w, _ = laplacian_spectrum(sub)
        weights = gibbs_weights(w, betas)
        ws = np.array([laplacian_spectrum(g)[0] for g in graphs])
        pending_weights = gibbs_weights(ws, betas)
        for i, beta in enumerate(betas.tolist()):
            for stack, graph in ((rho, graphs[i]), (sigma, sub)):
                matrix, entropy = state(stack, i)
                old_matrix, old_entropy = untrimmed_gibbs(graph, beta)
                assert same(matrix, old_matrix) and repr(float(entropy)) == repr(old_entropy)
            expected = untrimmed_divergences(state(rho, i), state(sigma, i), placements)
            assert same(divergences_of_one(rho, sigma, i, placements), expected)
            assert same(batch[ids.index(i)], expected)
            assert same(weights[i], untrimmed_gibbs_weights(w, beta))
            assert same(gibbs_weights(w, beta), weights[i])
            assert same(pending_weights[i], untrimmed_gibbs_weights(ws[i], beta))
        all_weights = np.concatenate([weights, pending_weights])
        entropies = np.concatenate([sigma[1], rho[1]])
        logs = np.log(np.where(all_weights > 0.0, all_weights, 1.0))
        padded = 0.0 - (all_weights * logs).sum(-1)  # the plain sum over whole rows
        seen["k >= 8"] += sub.n >= 8
        seen["underflow"] += bool((weights == 0.0).any())
        seen["k >= 8, < 8 non-zero"] += sub.n >= 8 and bool(((all_weights > 0.0).sum(-1) < 8).any())
        seen["zero-padded sum differs"] += bool((padded != entropies).any())
        seen["batch"] += len(set(which)) > 1  # several pending graphs in one batch

    check()
    assert all(seen.values()), seen
    for g in (path_graph(9), complete_graph(8), star_graph(5)):
        w, _ = laplacian_spectrum(g)
        expected = [
            (b, untrimmed_entropy_of_probs(untrimmed_gibbs_weights(w, b)))
            for b in standard_beta_grid()
        ]
        assert repr(entropy_curve(g, standard_beta_grid())) == repr(expected)


TIE_TOL = 1e-13  # the two routes differ by under 4e-15 here; EPS_IMP is 1e-12


def test_descent_agrees_with_the_plain_reference_run():
    # The engine's run (memo, lockstep driver, batched states and eigvalsh)
    # against a plain run whose divergences come from full density matrices.
    # A decision whose margin is within TIE_TOL may go either way, so moves
    # are compared up to the first such decision, and m and the stall only
    # for runs without one; those runs are counted as skipped.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = dict.fromkeys(["compared", "near tie", "swapped", "forced", "stalled"], 0)

    @st.composite
    def cases(draw):
        k = draw(st.integers(2, 6))
        ig = draw_connected(draw, st, k)
        cg = draw_connected(draw, st, draw(st.integers(k, k + 2)), max_extra=2)  # sparse: swaps
        return ig, cg, draw(st.sampled_from((0.01, 0.05, 0.3, 1.0, 3.0, 10.0)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((cycle_graph(5), path_graph(5), 1.0))
    # every swap forced, until the stall budget runs out: forced swaps
    # rarely come without an exact tie
    @hypothesis.example(
        (
            graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]),
            graph_from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 6), (1, 5), (1, 6), (2, 3), (2, 5),
                                 (2, 6), (3, 5), (4, 6), (5, 6)]),
            4.0,
        )
    )
    def check(case):
        graph, cg, beta = case
        ig = ig_of(graph)
        a = assign_qubits(ig, cg).assignment
        m, trace = swap_uncomplexity(ig, a, beta)
        budget = max_swap_bound(ig, a)
        ref_m, stall, decisions = reference_descent(
            ig.graph, a.cg_subgraph, a.positions(), beta, budget
        )
        swaps = [step for step in trace.steps if isinstance(step, SwapStep)]
        for i, decision in enumerate(decisions):
            if decision.margin <= TIE_TOL:
                seen["near tie"] += 1
                return
            if i < len(swaps):
                step = swaps[i]
                assert (step.edge, step.forced) == (decision.edge, decision.forced)
                assert step.qjsd_before == pytest.approx(decision.qjsd_before, abs=TIE_TOL)
                assert step.qjsd_after == pytest.approx(decision.qjsd_after, abs=TIE_TOL)
        assert (m, trace.stalled) == (ref_m, stall is not None)
        if stall is not None:
            assert trace.steps[-1] == StallStep(stall)
        seen["compared"] += 1
        seen["swapped"] += m > 0
        seen["forced"] += any(step.forced for step in swaps)
        seen["stalled"] += trace.stalled

    check()
    assert all(seen.values()), seen
    assert seen["near tie"] < seen["compared"], seen


def test_small_beta_moves_maximise_the_integer_score():
    # To second order in beta the divergence of a placement p is a constant
    # minus beta^2/(4k) * F(p) (``small_beta_score``): at beta <= 1e-3 every
    # move the descent evaluates is one of F's maximisers. At 1e-5 one unit of
    # F is worth at least 1e-10/28 > EPS_IMP for k <= 7, and the third-order
    # terms lie below EPS_IMP, so a move is forced exactly when no
    # exchange raises F. At 1e-3 F ties can be decided by those terms, and
    # the forced rule does not hold.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = dict.fromkeys(["states", "forced", "improving", "exhausted", "k = 7"], 0)

    @st.composite
    def cases(draw):
        k = draw(st.integers(2, 7))
        ig = draw_connected(draw, st, k)
        cg = draw_connected(draw, st, draw(st.integers(k, k + 2)), max_extra=2)  # sparse: swaps
        return ig, cg

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((complete_graph(7), cycle_graph(7)))
    # one forced swap at 1e-5, then improving ones
    @hypothesis.example(
        (
            graph_from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)]),
            graph_from_edges(5, [(0, 1), (0, 2), (1, 3), (3, 4)]),
        )
    )
    # at 1e-5 the run spends its stall budget
    @hypothesis.example(
        (
            graph_from_edges(6, [(0, 1), (0, 2), (0, 4), (2, 3), (2, 4), (4, 5)]),
            graph_from_edges(8, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 5), (4, 7), (5, 6)]),
        )
    )
    def check(case):
        graph, cg = case
        ig = ig_of(graph)
        a = assign_qubits(ig, cg).assignment
        sub = a.cg_subgraph
        for beta in (1e-5, 1e-4, 1e-3):
            _, trace = swap_uncomplexity(ig, a, beta)
            moves = [step for step in trace.steps if isinstance(step, SwapStep)]
            if trace.steps and trace.steps[-1] == StallStep("stall budget exhausted"):
                moves.append(None)  # evaluated and forced, but not made
            for (pending, pos), step in zip(_states_evaluated(ig, a, trace), moves):
                scores = [small_beta_score(pending, sub, p) for p in exchanges(pos, sub)]
                if step is not None:
                    assert scores[sub.edge_list.index(step.edge)] == max(scores)
                if beta == 1e-5:
                    forced = step is None or step.forced
                    assert forced == (max(scores) <= small_beta_score(pending, sub, pos))
                    seen["forced"] += forced
                    seen["improving"] += not forced
                seen["states"] += 1
                seen["exhausted"] += step is None
                seen["k = 7"] += ig.graph.n == 7

    check()
    assert all(seen.values()), seen


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
            for _, trace in (swap_uncomplexity(ig, a, beta), one_run(ig, a, beta, 3)):
                states = _states_evaluated(ig, a, trace)
                assert len(states) == trace.iterations - (trace.steps[-1:] == (CAP,))
                if len(set(states)) < len(states):
                    revisiting += 1
                    assert trace.stalled
    assert revisiting > 10


def _ix_divergences(rho, sigma, placements):
    """The divergences of one run with one ``np.ix_`` gather per placement."""
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
        betas = np.array([1e-5, 1.0, 9e5])
        rho = _gibbs([laplacian_spectrum(pending)], betas)
        sigma = _gibbs([laplacian_spectrum(sub)], betas)
        ids = [2, 0, 1]  # each run gathers from its own row, with its own placements
        positions = [tuple(int(i) for i in rng.permutation(k)) for _ in ids]
        for asks in ([[p] for p in positions], [[p] + exchanges(p, sub) for p in positions]):
            rows = _divergences(rho, sigma, ids, asks)
            for i, placements, row in zip(ids, asks, rows):
                expected = _ix_divergences(state(rho, i), state(sigma, i), placements)
                assert np.array_equal(row, expected)
                assert np.array_equal(divergences_of_one(rho, sigma, i, placements), expected)


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
    # At ultra-high temperature no exchange improves by the strict margin, so
    # every swap is forced: a zero budget stalls before the first one, and the
    # public run stalls after spending its budget, m_swap_max forced swaps.
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    exhausted = StallStep("stall budget exhausted")
    assert one_run(ig, a, 1e-300, 0) == (0, AlgoTrace((exhausted,), 1e-300, 0, True))
    m, trace = swap_uncomplexity(ig, a, 1e-300)
    assert m == max_swap_bound(ig, a) == 6
    assert trace.stalled and trace.steps[-1] == exhausted
    assert sum(isinstance(s, SwapStep) and s.forced for s in trace.steps) == m


def test_iteration_cap_ends_a_run_that_keeps_improving(monkeypatch):
    # every move reports an improvement, so neither the stall budget nor the
    # memo's cycle ends the run: the first edge is swapped back and forth and
    # the pending interaction (0, 3) never becomes adjacent; the cap is the
    # stall budget, m_swap_max = 4 gates * (diameter 3 - 1), plus one sweep
    # of the subgraph's edges per pending interaction
    ig = ig_of(cycle_graph(4))
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    sub = a.cg_subgraph
    pending = pending_interactions(ig.graph.edges, a.positions(), sub.edges)
    monkeypatch.setattr(
        "swapbound.uncomplexity._divergences",
        lambda rho, sigma, ids, runs: np.array([[1.0] + [0.0] * (len(p) - 1) for p in runs]),
    )
    m, trace = swap_uncomplexity(ig, a, 1.0)
    assert pending == {(0, 3)}
    assert m == max_swap_bound(ig, a) + len(pending) * len(sub.edge_list) == 8 + 1 * 3
    assert trace.steps[:-1] == tuple(SwapStep((0, 1), 1.0, 0.0) for _ in range(m))
    assert trace.steps[-1] == StallStep("iteration cap reached")
    assert trace.stalled


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


def test_beta_sweep_all_stalled_returns_the_stalled_run(monkeypatch):
    ig = ig_of(star_graph(4))
    a = build_assignment(path_graph(4), (0, 1, 2, 3))
    # a grid of one ultra-high-temperature point: no strict improvement is
    # representable, so the run spends its stall budget and must stall
    monkeypatch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: (1e-300,))
    sweep = beta_sweep(ig, a)
    assert sweep.trace.stalled
    assert sweep.trace == swap_uncomplexity(ig, a, 1e-300)[1]


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


def test_compute_bound_single_beta():
    ig = ig_of(star_graph(4))
    report = compute_bound(ig, path_graph(4), beta=1e-3)
    assert report.beta_star == 1e-3
    assert report.per_beta is None


def test_fixed_beta_bound_matches_the_sweep_row_on_the_bundled_pairs():
    # a fixed-beta run is the sweep's run at that grid point, stalled or not
    fixtures = Path(swapbound.__file__).parent / "fixtures"
    stalled = 0
    for circuit_path, device_path in load_manifest(fixtures / "manifest.json"):
        ig = interaction_graph(read_circuit_file(circuit_path))
        cg = parse_device(device_path.read_bytes()).coupling
        swept = compute_bound(ig, cg)
        for b, m, row_stalled in swept.per_beta:
            report = compute_bound(ig, cg, beta=b)
            assert (report.u_swap, report.stalled) == (m, row_stalled)
            assert report.beta_star == b and report.per_beta is None
            stalled += row_stalled
    assert stalled > 0


def test_an_all_stalled_sweep_reports_its_least_bad_run(monkeypatch):
    # on a grid of one ultra-high-temperature point no swap improves, so most
    # pairs stall: the swept report is still returned, and it is the fixed-beta
    # report of that point plus its per_beta row
    monkeypatch.setattr("swapbound.uncomplexity.standard_beta_grid", lambda: (1e-300,))
    fixtures = Path(swapbound.__file__).parent / "fixtures"
    stalled = 0
    for circuit_path, device_path in load_manifest(fixtures / "manifest.json"):
        ig = interaction_graph(read_circuit_file(circuit_path))
        cg = parse_device(device_path.read_bytes()).coupling
        swept = compute_bound(ig, cg)
        assert swept.per_beta == ((1e-300, swept.u_swap, swept.stalled),)
        assert replace(swept, per_beta=None) == compute_bound(ig, cg, beta=1e-300)
        stalled += swept.stalled
    assert stalled > 0


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
