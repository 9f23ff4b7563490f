import itertools
import math

import numpy as np
import pytest

from swapbound.errors import ValidationError
from swapbound.graphs import Graph
from swapbound.spectral import entropy_curve, laplacian
from swapbound.uncomplexity import standard_beta_grid

from conftest import (
    complete_graph,
    connected_graphs,
    gibbs_probs,
    graph_from_edges,
    path_graph,
    random_density,
    scalar_entropy,
)
from reference_spectral import (
    DensityMatrix,
    gibbs_state,
    graph_gibbs,
    qjsd,
    qjsd_via_qre,
    quantum_relative_entropy,
    von_neumann_entropy,
)

LN2 = math.log(2.0)


def dm(matrix) -> DensityMatrix:
    return DensityMatrix.from_matrix(np.asarray(matrix, dtype=float))


def test_laplacian_triangle():
    expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert np.array_equal(laplacian(complete_graph(3)), expected)


def test_laplacian_edgeless_and_single_edge():
    assert np.array_equal(laplacian(Graph(3)), np.zeros((3, 3)))
    assert np.array_equal(laplacian(path_graph(2)), [[1, -1], [-1, 1]])


def test_laplacian_row_sums_and_degrees():
    g = graph_from_edges(5, [(0, 1), (1, 2), (1, 4), (3, 4)])
    L = laplacian(g)
    assert np.allclose(L.sum(axis=1), 0.0)
    assert np.array_equal(np.diag(L), g.degrees)


def test_gibbs_beta_zero_is_maximally_mixed():
    rho = gibbs_state(laplacian(complete_graph(4)), 0.0)
    assert np.allclose(rho.entries, np.eye(4) / 4)


def test_gibbs_p2_closed_form():
    # P2 Laplacian spectrum is {0, 2}: weights 1 and e^{-2 beta}
    expected = gibbs_probs([0.0, 2.0], 0.5)
    rho = gibbs_state(laplacian(path_graph(2)), 0.5)
    assert np.allclose(sorted(rho.eigenvalues), sorted(expected), atol=1e-14)
    assert expected[0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_gibbs_large_beta_projects_onto_ground_space():
    rho = gibbs_state(laplacian(complete_graph(3)), 1e4)
    ones = np.ones((3, 1)) / math.sqrt(3)
    assert np.allclose(rho.entries, ones @ ones.T, atol=1e-12)
    assert von_neumann_entropy(rho) <= 1e-12


def test_gibbs_trace_and_psd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = graph_from_edges(n, edges)
        for beta in (0.0, 1e-4, 0.7, 50.0, 9e5):
            rho = gibbs_state(laplacian(g), beta)
            assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
            assert rho.eigenvalues.min() >= -1e-10


def test_vne_maximally_mixed_and_pure():
    assert von_neumann_entropy(dm(np.eye(5) / 5)) == pytest.approx(math.log(5), abs=1e-12)
    assert von_neumann_entropy(dm(np.diag([1.0, 0, 0]))) == 0.0


def test_vne_gibbs_p2_value():
    expected = scalar_entropy(gibbs_probs([0.0, 2.0], 0.5))
    rho = gibbs_state(laplacian(path_graph(2)), 0.5)
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5822, abs=5e-5)


def test_vne_range():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        s = von_neumann_entropy(dm(random_density(rng, d)))
        assert -1e-12 <= s <= math.log(d) + 1e-12


def test_vne_permutation_invariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        rho = dm(random_density(rng, d))
        perm = rng.permutation(d)
        p = np.eye(d)[perm]
        assert von_neumann_entropy(dm(p @ rho.entries @ p.T)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )


def test_vne_orthogonal_invariance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        rho = dm(random_density(rng, d))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        assert von_neumann_entropy(dm(q @ rho.entries @ q.T)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


def test_vne_additivity_on_products():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = dm(random_density(rng, int(rng.integers(2, 5))))
        b = dm(random_density(rng, int(rng.integers(2, 5))))
        prod = dm(np.kron(a.entries, b.entries))
        assert von_neumann_entropy(prod) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10
        )


def test_qre_self_is_zero():
    rng = np.random.default_rng(23)
    rho = dm(random_density(rng, 4))
    assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_qre_support_violation_is_infinite():
    assert quantum_relative_entropy(dm(np.eye(2) / 2), dm(np.diag([1.0, 0.0]))) == math.inf


def test_qre_commuting_value():
    p = gibbs_probs([0.0, 2.0], 0.5)
    expected = sum(x * math.log(x / 0.5) for x in p)
    got = quantum_relative_entropy(dm(np.diag(p)), dm(np.eye(2) / 2))
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.1109, abs=5e-5)


def test_qre_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        a = dm(random_density(rng, d))
        b = dm(random_density(rng, d))
        assert quantum_relative_entropy(a, b) >= 0.0


def test_qjsd_identical_states():
    rng = np.random.default_rng(31)
    rho = dm(random_density(rng, 5))
    assert qjsd(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert qjsd_via_qre(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_qjsd_orthogonal_pure_states_hit_ln2():
    a = dm(np.diag([1.0, 0.0]))
    b = dm(np.diag([0.0, 1.0]))
    assert qjsd(a, b) == pytest.approx(LN2, abs=1e-12)
    assert qjsd_via_qre(a, b) == pytest.approx(LN2, abs=1e-10)


def test_qjsd_commuting_oracle():
    # gibbs(K3, 0.1) commutes with I/3: scalar evaluation in the shared basis
    p = gibbs_probs([0.0, 3.0, 3.0], 0.1)
    u = [1.0 / 3.0] * 3
    mix = [(x + y) / 2 for x, y in zip(p, u)]
    expected = scalar_entropy(mix) - (scalar_entropy(p) + scalar_entropy(u)) / 2
    got = qjsd(graph_gibbs(complete_graph(3), 0.1), dm(np.eye(3) / 3))
    assert got == pytest.approx(expected, abs=1e-12)


def test_qjsd_symmetric_and_bounded():
    rng = np.random.default_rng(37)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a = dm(random_density(rng, d))
        b = dm(random_density(rng, d))
        v1 = qjsd(a, b)
        v2 = qjsd(b, a)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert 0.0 <= v1 <= LN2 + 1e-12


def test_qjsd_dim_mismatch():
    with pytest.raises(ValidationError):
        qjsd(dm(np.eye(2) / 2), dm(np.eye(3) / 3))


def test_qjsd_dual_form_identity():
    rng = np.random.default_rng(41)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        a = dm(random_density(rng, d))
        b = dm(random_density(rng, d))
        assert abs(qjsd(a, b) - qjsd_via_qre(a, b)) <= 1e-9


def test_sqrt_qjsd_triangle_inequality():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        a = dm(random_density(rng, d))
        b = dm(random_density(rng, d))
        c = dm(random_density(rng, d))
        dab = math.sqrt(qjsd(a, b))
        dac = math.sqrt(qjsd(a, c))
        dbc = math.sqrt(qjsd(b, c))
        assert dab + dac >= dbc - 1e-9
        assert dab + dbc >= dac - 1e-9
        assert dac + dbc >= dab - 1e-9


def test_entropy_curve_endpoints():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    curve = dict(entropy_curve(g, [0.0, 1e5]))
    assert curve[0.0] == pytest.approx(math.log(4), abs=1e-12)
    assert curve[1e5] <= 1e-3


def test_entropy_curve_monotone_with_knee_for_4_node_graphs():
    betas = [b for b in standard_beta_grid() if 1e-2 <= b <= 1e2]
    for g in connected_graphs(4):
        curve = entropy_curve(g, betas)
        values = [s for _, s in curve]
        # monotone non-increasing in beta
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(values, values[1:]))
        # steepest drop per log-beta decade sits near beta ~ 1
        drops = [
            (values[i] - values[i + 1]) / (math.log(betas[i + 1]) - math.log(betas[i]))
            for i in range(len(values) - 1)
        ]
        knee = betas[max(range(len(drops)), key=lambda i: drops[i])]
        assert 1e-1 <= knee <= 1e1


def test_entropy_curve_requires_sorted_betas():
    with pytest.raises(ValidationError):
        entropy_curve(path_graph(3), [1.0, 0.5])


def _cospectral_pair():
    """Brute-force search: smallest Laplacian-cospectral non-isomorphic pair.

    Buckets all 6-vertex graphs by rounded spectrum and returns the first
    bucket holding two distinct degree multisets (different degree
    sequences certify non-isomorphism without a matcher).
    """
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    count = 1 << len(pairs)
    stacked = np.zeros((count, n, n))
    for i, (u, v) in enumerate(pairs):
        mask = (np.arange(count) >> i) & 1
        stacked[:, u, u] += mask
        stacked[:, v, v] += mask
        stacked[:, u, v] -= mask
        stacked[:, v, u] -= mask
    spectra = np.linalg.eigvalsh(stacked)

    def degseq(m):
        d = [0] * n
        for i, (u, v) in enumerate(pairs):
            if m >> i & 1:
                d[u] += 1
                d[v] += 1
        return tuple(sorted(d))

    buckets: dict[tuple, list[int]] = {}
    for mask in range(count):
        buckets.setdefault(tuple(np.round(spectra[mask], 8)), []).append(mask)
    for key in sorted(buckets):
        masks = buckets[key]
        if len(masks) < 2:
            continue
        seen: dict[tuple, int] = {}
        for m in masks:
            ds = degseq(m)
            if ds not in seen and seen:
                other = next(iter(seen.values()))
                e1 = [pairs[i] for i in range(len(pairs)) if other >> i & 1]
                e2 = [pairs[i] for i in range(len(pairs)) if m >> i & 1]
                return graph_from_edges(n, e1), graph_from_edges(n, e2)
            seen.setdefault(ds, m)
    raise AssertionError("no cospectral pair found on 6 vertices")


def test_cospectral_pair_entropy_equal_but_distinguishable():
    g, h = _cospectral_pair()
    wg = np.linalg.eigvalsh(laplacian(g))
    wh = np.linalg.eigvalsh(laplacian(h))
    assert np.allclose(wg, wh, atol=1e-8)
    assert sorted(g.degrees) != sorted(h.degrees)  # certifies non-isomorphic
    for beta in (0.1, 1.0):
        sg = von_neumann_entropy(graph_gibbs(g, beta))
        sh = von_neumann_entropy(graph_gibbs(h, beta))
        assert sg == pytest.approx(sh, abs=1e-10)
        div = qjsd(graph_gibbs(g, beta), graph_gibbs(h, beta))
        assert div > 1e-10
        print(f"cospectral pair divergence at beta={beta}: {div:.6e}")
