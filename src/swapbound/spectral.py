"""Graph Gibbs states and the divergence-measure family.

A graph enters the density-matrix formalism through its combinatorial
Laplacian L = D - A: the state at inverse temperature beta is
rho = exp(-beta L) / Tr[exp(-beta L)]. Laplacians are real symmetric, so
one real symmetric eigendecomposition is the only numerical kernel here;
matrix exponentials and logarithms are always computed through it.

All entropies and divergences use natural logarithms (nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import Graph

TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
SUPPORT_TOL = 1e-10


def check_beta(beta: float) -> float:
    """Inverse temperature: finite and >= 0 (0 is the maximally mixed limit)."""
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise ValidationError(f"beta must be finite and >= 0, got {beta}")
    return beta


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Force exact storage symmetry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A (symmetric PSD, zero row sums)."""
    L = np.zeros((g.n, g.n))
    for u, v in g.edges:
        L[u, u] += 1.0
        L[v, v] += 1.0
        L[u, v] -= 1.0
        L[v, u] -= 1.0
    return L


@lru_cache(maxsize=16384)
def laplacian_spectrum(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of L."""
    w, v = np.linalg.eigh(laplacian(g))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _clamped_probs(eigenvalues: np.ndarray) -> np.ndarray:
    return np.maximum(eigenvalues, 0.0)


def entropy_of_probs(p: Iterable[float]) -> float:
    p = _clamped_probs(np.asarray(p, dtype=float))
    nz = p[p > 0.0]
    return float(max(-np.sum(nz * np.log(nz)), 0.0))


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric, PSD, unit-trace matrix with its spectrum cached.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal columns. Raw eigenvalues may dip to -1e-10 from floating
    point drift; entropy computations clamp them at zero.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, entries: np.ndarray) -> "DensityMatrix":
        a = symmetrize(entries)
        if not np.all(np.isfinite(a)):
            raise NumericalError("density matrix has non-finite entries")
        trace = float(np.trace(a))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        w, v = np.linalg.eigh(a)
        if w.min() < EIG_FLOOR:
            raise ValidationError(f"eigenvalue {w.min()} below PSD floor {EIG_FLOOR}")
        return cls(a, w, v)

    @classmethod
    def from_spectrum(cls, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "DensityMatrix":
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=float)
        entries = symmetrize((v * w) @ v.T)
        return cls(entries, w, v)


def gibbs_state(L: np.ndarray, beta: float) -> DensityMatrix:
    """rho = exp(-beta L) / Tr[exp(-beta L)] via the eigenbasis of L.

    The state shares eigenvectors with L; its eigenvalue on the i-th
    eigenvector is exp(-beta lam_i) / sum_k exp(-beta lam_k). Weights are
    shifted by the smallest Laplacian eigenvalue before exponentiating so
    that large beta underflows to the ground-space projector instead of
    overflowing.
    """
    beta = check_beta(beta)
    L = symmetrize(L)
    if not np.all(np.isfinite(L)):
        raise NumericalError("Laplacian has non-finite entries")
    w, v = np.linalg.eigh(L)
    return _gibbs_from_spectrum(w, v, beta)


def gibbs_weights(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    shifted = np.exp(-beta * (eigenvalues - eigenvalues.min()))
    total = shifted.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("partition function is non-finite or zero")
    return shifted / total


def _gibbs_from_spectrum(w: np.ndarray, v: np.ndarray, beta: float) -> DensityMatrix:
    p = gibbs_weights(w, beta)
    order = np.argsort(p)
    return DensityMatrix.from_spectrum(p[order], v[:, order])


def graph_gibbs(g: Graph, beta: float) -> DensityMatrix:
    """Gibbs state of a graph, reusing its cached Laplacian spectrum."""
    w, v = laplacian_spectrum(g)
    return _gibbs_from_spectrum(np.array(w), np.array(v), check_beta(beta))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -sum p_i ln p_i over clamped eigenvalues, with 0 ln 0 := 0."""
    return entropy_of_probs(rho.eigenvalues)


def _check_same_dim(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho ln rho] - Tr[rho ln sigma]; +inf outside sigma's support.

    The support condition is checked to tolerance 1e-10: probability mass
    of rho on sigma's null space beyond that returns ``math.inf`` (a legal
    value, not an error).
    """
    _check_same_dim(rho, sigma)
    p = _clamped_probs(rho.eigenvalues)
    q = _clamped_probs(sigma.eigenvalues)
    overlap = (rho.eigenvectors.T @ sigma.eigenvectors) ** 2
    null = q <= SUPPORT_TOL
    if null.any():
        escaped = float(p @ overlap[:, null].sum(axis=1))
        if escaped > SUPPORT_TOL:
            return math.inf
    plogp = float(np.sum(p[p > 0.0] * np.log(p[p > 0.0])))
    live = q > SUPPORT_TOL
    plogq = float((p @ overlap[:, live]) @ np.log(q[live]))
    return max(plogp - plogq, 0.0)


def _mixture_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    mix = (rho.entries + sigma.entries) / 2.0
    return entropy_of_probs(np.linalg.eigvalsh(mix))


def qjsd(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S((rho+sigma)/2) - (S(rho) + S(sigma)) / 2, in [0, ln 2]."""
    _check_same_dim(rho, sigma)
    value = _mixture_entropy(rho, sigma) - (
        von_neumann_entropy(rho) + von_neumann_entropy(sigma)
    ) / 2.0
    return max(value, 0.0)


def qjsd_via_qre(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Equivalent relative-entropy form: the mean divergence to the mixture.

    Agrees with :func:`qjsd` to 1e-9 on all inputs; kept as an independent
    route for cross-checking.
    """
    _check_same_dim(rho, sigma)
    mix = DensityMatrix.from_matrix((rho.entries + sigma.entries) / 2.0)
    return (
        quantum_relative_entropy(rho, mix) + quantum_relative_entropy(sigma, mix)
    ) / 2.0


def entropy_curve(g: Graph, betas: Sequence[float]) -> list[tuple[float, float]]:
    """Entropy of the graph's Gibbs state at each beta (ascending grid)."""
    betas = [check_beta(b) for b in betas]
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValidationError("beta grid must be strictly ascending")
    w, _ = laplacian_spectrum(g)
    w = np.array(w)
    return [(b, entropy_of_probs(gibbs_weights(w, b))) for b in betas]
