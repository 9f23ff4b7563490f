"""Graph Gibbs states, through the eigendecomposition of the Laplacian.

A graph enters the density-matrix formalism through its combinatorial
Laplacian L = D - A: the state at inverse temperature beta is
rho = exp(-beta L) / Tr[exp(-beta L)]. Laplacians are real symmetric, so
the state is kept as its Laplacian spectrum (cached per graph) and the
Gibbs weights over it; the divergence itself is computed in
``uncomplexity._divergences``.

All entropies use natural logarithms (nats).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import Graph


def check_beta(beta: float) -> float:
    """Inverse temperature: finite and >= 0 (0 is the maximally mixed limit)."""
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise ValidationError(f"beta must be finite and >= 0, got {beta}")
    return beta


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


def entropy_of_probs(p) -> np.ndarray:
    """Shannon entropy in nats of each row (last axis); entries <= 0 add nothing.

    Bit-exact to a sum over the positive entries alone: numpy sums 8 or more entries pairwise,
    where an added zero can change the rounding, so such a row with an entry <= 0 skips those.
    """
    rows = np.atleast_2d(np.asarray(p, dtype=float))
    terms = rows * np.log(np.where(rows > 0.0, rows, 1.0))  # 0 * log(1) is 0.0
    sums = terms.sum(axis=1)
    if rows.shape[1] >= 8:
        for r in np.flatnonzero((rows <= 0.0).any(axis=1)):
            sums[r] = terms[r][rows[r] > 0.0].sum()
    return np.maximum(0.0 - sums, 0.0).reshape(np.shape(p)[:-1])[()]  # 0.0 - s: never -0.0


def gibbs_weights(eigenvalues: np.ndarray, beta) -> np.ndarray:
    """``exp(-beta w) / Z`` over an ascending spectrum ``w``, shifted by ``w[..., 0]``.

    One beta gives one row of weights and an array of betas one row per
    beta; a stack of spectra, one per row, pairs row ``i`` with ``beta[i]``.
    """
    with np.errstate(over="ignore"):  # a huge beta's inf exponent is the weight 0 it means
        shifted = np.exp(-(np.asarray(beta)[..., None] * (eigenvalues - eigenvalues[..., :1])))
    total = shifted.sum(axis=-1, keepdims=True)
    if not ((0.0 < total) & (total < math.inf)).all():
        raise NumericalError("partition function is non-finite or zero")
    return shifted / total


def entropy_curve(g: Graph, betas: Sequence[float]) -> list[tuple[float, float]]:
    """Entropy of the graph's Gibbs state at each beta (ascending grid)."""
    if g.n == 0:
        raise ValidationError("entropy curve of the empty graph is undefined")
    betas = [check_beta(b) for b in betas]
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValidationError("beta grid must be strictly ascending")
    w, _ = laplacian_spectrum(g)
    return list(zip(betas, entropy_of_probs(gibbs_weights(w, betas)).tolist()))
