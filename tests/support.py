"""Helpers shared by the test modules: random instances and polynomial
comparisons the package itself has no use for."""

import numpy as np

from annealdp.bqm import IsingModel, QuboModel
from annealdp.pbf import Poly


def random_ising(n: int, rng: np.random.Generator, density: float = 0.5) -> IsingModel:
    """Random dense-ish test instance with coefficients in [-1, 1]."""
    biases = {i: float(rng.uniform(-1, 1)) for i in range(n)}
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                couplings[(i, j)] = float(rng.uniform(-1, 1))
    return IsingModel(n, biases, couplings)


def from_qubo(model: QuboModel, offset: float = 0.0) -> Poly:
    """The polynomial offset + sum_ij Q_ij x_i x_j of a QUBO."""
    terms: dict[frozenset[int], float] = {frozenset(): offset}
    for (i, j), w in model.q.items():
        terms[frozenset((i, j))] = terms.get(frozenset((i, j)), 0.0) + w
    return Poly(terms)


def poly_approx_eq(p: Poly, q: Poly, tol: float) -> bool:
    """Every coefficient of p within tol of q's."""
    keys = set(p.terms) | set(q.terms)
    return all(abs(p.terms.get(k, 0.0) - q.terms.get(k, 0.0)) <= tol for k in keys)
