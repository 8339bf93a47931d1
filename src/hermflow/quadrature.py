"""Gauss-Hermite quadrature rules.

Nodes and weights for integrals against exp(-x^2).  Nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix with off-diagonals
sqrt(k/2) (Golub-Welsch).  Weights use the Christoffel-function identity

    w_q = 1 / sum_{k<Q} p_k(x_q)^2 = exp(-x_q^2) / sum_{k<Q} phi_k(x_q)^2,

with p_k the orthonormal Hermite polynomials and phi_k the Hermite
functions: the squared-eigenvector route loses all relative accuracy for
the outermost nodes (components shrink like exp(-x^2/2)), while the
Hermite-function sum is computed by a stable recurrence at every node.

Each rule also carries "lifted" weights w_q * exp(x_q^2) for integrands
that contain their own Gaussian decay (products of Hermite functions), whose
integral over the real line is `rule.lifted_weights @ f(rule.nodes)`; by
the identity above the lift is simply 1 / sum_k phi_k(x_q)^2, which never
overflows even at the outermost node of a high-order rule.

The table phi_0 .. phi_Q at the nodes is kept with the rule: its first Q rows
give the weights, and assembly at any basis size N <= Q slices its first N + 1
rows.  A row of the recurrence does not depend on how many rows follow it, so
the slice equals a table built for N alone, bit for bit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .eigensolver import eigh_tridiagonal
from .hermite import eval_hermite_functions

__all__ = ["QuadratureRule", "gauss_hermite_rule"]

MAX_ORDER = 200
_TESTED_ORDER = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule: ascending nodes, positive weights, lifted weights,
    and the Hermite functions phi_0 .. phi_order at the nodes, one row each."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    lifted_weights: np.ndarray
    hermite_table: np.ndarray


def gauss_hermite_rule(Q: int) -> QuadratureRule:
    """Construct the order-Q Gauss-Hermite rule.

    Q must lie in [1, 200]; orders above 100 carry an accuracy warning since
    node generation at such degrees is only lightly exercised.  Each order is
    built once per process and shared: the returned arrays are read-only.
    """
    if not isinstance(Q, (int, np.integer)) or Q < 1 or Q > MAX_ORDER:
        raise ValueError(f"quadrature order must be an integer in [1, {MAX_ORDER}], got {Q!r}")
    if Q > _TESTED_ORDER:
        warnings.warn(
            f"Gauss-Hermite order {Q} exceeds the well-tested range (<= {_TESTED_ORDER}); "
            "node accuracy may degrade",
            stacklevel=2,
        )
    return _build_rule(int(Q))


@functools.cache
def _build_rule(Q: int) -> QuadratureRule:
    """The order-Q rule, built once per order; its arrays are read-only, as callers share them."""
    nodes = eigh_tridiagonal(np.zeros(Q), np.sqrt(0.5 * np.arange(1, Q))).eigenvalues
    table = eval_hermite_functions(Q, nodes)
    phi = table[:Q]
    lifted = 1.0 / (phi * phi).sum(axis=0)
    weights = lifted * np.exp(-nodes * nodes)
    for arr in (nodes, weights, lifted, table):
        arr.flags.writeable = False
    return QuadratureRule(
        order=Q, nodes=nodes, weights=weights, lifted_weights=lifted, hermite_table=table
    )

