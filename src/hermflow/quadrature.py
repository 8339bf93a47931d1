"""Gauss-Hermite quadrature rules.

Nodes and weights for integrals against exp(-x^2).  Nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix with zero diagonal and
off-diagonals sqrt(k/2) (Golub-Welsch), found by the dense `eigh`: only the
eigenvalues are read.  Weights use the Christoffel-function identity

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

The table phi_0 .. phi_Q at the nodes is kept with the rule (its first Q rows
give the weights), and so are the derivatives phi_0' .. phi_{Q-1}', from the
table by the ladder identity, and sqrt(w~_q), which assembly multiplies into
its kinetic factor.  Assembly at any basis size N <= Q slices the first N rows of
each table.  A row of the recurrence or of the ladder identity depends only on
its neighbours, not on how many rows follow it, so a slice equals a table
built for N alone, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigensolver import eigh
from .hermite import eval_hermite_functions, hermite_derivatives_from_table

__all__ = ["QuadratureRule", "gauss_hermite_rule"]

MAX_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule: ascending nodes, positive weights, lifted weights and their
    square roots, the Hermite functions phi_0 .. phi_order at the nodes and their
    derivatives phi_0' .. phi_{order-1}', one row each."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    lifted_weights: np.ndarray
    sqrt_lifted_weights: np.ndarray
    hermite_table: np.ndarray
    derivative_table: np.ndarray


def gauss_hermite_rule(Q: int) -> QuadratureRule:
    """Construct the order-Q Gauss-Hermite rule.

    Q must lie in [1, 200].  Each order is built once per process and shared:
    the returned arrays are read-only.
    """
    if not isinstance(Q, (int, np.integer)) or Q < 1 or Q > MAX_ORDER:
        raise ValueError(f"quadrature order must be an integer in [1, {MAX_ORDER}], got {Q!r}")
    return _build_rule(int(Q))


@functools.cache
def _build_rule(Q: int) -> QuadratureRule:
    """The order-Q rule, built once per order; its arrays are read-only, as callers share them."""
    off = np.sqrt(0.5 * np.arange(1, Q))
    nodes = eigh(np.diag(off, 1) + np.diag(off, -1)).eigenvalues  # of the Jacobi matrix
    table = eval_hermite_functions(Q, nodes)
    phi = table[:Q]
    lifted = 1.0 / (phi * phi).sum(axis=0)
    weights = lifted * np.exp(-nodes * nodes)
    sqrt_lifted, derivatives = np.sqrt(lifted), hermite_derivatives_from_table(table)
    for arr in (nodes, weights, lifted, sqrt_lifted, table, derivatives):
        arr.flags.writeable = False
    return QuadratureRule(Q, nodes, weights, lifted, sqrt_lifted, table, derivatives)

