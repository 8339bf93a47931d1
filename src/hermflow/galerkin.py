"""Projected Hamiltonian assembly by Gauss-Hermite quadrature.

Matrix elements of H = -1/2 d^2/dx^2 + V in the plain Hermite basis and in
the flow-warped basis.  Warping never appears explicitly: a change of
variables turns warped-basis integrals into plain-Hermite integrals of
pulled-back integrands, evaluated at the unwarped quadrature nodes,

    V_ij = sum_q w~_q phi_i(x_q) V(G(x_q)) phi_j(x_q),
    T_ij = 1/2 sum_q w~_q A_i(x_q) A_j(x_q) / G'(x_q)^2,
    A_n  = phi_n' - 1/2 phi_n G''/G',

where the kinetic form follows from integrating T by parts and substituting
x = G(y); only G' and G'' are needed and the integrand stays symmetric in
(i, j).  Passing ``params=None`` selects the identity map (G = id, G' = 1,
G'' = 0), which is exactly the plain Hermite scheme.

Each sum over q is one BLAS matrix product: V = (phi * w~V(G)) phi^T and
T = 1/2 B B^T with B_iq = A_i(x_q) sqrt(w~_q) / G'(x_q).  A product of a matrix
with its own transpose is exactly symmetric, so the raw asymmetry of T + V is
the rounding of the potential product alone (at most 1.1e-12 over N <= 180,
Q in {40, 90, 200}).  The assembly's asymmetry check therefore detects non-finite
matrix elements and faults in the assembly, not an underresolved quadrature;
the overlap deviation and the Q >= 2N + 10 warning speak to resolution.  The
first N + 1 rows phi_0 .. phi_N of the rule's Hermite table give the values
phi_0 .. phi_{N-1} and, by the ladder identity, their derivatives, so assembly
builds no table of its own.  `assemble_hamiltonian` is the one assembly path:
it computes the jets once for both terms, and T and V are not formed apart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import FlowParams, _map_jets
from .hermite import BasisSpec, eval_hermite_functions, hermite_derivatives_from_table
from .hermite import eval_hermite_derivatives  # noqa: F401 - benchmarks/tracing.py binds it here
from .quadrature import QuadratureRule

__all__ = [
    "Potential",
    "HamiltonianMatrix",
    "AssemblyError",
    "MonotonicityError",
    "harmonic_potential",
    "anharmonic_potential",
    "potential_from_descriptor",
    "assemble_hamiltonian",
    "overlap_matrix",
]

_ASYMMETRY_TOL = 1e-9


class AssemblyError(RuntimeError):
    """Assembly met a non-finite value or failed its symmetry check."""


class MonotonicityError(RuntimeError):
    """The warp map lost strict monotonicity at a quadrature node."""


@dataclass(frozen=True)
class Potential:
    """Scalar potential with a human-readable descriptor and its derivative V'.

    Training needs the exact derivative; assembly needs only the values.  The
    callable must be written in elementary arithmetic (+, *, integer powers)
    so it can also be evaluated on complex values, which the complex-step
    check of the trace-loss gradient needs.
    """

    func: Callable
    descriptor: str
    derivative: Callable | None = None

    def __call__(self, x):
        return self.func(x)


def harmonic_potential() -> Potential:
    return Potential(lambda x: 0.5 * x * x, "harmonic: 0.5*x^2", lambda x: x)


def anharmonic_potential() -> Potential:
    return Potential(
        lambda x: 0.5 * x * x + 0.25 * (x * x) * (x * x),
        "anharmonic: 0.5*x^2 + 0.25*x^4",
        lambda x: x + x * x * x,
    )


def potential_from_descriptor(name: str) -> Potential:
    """Resolve a config-file potential name."""
    table = {"harmonic": harmonic_potential, "anharmonic": anharmonic_potential}
    key = name.strip().lower()
    if key not in table:
        raise ValueError(f"unknown potential {name!r}; expected one of {sorted(table)}")
    return table[key]()


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Symmetric projected Hamiltonian with its discretization scheme tag."""

    size: int
    entries: np.ndarray
    scheme: str  # "hermite" | "augmented"


def _potential_part(rule: QuadratureRule, phi, V: Potential, y) -> np.ndarray:
    vvals = np.asarray(V(y), dtype=float)
    if not np.all(np.isfinite(vvals)):
        q = int(np.flatnonzero(~np.isfinite(vvals))[0])
        raise AssemblyError(f"potential is non-finite at mapped node {q} (x={rule.nodes[q]})")
    return (phi * (rule.lifted_weights * vvals)) @ phi.T


def _kinetic_part(rule: QuadratureRule, phi, dphi, g1, g2) -> np.ndarray:
    if np.any(g1 <= 0.0):
        q = int(np.flatnonzero(g1 <= 0.0)[0])
        raise MonotonicityError(f"warp derivative G' = {g1[q]} <= 0 at node {q} (x={rule.nodes[q]})")
    A = dphi - 0.5 * phi * (g2 / g1)
    B = A * (np.sqrt(rule.lifted_weights) / g1)
    return 0.5 * (B @ B.T)  # a product with its own transpose: exactly symmetric


def assemble_hamiltonian(
    spec: BasisSpec,
    rule: QuadratureRule,
    V: Potential,
    params: FlowParams | None = None,
) -> HamiltonianMatrix:
    """T + V, symmetrized; raises AssemblyError if the raw asymmetry exceeds 1e-9.

    The kinetic part is exactly symmetric and the potential part's asymmetry
    is rounding, so the check fails only on non-finite matrix elements (a NaN
    anywhere fails it) or on a fault in the assembly; an underresolved
    quadrature passes it.  The jets are computed once and shared by both terms,
    as are the rows phi_0 .. phi_N of the rule's Hermite table.
    """
    if rule.order < 2 * spec.size + 10:
        warnings.warn(
            f"quadrature order {rule.order} < 2N + 10 = {2 * spec.size + 10}; eigenvalues may "
            "drop below the variational limit",
            stacklevel=2,
        )
    if rule.order < spec.size:
        raise ValueError(f"quadrature order {rule.order} is below basis size {spec.size}")
    if params is None:
        y, g1, g2 = rule.nodes, np.ones_like(rule.nodes), np.zeros_like(rule.nodes)
    else:
        y, g1, g2 = _map_jets(params, rule.nodes)
    table = rule.hermite_table[: spec.size + 1]  # phi_0 .. phi_N
    phi, dphi = table[:-1], hermite_derivatives_from_table(table)
    H = _kinetic_part(rule, phi, dphi, g1, g2) + _potential_part(rule, phi, V, y)
    asym = np.abs(H - H.T).max(initial=0.0)
    if not asym <= _ASYMMETRY_TOL:  # also true when H holds a NaN
        raise AssemblyError(
            f"assembled matrix asymmetry {asym:.3e} exceeds {_ASYMMETRY_TOL:.1e}: "
            "non-finite matrix elements or a fault in the assembly"
        )
    H = 0.5 * (H + H.T)
    return HamiltonianMatrix(
        size=spec.size, entries=H, scheme="hermite" if params is None else "augmented"
    )


def overlap_matrix(spec: BasisSpec, rule: QuadratureRule) -> tuple[np.ndarray, float]:
    """Quadrature Gram matrix of the basis and its max deviation from identity.

    The warped overlap integral pulls back to the plain Hermite one for any
    warp parameters, so this diagnostic takes none and serves both schemes;
    deviations measure quadrature underresolution only.
    """
    B = eval_hermite_functions(spec.size - 1, rule.nodes) * np.sqrt(rule.lifted_weights)
    S = B @ B.T
    dev = float(np.abs(S - np.eye(spec.size)).max())
    return S, dev
