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
G'' = 0), which is exactly the plain Hermite scheme; it builds no jets, and its
kinetic factor is B = phi' sqrt(w~), which has the bits of the warped formula's
B at G' = 1, G'' = 0 up to the signs of zeros, and so the same matrix.

Each sum over q is one BLAS matrix product: V = (phi * w~V(G)) phi^T and
T = 1/2 B B^T with B_iq = A_i(x_q) sqrt(w~_q) / G'(x_q).  A product of a matrix
with its own transpose is exactly symmetric, so the raw asymmetry of T + V is
the rounding of the potential product alone (at most 1.1e-12 over N <= 180,
Q in {40, 90, 200}).  The assembly's asymmetry check therefore detects non-finite
matrix elements and faults in the assembly, not an underresolved quadrature.
Resolution has its own rule: the Q-point rule is exact for a polynomial times
exp(-x^2) up to degree 2Q - 1, and of the plain products phi_i' phi_j' has degree
2N and phi_i V phi_j 2N - 2 + d for V of degree d, so the plain matrix is exact
for N <= Q - max(d, 2)//2 and `check_plain_size` refuses a larger N (harmonic at
N = Q: one level 1.0 below n + 1/2).  A warped integrand is not polynomial; a
warped assembly warns below Q = 2N + 10, a rule of thumb.  The assembly and the
trace loss (`trainer`) read the same inputs, phi_0 .. phi_{N-1} and phi' from the first
N rows of the rule's tables (`_basis_at_nodes`) and V and V' from one `Potential`, and
refuse a warp by the same checks (`flow._check_inside`, `_check_monotone`) and error.
`assemble_hamiltonian` is the one assembly path: it computes the jets once
for both terms, and T and V are not formed apart.

Parity: for an even V (`Potential.is_even`) and the identity warp, H_mn = 0
when m + n is odd, up to rounding (1e-14 max |H| within the bound, N <= 180).  A
`BasisSpec` with `parity` 0 or 1 assembles the block of the even or odd indices
below N, and `cli.solve_case` solves such a case as its two blocks; a warp breaks parity.
The block of parity p at N + 1 is the block at N unless p = N mod 2 (only index N is
new): the same rows of the same tables, so the same matrix bit for bit, and each process
of a sweep (`cli.solve_sweep`) assembles each distinct block once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flow import FlowParams, _check_inside, _map_jets
from .hermite import BasisSpec
from .hermite import eval_hermite_derivatives, eval_hermite_functions  # noqa: F401 - benchmarks/tracing.py binds it here
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
    "check_plain_size",
]

_ASYMMETRY_TOL = 1e-9


class AssemblyError(RuntimeError):
    """Assembly met a non-finite value or failed its symmetry check."""


class MonotonicityError(RuntimeError):
    """A quadrature node lies outside the warp's interval, or G' is not positive at a node (tanh saturates)."""


@dataclass(frozen=True)
class Potential:
    """V(x) = sum_k c_k x^k from its coefficients (c_0, c_1, ...), named by a descriptor.

    Assembly reads V and training V', both from the one coefficient tuple, so they
    cannot disagree; both take complex x, which the complex-step gradient check needs.
    """

    coefficients: tuple[float, ...]
    descriptor: str

    def __call__(self, x):
        return self.value_and_derivative(x)[0]

    def value_and_derivative(self, x):
        """V(x) and V'(x), each with its own bits, from one list of x^k = x^(k - k//2) x^(k//2)."""
        powers = [1.0, x]
        for k in range(2, len(self.coefficients)):
            powers.append(powers[k - k // 2] * powers[k // 2])
        return _polynomial(self.coefficients, powers), _polynomial(self._slope, powers)

    @property
    def degree(self) -> int:  # of the highest nonzero coefficient; 0 for V = 0
        return max((k for k, c in enumerate(self.coefficients) if c), default=0)

    @property
    def is_even(self) -> bool:  # V(-x) = V(x): every odd coefficient is zero
        return not any(self.coefficients[1::2])

    @cached_property
    def _slope(self) -> tuple:
        """The coefficients k c_k (k >= 1) of V', formed at the first `value_and_derivative` call only."""
        return tuple(k * c for k, c in enumerate(self.coefficients))[1:]


def _polynomial(coefficients, powers):
    """sum_k c_k x^k over the nonzero c_k by ascending degree, from powers = [1, x, x^2, ...],
    so 0.5 x^2 + 0.25 x^4 has the bits of 0.5*x*x + 0.25*(x*x)*(x*x), and x + x^3 of x + x*x*x."""
    terms = [p if c == 1 else c * p for c, p in zip(coefficients, powers) if c]
    return sum(terms[1:], terms[0]) if terms else 0.0 * powers[1]


def harmonic_potential() -> Potential:
    return Potential((0.0, 0.0, 0.5), "harmonic: 0.5*x^2")


def anharmonic_potential() -> Potential:
    return Potential((0.0, 0.0, 0.5, 0.0, 0.25), "anharmonic: 0.5*x^2 + 0.25*x^4")


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


def _basis_at_nodes(N: int, rule: QuadratureRule, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """phi_n and phi_n' at the nodes for the n in `rows` of 0 .. N-1, read-only slices of the rule's tables."""
    if rule.order < N:
        raise ValueError(f"quadrature order {rule.order} is below basis size {N}")
    return rule.hermite_table[:N][rows], rule.derivative_table[:N][rows]


def _potential_part(rule: QuadratureRule, phi, V: Potential, y) -> np.ndarray:
    vvals = np.asarray(V(y), dtype=float)
    if not np.all(np.isfinite(vvals)):
        q = int(np.flatnonzero(~np.isfinite(vvals))[0])
        raise AssemblyError(f"potential is non-finite at mapped node {q} (x={rule.nodes[q]})")
    return (phi * (rule.lifted_weights * vvals)) @ phi.T


def _check_monotone(nodes: np.ndarray, g1: np.ndarray) -> None:
    """The G' guard of assembly and the trace loss: names the first node where G' is not positive or is NaN."""
    if not g1.min() > 0.0:  # a NaN fails too
        q = int(np.flatnonzero(~(g1 > 0.0))[0])
        raise MonotonicityError(f"warp derivative G' = {g1[q]} is not positive at node {q} (x={nodes[q]})")


def _kinetic_part(rule: QuadratureRule, phi, dphi, g1, g2) -> np.ndarray:
    """1/2 B B^T, once `_check_monotone` passes G'; with G' and G'' None, the identity warp's."""
    if g1 is None:
        B = dphi * rule.sqrt_lifted_weights
    else:
        _check_monotone(rule.nodes, g1)
        B = (dphi - 0.5 * phi * (g2 / g1)) * (rule.sqrt_lifted_weights / g1)
    return 0.5 * (B @ B.T)  # a product with its own transpose: exactly symmetric


def check_plain_size(N: int, Q: int, V: Potential) -> None:
    """Refuse a plain basis, or a parity block, of N > Q - max(d, 2)//2 functions: past the
    largest N whose matrix the Q-point rule integrates exactly (see the module docstring)."""
    if N > (limit := Q - max(V.degree, 2) // 2):
        raise ValueError(
            f"plain basis size N = {N} exceeds {limit}, the largest that the Q = {Q} rule "
            f"integrates exactly for a degree-{V.degree} potential (N <= Q - max(d, 2)//2)"
        )


def assemble_hamiltonian(
    spec: BasisSpec,
    rule: QuadratureRule,
    V: Potential,
    params: FlowParams | None = None,
) -> HamiltonianMatrix:
    """T + V, symmetrized; raises AssemblyError if the raw asymmetry exceeds 1e-9.

    The kinetic part is exactly symmetric and the potential part's asymmetry
    is rounding, so the check fails only on non-finite matrix elements (a NaN
    anywhere fails it) or on a fault in the assembly.  A warp's jets are computed once
    and shared by both terms, as are the spec's rows of the rule's tables.  ValueError:
    a plain basis past `check_plain_size`'s bound, a warped N > Q, or a parity block
    with a warp, which breaks parity.  A warped assembly warns below Q = 2N + 10.  MonotonicityError
    (as in the trace loss): a node outside the warp's interval (named before the jets), or G' <= 0 or NaN.
    """
    if params is None:
        check_plain_size(spec.size, rule.order, V)
    elif spec.parity is not None:
        raise ValueError(f"a parity block (parity {spec.parity}) takes no warp: a warp breaks parity")
    else:
        _check_inside(params, rule.nodes, "node", MonotonicityError)
        if rule.order < 2 * spec.size + 10:
            warnings.warn(
                f"quadrature order {rule.order} < 2N + 10 = {2 * spec.size + 10}; eigenvalues may "
                "drop below the variational limit",
                stacklevel=2,
            )
    phi, dphi = _basis_at_nodes(spec.size, rule, spec.rows)
    y, g1, g2 = (rule.nodes, None, None) if params is None else _map_jets(params, rule.nodes)
    H = _kinetic_part(rule, phi, dphi, g1, g2) + _potential_part(rule, phi, V, y)
    asym = np.abs(H - H.T).max(initial=0.0)
    if not asym <= _ASYMMETRY_TOL:  # also true when H holds a NaN
        raise AssemblyError(
            f"assembled matrix asymmetry {asym:.3e} exceeds {_ASYMMETRY_TOL:.1e}: "
            "non-finite matrix elements or a fault in the assembly"
        )
    H = 0.5 * (H + H.T)
    return HamiltonianMatrix(
        size=H.shape[0], entries=H, scheme="hermite" if params is None else "augmented"
    )
