"""Orthonormal Hermite functions and their first derivatives.

The n-th Hermite function is the n-th (physicists') Hermite polynomial times
exp(-x^2/2), normalized so that the family is orthonormal on the real line.
Values are generated with the normalized three-term recurrence

    phi_{n+1}(x) = x*sqrt(2/(n+1))*phi_n(x) - sqrt(n/(n+1))*phi_{n-1}(x),
    phi_0(x)     = pi^(-1/4) * exp(-x^2/2),

which carries the Gaussian factor from the seed onward.  The raw polynomial
values would overflow around n ~ 150; the normalized recurrence keeps every
intermediate bounded for n <= 200 out to |x| <= 19.34, the outermost node of
the largest rule, whose table holds phi_0 .. phi_200.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSpec",
    "eval_hermite_functions",
    "eval_hermite_derivatives",
    "hermite_derivatives_from_table",
]


@dataclass(frozen=True)
class BasisSpec:
    """Number of retained basis functions (indices 0 .. size-1); with `parity` 0 or 1, only
    the even or the odd indices among them."""

    size: int
    parity: int | None = None

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or self.size < 1:
            raise ValueError(f"basis size must be a positive integer, got {self.size!r}")
        if self.parity is not None and self.parity not in (0, 1):
            raise ValueError(f"basis parity must be None, 0 or 1, got {self.parity!r}")

    @property
    def rows(self) -> slice:  # the retained indices, as a slice of 0 .. size-1
        return slice(self.size) if self.parity is None else slice(self.parity, self.size, 2)


def eval_hermite_functions(n_max: int, x) -> np.ndarray:
    """Evaluate phi_0(x) .. phi_{n_max}(x).

    Parameters
    ----------
    n_max : int
        Highest function index, >= 0.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    ndarray of shape (n_max+1,) + shape(x).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    x = np.asarray(x, dtype=float)
    phi = np.zeros((n_max + 1,) + x.shape)
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        phi[1] = np.sqrt(2.0) * x * phi[0]
    for n in range(1, n_max):
        phi[n + 1] = x * np.sqrt(2.0 / (n + 1)) * phi[n] - np.sqrt(n / (n + 1.0)) * phi[n - 1]
    return phi


def hermite_derivatives_from_table(phi: np.ndarray) -> np.ndarray:
    """phi_0' .. phi_{n_max}' from a table of phi_0 .. phi_{n_max+1}.

    Applies the ladder identity phi_n' = sqrt(n/2)*phi_{n-1} - sqrt((n+1)/2)*phi_{n+1}
    to every row at once, so a caller that also needs the values builds one
    table for both.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] < 2:
        raise ValueError(f"need phi_0 and phi_1 at least, got {phi.shape[0]} row(s)")
    n = np.arange(1.0, phi.shape[0] - 1).reshape((-1,) + (1,) * (phi.ndim - 1))
    d = np.empty((phi.shape[0] - 1,) + phi.shape[1:])
    d[0] = -np.sqrt(0.5) * phi[1]
    d[1:] = np.sqrt(0.5 * n) * phi[:-2] - np.sqrt(0.5 * (n + 1)) * phi[2:]
    return d


def eval_hermite_derivatives(n_max: int, x) -> np.ndarray:
    """Evaluate phi_0'(x) .. phi_{n_max}'(x).

    Uses the ladder identity phi_n' = sqrt(n/2)*phi_{n-1} - sqrt((n+1)/2)*phi_{n+1},
    so functions up to index n_max+1 are generated internally.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return hermite_derivatives_from_table(eval_hermite_functions(n_max + 1, x))
