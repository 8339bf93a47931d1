"""Correctness checks on the program's outputs.

Each check raises `CheckFailed` with a one-line reason; `selftest.py` shows
that each one rejects a corrupted output.  The references are computed apart
from the program (`reference.py`) or are properties the method must have.
"""

from __future__ import annotations

import numpy as np

FLOOR_TOL = 1e-6  # variational floor: E_n >= E_n(exact) - FLOOR_TOL
HARMONIC_TOL = 1e-9  # plain Hermite is exact for x^2/2; measured error ~1e-13
CONVERGED_TOL = 1e-9  # N=160 against N=180 in states 0-29; measured 3.0e-11
FD_TOL = 1e-8  # N=160 against the finite-difference levels; measured 2.3e-11
REFINE_TOL = 1e-10  # trained N=29 warp, Q'=110 against Q'=90; measured 1.3e-13
ROUNDTRIP_TOL = 1e-9  # flow_forward(flow_inverse(y)) - y; measured <= 3.9e-13
GRAM_TOL = 1e-9  # warped eigenfunctions on the grid; measured <= 1.5e-14
INTERLACE_TOL = 1e-10  # plain E_n(N+1) <= E_n(N) + INTERLACE_TOL


class CheckFailed(AssertionError):
    """A program output failed a correctness check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def floor(label: str, eigenvalues, reference, tol: float = FLOOR_TOL):
    """Every eigenvalue with a reference level lies above it, up to `tol`."""
    k = min(len(eigenvalues), len(reference))
    gap = np.asarray(eigenvalues[:k]) - np.asarray(reference[:k])
    worst = int(np.argmin(gap))
    _require(gap[worst] >= -tol, f"{label}: E_{worst} is {-gap[worst]:.3e} below the reference")


def agree(label: str, a, b, tol: float):
    diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    _require(diff <= tol, f"{label}: differ by {diff:.3e} > {tol:.1e}")


def bitwise(label: str, a, b):
    a, b = np.asarray(a), np.asarray(b)
    _require(a.shape == b.shape and a.tobytes() == b.tobytes(), f"{label}: not bitwise equal")


def manifest_complete(manifest: dict, n_values):
    _require(not manifest.get("failed"), f"manifest lists failed N: {sorted(manifest.get('failed', {}))}")
    _require(list(manifest.get("completed", [])) == list(n_values),
             f"manifest completed {manifest.get('completed')} != {list(n_values)}")


def trained_below_plain(augmented: dict, plain: dict):
    """Each trained trace (sum of levels) lies below the plain trace at the same N."""
    for N in sorted(plain):
        aug, her = float(np.sum(augmented[N])), float(np.sum(plain[N]))
        _require(aug < her, f"N={N}: trained trace {aug:.10g} is not below plain {her:.10g}")


def interlacing(plain: dict, tol: float = INTERLACE_TOL):
    """Plain levels do not rise as N grows (nested Galerkin spaces)."""
    sizes = sorted(plain)
    for lo, hi in zip(sizes, sizes[1:]):
        rise = np.asarray(plain[hi][:lo]) - np.asarray(plain[lo])
        _require(rise.max() <= tol, f"plain E_{int(np.argmax(rise))} rises by {rise.max():.3e} from N={lo} to N={hi}")


def harmonic_levels(eigenvalues, tol: float = HARMONIC_TOL):
    n = np.arange(len(eigenvalues))
    agree("harmonic levels vs n + 1/2", eigenvalues, n + 0.5, tol)


def roundtrip(label: str, y, y_back, tol: float = ROUNDTRIP_TOL):
    agree(f"{label}: flow_forward(flow_inverse(y)) vs y", y_back, y, tol)


def orthonormal(label: str, values, spacing: float, tol: float = GRAM_TOL):
    """Rows of `values` (functions sampled on a uniform grid) are orthonormal."""
    gram = spacing * values @ values.T
    agree(f"{label}: Gram matrix vs identity", gram, np.eye(len(values)), tol)
