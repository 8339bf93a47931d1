"""Convergence diagnostics: energy bands, error ratios, reference spectra.

Convergence in the basis size N is summarized two ways:

* banded errors - eigenvalues are grouped into consecutive bands (five per
  band by default) and the average error of each band against a converged
  reference is tracked as N grows;
* error ratios  - for a scalar summary x_N (here a sum over a window of
  states), e_N = |x_N - x*| / |x_{N-1} - x*|; ratios tending to zero mean
  faster-than-linear convergence.  The noisy e_N sequence is summarized by
  an ordinary least-squares line.

Each discretization scheme is always compared against its own converged
reference spectrum, never against the other scheme's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .eigensolver import eigh
from .galerkin import Potential, assemble_hamiltonian
from .hermite import BasisSpec
from .quadrature import gauss_hermite_rule
from .trainer import TrainingConfig, train

__all__ = [
    "ReferenceEnergies",
    "ConvergenceReport",
    "band_sums",
    "band_average_errors",
    "window_sum",
    "q_sequence",
    "linear_fit",
    "build_convergence_report",
    "reference_energies",
    "write_spectra_csv",
    "write_rates_csv",
    "write_fits_csv",
    "write_bands_csv",
]

_DENOM_FLOOR = 1e-14


@dataclass(frozen=True)
class ReferenceEnergies:
    """Converged eigenvalues with their provenance."""

    values: np.ndarray
    scheme: str
    n_ref: int


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics of one scheme over a sweep of basis sizes."""

    scheme: str
    spectra: Mapping[int, np.ndarray]  # N -> eigenvalues
    band_errors: Mapping[int, np.ndarray]  # N -> per-band mean abs errors
    rates: Mapping[int, float]  # N -> e_N (NaN where undefined)
    fit: tuple[float, float]  # (slope, intercept) over defined rates
    reference: ReferenceEnergies


def _values(spectrum):
    return np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=float)


def band_sums(spectrum, band_size: int) -> np.ndarray:
    """Sums of consecutive bands of `band_size` eigenvalues (ascending).

    A trailing incomplete band is dropped.
    """
    if band_size < 1:
        raise ValueError(f"band_size must be >= 1, got {band_size}")
    vals = _values(spectrum)
    n_bands = vals.size // band_size
    return vals[: n_bands * band_size].reshape(n_bands, band_size).sum(axis=1)


def band_average_errors(spectrum, reference, band_size: int, relative: bool = False) -> np.ndarray:
    """Mean absolute (or relative) eigenvalue error per complete band."""
    vals = _values(spectrum)
    ref = _values(reference)[: vals.size]
    if ref.size < vals.size:
        raise ValueError(f"reference has {ref.size} levels, spectrum has {vals.size}")
    err = np.abs(vals - ref)
    if relative:
        err = err / np.abs(ref)
    n_bands = vals.size // band_size
    return err[: n_bands * band_size].reshape(n_bands, band_size).mean(axis=1)


def window_sum(spectrum, window: tuple[int, int]) -> float | None:
    """Sum of eigenvalues with indices window[0]..window[1] inclusive.

    Returns None when the spectrum does not extend through the window (the
    convergence-rate sequence then treats that N as undefined).
    """
    lo, hi = window
    vals = _values(spectrum)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad state window {window}")
    if vals.size <= hi:
        return None
    return float(vals[lo : hi + 1].sum())


def q_sequence(x_by_N: Mapping[int, float], x_star: float) -> dict[int, float]:
    """Error ratios e_N = |x_N - x*| / |x_{N-1} - x*| over consecutive N.

    Entries whose denominator falls below 1e-14 are NaN (undefined), never
    zero; callers exclude them from fits.
    """
    out = {}
    for N in sorted(x_by_N):
        if (N - 1) not in x_by_N:
            continue
        x_n, x_prev = x_by_N[N], x_by_N[N - 1]
        if x_n is None or x_prev is None:
            continue
        denom = abs(x_prev - x_star)
        out[N] = math.nan if denom < _DENOM_FLOOR else abs(x_n - x_star) / denom
    return out


def linear_fit(points) -> tuple[float, float]:
    """Ordinary least squares through (x, y) pairs; non-finite y are skipped."""
    pts = [(float(x), float(y)) for x, y in points if math.isfinite(y)]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 defined points for a line, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def build_convergence_report(
    scheme: str,
    spectra: Mapping[int, np.ndarray],
    n_ref: int,
    band_size: int = 5,
    window: tuple[int, int] = (5, 10),
) -> ConvergenceReport:
    """Summarize a sweep of one scheme against its own n_ref spectrum."""
    if n_ref not in spectra:
        raise ValueError(f"spectra lack the reference basis size N={n_ref}")
    reference = ReferenceEnergies(np.asarray(spectra[n_ref], dtype=float), scheme, n_ref)
    band_errors = {
        N: band_average_errors(vals, reference.values[: len(vals)], band_size)
        for N, vals in spectra.items()
    }
    x_star = window_sum(reference.values, window)
    rates: dict[int, float] = {}
    fit = (math.nan, math.nan)
    if x_star is not None:
        rates = q_sequence({N: window_sum(v, window) for N, v in spectra.items()}, x_star)
        defined = [(N, e) for N, e in rates.items() if math.isfinite(e)]
        if len(defined) >= 2:
            fit = linear_fit(defined)
    return ConvergenceReport(
        scheme=scheme,
        spectra=dict(spectra),
        band_errors=band_errors,
        rates=rates,
        fit=fit,
        reference=reference,
    )


def reference_energies(
    scheme: str,
    V: Potential,
    N_ref: int,
    config: TrainingConfig | None = None,
) -> ReferenceEnergies:
    """Converged eigenvalues of the requested scheme at basis size N_ref.

    The augmented scheme is fully trained first (the reference must come
    from the same discretization it serves, see ConvergenceReport).
    """
    if scheme not in ("hermite", "augmented"):
        raise ValueError(f"unknown scheme {scheme!r}")
    config = TrainingConfig(N=N_ref) if config is None else replace(config, N=N_ref)
    rule = gauss_hermite_rule(config.Q)
    params = None
    if scheme == "augmented":
        params, _ = train(config, V)
    H = assemble_hamiltonian(BasisSpec(N_ref), rule, V, params)
    return ReferenceEnergies(values=eigh(H.entries).eigenvalues, scheme=scheme, n_ref=N_ref)


# ---------------------------------------------------------------------------
# CSV emission (fixed, versioned column layouts)
# ---------------------------------------------------------------------------


def write_spectra_csv(path, rows) -> None:
    """rows: iterable of (scheme, N, n, E)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hermflow spectra csv v1\n")
        fh.write("scheme,N,n,E\n")
        for scheme, N, n, E in rows:
            fh.write(f"{scheme},{N},{n},{float(E)!r}\n")


def write_rates_csv(path, rows) -> None:
    """rows: iterable of (scheme, N, e_N); undefined ratios written as nan."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hermflow rates csv v1\n")
        fh.write("scheme,N,e_N\n")
        for scheme, N, e in rows:
            fh.write(f"{scheme},{N},{float(e)!r}\n")


def write_fits_csv(path, rows) -> None:
    """rows: iterable of (scheme, slope, intercept)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hermflow fits csv v1\n")
        fh.write("scheme,slope,intercept\n")
        for scheme, slope, intercept in rows:
            fh.write(f"{scheme},{float(slope)!r},{float(intercept)!r}\n")


def write_bands_csv(path, rows) -> None:
    """rows: iterable of (scheme, N, band, abs_error, rel_error)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hermflow bands csv v1\n")
        fh.write("scheme,N,band,abs_error,rel_error\n")
        for scheme, N, band, abs_err, rel_err in rows:
            fh.write(f"{scheme},{N},{band},{float(abs_err)!r},{float(rel_err)!r}\n")
