"""Convergence diagnostics: banded errors, error ratios, rate fits, CSV writers and the spectra reader.

Convergence in the basis size N is summarized two ways:

* banded errors - eigenvalues are grouped into consecutive bands of
  `BAND_SIZE` (5) levels and the average error of each band against a converged
  reference is tracked as N grows;
* error ratios  - for a scalar summary x_N (here the sum over the states of
  `WINDOW`, 5..10), e_N = |x_N - x*| / |x_{N-1} - x*|; ratios tending to zero mean
  faster-than-linear convergence.  The noisy e_N sequence is summarized by
  an ordinary least-squares line.

Each discretization scheme is always compared against its own converged
reference spectrum, never against the other scheme's: the spectrum of its
own sweep at the reference basis size N_ref.  `build_convergence_report`
computes both summaries for one scheme.  It is the one copy of them:
``hermflow analyze`` writes its numbers, and the acceptance criteria and
demo 03 read them.  This layer works on eigenvalue arrays it is given and
runs no solver; it imports no other hermflow module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "BAND_SIZE",
    "WINDOW",
    "ConvergenceReport",
    "band_average_errors",
    "window_sum",
    "q_sequence",
    "linear_fit",
    "build_convergence_report",
    "write_csv",
    "write_spectra_csv",
    "read_spectra_csv",
    "write_rates_csv",
    "write_fits_csv",
    "write_bands_csv",
]

BAND_SIZE = 5  # levels per band of the banded errors
WINDOW = (5, 10)  # the states, inclusive, whose summed levels give the error ratios


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics of one scheme over a sweep of basis sizes."""

    scheme: str
    band_errors: Mapping[int, np.ndarray]  # N -> per-band mean abs errors
    rates: Mapping[int, float]  # N -> e_N (NaN where undefined)
    fit: tuple[float, float]  # (slope, intercept) over defined rates
    reference: np.ndarray  # the spectrum at N_ref


def band_average_errors(spectrum, reference, band_size: int, relative: bool = False) -> np.ndarray:
    """Mean absolute (or relative) eigenvalue error per complete band."""
    if band_size < 1:
        raise ValueError(f"band_size must be >= 1, got {band_size}")
    vals = np.asarray(spectrum, dtype=float)
    ref = np.asarray(reference, dtype=float)[: vals.size]
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
    vals = np.asarray(spectrum, dtype=float)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad state window {window}")
    if vals.size <= hi:
        return None
    return float(vals[lo : hi + 1].sum())


def q_sequence(x_by_N: Mapping[int, float], x_star: float, floor: float) -> dict[int, float]:
    """Error ratios e_N = |x_N - x*| / |x_{N-1} - x*| over consecutive N.

    Entries where either error is at or below `floor`, the rounding level of the
    x, are NaN (undefined), never zero or a ratio of rounding; callers exclude them
    from fits.
    """
    out = {}
    for N in sorted(x_by_N):
        if (N - 1) not in x_by_N:
            continue
        x_n, x_prev = x_by_N[N], x_by_N[N - 1]
        if x_n is None or x_prev is None:
            continue
        err, denom = abs(x_n - x_star), abs(x_prev - x_star)
        out[N] = math.nan if min(err, denom) <= floor else err / denom
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


def build_convergence_report(scheme: str, spectra: Mapping[int, np.ndarray], n_ref: int) -> ConvergenceReport:
    """Summarize a sweep of one scheme against its own n_ref spectrum, in bands of `BAND_SIZE`
    levels and by the ratios of the `WINDOW` sums.

    An error of a window sum is the difference of two sums of w = WINDOW[1] - WINDOW[0] + 1
    levels, and a backward-stable eigh gives each level to about eps ||H|| = eps max |E|, so
    an error at or below 2 w eps max |E| may be rounding alone and its ratios are undefined;
    so is the ratio at n_ref, whose error is zero by construction.  On the plain ladder
    (Q = 200, N = 5..180, window 5..10) the errors fall to 2e-11 at N = 76 and then
    plateau at rounding, at most 1.7 eps max |E|, from N = 84 on.
    """
    if n_ref not in spectra:
        raise ValueError(f"scheme {scheme!r} has no N_ref={n_ref} spectrum")
    if (too_big := max(spectra)) > n_ref:
        raise ValueError(f"N_ref={n_ref} must cover every analyzed basis size; {scheme!r} has N={too_big}")
    reference = np.asarray(spectra[n_ref], dtype=float)
    band_errors = {
        N: band_average_errors(vals, reference[: len(vals)], BAND_SIZE) for N, vals in spectra.items()
    }
    x_star = window_sum(reference, WINDOW)
    rates: dict[int, float] = {}
    fit = (math.nan, math.nan)
    if x_star is not None:
        top = max(float(np.abs(v).max()) for v in spectra.values())  # max |E|
        floor = 2 * (WINDOW[1] - WINDOW[0] + 1) * np.finfo(float).eps * top
        rates = q_sequence({N: window_sum(v, WINDOW) for N, v in spectra.items()}, x_star, floor)
        defined = [(N, e) for N, e in rates.items() if math.isfinite(e)]
        if len(defined) >= 2:
            fit = linear_fit(defined)
    return ConvergenceReport(scheme, band_errors, rates, fit, reference)


# ---------------------------------------------------------------------------
# CSV emission and the spectra reader (fixed, versioned column layouts)
# ---------------------------------------------------------------------------


def write_csv(path, kind: str, columns: str, lines) -> None:
    """`# hermflow <kind> csv v1`, the columns, then the lines, each ending in a newline, by one
    `writelines`, which never holds a generator's lines whole.  The writers format labels by
    str and values by repr(float(.)), so numpy scalars print as plain numbers."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# hermflow {kind} csv v1\n{columns}\n")
        fh.writelines(lines)


def write_spectra_csv(path, rows) -> None:
    """rows: iterable of (scheme, N, n, E)."""
    write_csv(path, "spectra", "scheme,N,n,E", (f"{s},{N},{n},{float(E)!r}\n" for s, N, n, E in rows))


def read_spectra_csv(*paths) -> dict[str, dict[int, np.ndarray]]:
    """Every path's spectra rows, read in one pass, as {scheme: {N: eigenvalues}}.  ValueError, naming the
    file: a malformed row; a level (scheme, N, n) given a value unlike an earlier row's, in any file; or a
    file with some but not all levels 0 .. N-1 of a case, which no other input fills in."""
    cases: dict[str, dict[int, dict[int, float]]] = {}  # scheme -> N -> {n: E}, over every input
    for path in paths:
        given: dict[tuple[str, int], set[int]] = {}  # the levels this file gives
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("scheme,"):
                    continue
                try:
                    scheme, N, n, E = line.split(",")
                    N, n, E = int(N), int(n), float(E)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'scheme,N,n,E' with integer N, n, got {line!r}"
                    ) from exc
                levels = cases.setdefault(scheme, {}).setdefault(N, {})
                if n in levels and levels[n] != E:  # a NaN differs from every value, itself too
                    raise ValueError(f"{path}:{lineno}: conflicting value for {scheme} N={N} n={n}")
                levels[n] = E
                given.setdefault((scheme, N), set()).add(n)
        for (scheme, N), indices in given.items():
            if indices != set(range(N)):
                raise ValueError(f"{path}: incomplete spectrum for {scheme} N={N}")
    return {scheme: {N: np.array([levels[n] for n in range(N)]) for N, levels in by_N.items()}
            for scheme, by_N in cases.items()}


def write_rates_csv(path, rows) -> None:
    """rows: iterable of (scheme, N, e_N); undefined ratios written as nan."""
    write_csv(path, "rates", "scheme,N,e_N", (f"{s},{N},{float(e)!r}\n" for s, N, e in rows))


def write_fits_csv(path, rows) -> None:
    """rows: iterable of (scheme, slope, intercept)."""
    write_csv(path, "fits", "scheme,slope,intercept", (f"{s},{float(a)!r},{float(b)!r}\n" for s, a, b in rows))


def write_bands_csv(path, rows) -> None:
    """rows: iterable of (scheme, N, band, abs_error, rel_error)."""
    write_csv(
        path,
        "bands",
        "scheme,N,band,abs_error,rel_error",
        (f"{s},{N},{b},{float(a)!r},{float(r)!r}\n" for s, N, b, a, r in rows),
    )
