"""Reference levels for the benchmark's correctness checks and `trace_excess`.

Two references are stored in `reference.json` next to this file:

* the lowest levels of V = x^2/2 + x^4/4 computed apart from hermflow, in
  numpy alone: second-order finite differences on [-L, L] with Dirichlet
  ends give a symmetric tridiagonal matrix; the number of its eigenvalues
  below a trial value is the number of negative pivots of its LDL^T
  factorization (a Sturm count), and bisection on that count brackets each
  level.  Richardson extrapolation over four grids, each halving h, removes
  the h^2, h^4 and h^6 error terms.  The change made by the last
  extrapolation level is recorded as the accuracy of each level;
* the plain-Hermite spectrum at N = 160, Q = 200 (states 0-29), the
  converged reference behind `trace_excess`.  It is accepted only if it
  agrees with N = 180 to 1e-9 in states 0-29 and with the finite-difference
  levels to 1e-8.

Remake the file with

    python3 benchmarks/reference.py

from the repository root; it takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
COMMAND = "python3 benchmarks/reference.py"

FD_HALF_WIDTH = 8.0  # psi_9 has decayed below 1e-60 of its peak by |x| = 8
FD_INTERVALS = (800, 1600, 3200, 6400)  # h = 2L / intervals, halved three times
FD_LEVELS = 10
HERMITE_N, HERMITE_CHECK_N, HERMITE_Q, HERMITE_STATES = 160, 180, 200, 30


def _sturm_count(diag: np.ndarray, off2: float, lam: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each trial value in `lam`.

    `diag` is the matrix diagonal; every off-diagonal entry squares to `off2`.
    """
    count = np.zeros(lam.shape, dtype=int)
    d = np.full(lam.shape, np.inf)  # first pivot is diag[0] - lam
    tiny = np.finfo(float).tiny
    for a in diag:
        d = (a - lam) - off2 / d
        d[d == 0.0] = -tiny
        count += d < 0.0
    return count


def fd_levels(intervals: int, n_levels: int = FD_LEVELS, half_width: float = FD_HALF_WIDTH):
    """Lowest `n_levels` eigenvalues of the finite-difference Hamiltonian."""
    h = 2.0 * half_width / intervals
    x = -half_width + h * np.arange(1, intervals)
    diag = 1.0 / (h * h) + 0.5 * x * x + 0.25 * x**4
    off2 = (0.5 / (h * h)) ** 2
    lo = np.zeros(n_levels)  # H > min V = 0
    hi = np.full(n_levels, 4.0 * n_levels + 8.0)
    if np.any(_sturm_count(diag, off2, hi) < np.arange(1, n_levels + 1)):
        raise RuntimeError("upper bisection bracket is below a requested level")
    k = np.arange(n_levels)
    while np.max(hi - lo) > 4.0 * np.finfo(float).eps * np.max(hi):
        mid = 0.5 * (lo + hi)
        above = _sturm_count(diag, off2, mid) > k
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def richardson(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolate levels computed on grids with h halving from row to row.

    Returns the most extrapolated levels and the change made by the last
    extrapolation level.
    """
    table = [list(rows)]
    for k in range(1, len(rows)):
        prev = table[-1]
        factor = 4.0**k - 1.0
        table.append([prev[j] + (prev[j] - prev[j - 1]) / factor for j in range(1, len(prev))])
    return table[-1][-1], np.abs(table[-1][-1] - table[-2][-1])


def hermite_spectrum(N: int, Q: int = HERMITE_Q) -> np.ndarray:
    from hermflow import BasisSpec, anharmonic_potential, assemble_hamiltonian, eigh, gauss_hermite_rule

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Q = 200 and Q < 2N + 10 warn by design
        H = assemble_hamiltonian(BasisSpec(N), gauss_hermite_rule(Q), anharmonic_potential())
    return eigh(H.entries).eigenvalues


def make_reference() -> dict:
    fd, spread = richardson([fd_levels(n) for n in FD_INTERVALS])
    herm = hermite_spectrum(HERMITE_N)[:HERMITE_STATES]
    herm_check = hermite_spectrum(HERMITE_CHECK_N)[:HERMITE_STATES]
    n160_vs_n180 = float(np.abs(herm - herm_check).max())
    fd_vs_n160 = float(np.abs(herm[:FD_LEVELS] - fd).max())
    if n160_vs_n180 > 1e-9:
        raise RuntimeError(f"N=160 is not converged against N=180: {n160_vs_n180:.2e}")
    if fd_vs_n160 > 1e-8:
        raise RuntimeError(f"N=160 disagrees with the finite-difference levels: {fd_vs_n160:.2e}")
    return {
        "command": COMMAND,
        "potential": "V(x) = x^2/2 + x^4/4",
        "finite_difference": {
            "half_width": FD_HALF_WIDTH,
            "intervals": list(FD_INTERVALS),
            "levels": fd.tolist(),
            "extrapolation_spread": spread.tolist(),
        },
        "hermite": {
            "N": HERMITE_N,
            "Q": HERMITE_Q,
            "levels": herm.tolist(),
            "max_diff_vs_N180": n160_vs_n180,
            "max_diff_vs_finite_difference": fd_vs_n160,
        },
    }


def load_reference(path: Path = REFERENCE_FILE) -> tuple[np.ndarray, np.ndarray]:
    """(finite-difference levels 0-9, Hermite N=160 levels 0-29) from the stored file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return np.array(data["finite_difference"]["levels"]), np.array(data["hermite"]["levels"])


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    ref = make_reference()
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    fdr = ref["finite_difference"]
    print(f"wrote {REFERENCE_FILE.name}: max extrapolation spread {max(fdr['extrapolation_spread']):.1e}, "
          f"N=160 vs N=180 {ref['hermite']['max_diff_vs_N180']:.1e}, "
          f"N=160 vs finite differences {ref['hermite']['max_diff_vs_finite_difference']:.1e}")
