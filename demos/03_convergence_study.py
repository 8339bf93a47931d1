"""Compare how fast both discretizations converge as the basis grows.

Reproduces the convergence diagnostics at a desk-friendly scale: banded
eigenvalue errors against each scheme's own largest-N reference, and the
error-ratio sequence e_N = |x_N - x*| / |x_{N-1} - x*| for a window of
mid-spectrum states, summarized by a least-squares line.  Ratios tending
to zero as N grows indicate faster-than-linear convergence; the warped
basis reaches a given accuracy at visibly smaller N.  The sweep is solved by
`solve_sweep`, as `hermflow sweep` solves it (per-N seeds N, and part of the Ns
in a child process where two CPUs are usable), and each scheme's numbers are
read from `build_convergence_report`, as `hermflow analyze` writes them.

Runtime is a few seconds (every N trains its own warp).
"""

import math

from hermflow import build_convergence_report
from hermflow.analysis import WINDOW
from hermflow.cli import ExperimentConfig, solve_sweep

N_VALUES = range(5, 22)
N_REF = max(N_VALUES)


def main():
    config = ExperimentConfig(potential="anharmonic", Q=90, iterations=800)
    spectra = {"hermite": {}, "augmented": {}}
    for N, solved in zip(N_VALUES, solve_sweep(config, N_VALUES)):
        if isinstance(solved, str):
            raise RuntimeError(f"N={N} failed: {solved}")
        for by_n, case in zip(spectra.values(), solved):
            by_n[N] = case.eigenvalues
        print(f"  solved N={N} (both schemes)")
    reports = {s: build_convergence_report(s, by_n, N_REF) for s, by_n in spectra.items()}

    print(f"\nBand-1 (states 0-4) average error vs own reference at N={N_REF}:")
    print(f"  {'N':>4} {'hermite':>12} {'warped':>12}")
    for N in (5, 10, 15, 20):
        errs = {s: report.band_errors[N][0] for s, report in reports.items()}
        print(f"  {N:>4} {errs['hermite']:>12.3e} {errs['augmented']:>12.3e}")

    print(f"\nError ratios e_N for the sum of states {WINDOW[0]}..{WINDOW[1]}:")
    for scheme, report in reports.items():
        defined = sorted((N, e) for N, e in report.rates.items() if math.isfinite(e))
        shown = ", ".join(f"{N}:{e:.3f}" for N, e in defined[:6])
        print(f"  {scheme:>10}: fit slope {report.fit[0]:+.4f} (ratios {shown}, ...)")
    print("\nBoth slopes are negative (ratios shrink with N); the warped-basis")
    print("line sits below the plain one, i.e. it converges faster.")


if __name__ == "__main__":
    main()
