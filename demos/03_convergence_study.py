"""Compare how fast both discretizations converge as the basis grows.

Reproduces the convergence diagnostics at a desk-friendly scale: banded
eigenvalue errors against each scheme's own largest-N reference, and the
error-ratio sequence e_N = |x_N - x*| / |x_{N-1} - x*| for a window of
mid-spectrum states, summarized by a least-squares line.  Ratios tending
to zero as N grows indicate faster-than-linear convergence; the warped
basis reaches a given accuracy at visibly smaller N.

Runtime is a couple of minutes (every N trains its own warp).
"""

import math

from hermflow import band_average_errors, linear_fit, q_sequence, window_sum
from hermflow.cli import ExperimentConfig, solve_case

N_VALUES = range(5, 22)
N_REF = max(N_VALUES)
WINDOW = (5, 10)


def main():
    config = ExperimentConfig(potential="anharmonic", Q=90, iterations=800)
    spectra = {"hermite": {}, "augmented": {}}
    for N in N_VALUES:
        for scheme, by_n in spectra.items():
            by_n[N] = solve_case(config, scheme, N, seed=N).eigenvalues
        print(f"  solved N={N} (both schemes)")

    print("\nBand-1 (states 0-4) average error vs own reference at "
          f"N={N_REF}:")
    print(f"  {'N':>4} {'hermite':>12} {'warped':>12}")
    for N in (5, 10, 15, 20):
        errs = {
            s: band_average_errors(spectra[s][N][:5], spectra[s][N_REF][:5], 5)[0]
            for s in spectra
        }
        print(f"  {N:>4} {errs['hermite']:>12.3e} {errs['augmented']:>12.3e}")

    print(f"\nError ratios e_N for the sum of states {WINDOW[0]}..{WINDOW[1]}:")
    for scheme, by_n in spectra.items():
        x_star = window_sum(by_n[N_REF], WINDOW)
        rates = q_sequence({N: window_sum(by_n[N], WINDOW) for N in N_VALUES}, x_star)
        defined = sorted((N, e) for N, e in rates.items() if math.isfinite(e))
        slope, intercept = linear_fit(defined)
        shown = ", ".join(f"{N}:{e:.3f}" for N, e in defined[:6])
        print(f"  {scheme:>10}: fit slope {slope:+.4f} (ratios {shown}, ...)")
    print("\nBoth slopes are negative (ratios shrink with N); the warped-basis")
    print("line sits below the plain one, i.e. it converges faster.")


if __name__ == "__main__":
    main()
