"""Solve 1D Schrodinger problems in a plain Hermite basis.

Walks through the basic pipeline: build a Gauss-Hermite rule, assemble the
projected Hamiltonian and diagonalize it.  The rule integrates the plain
matrix exactly for N <= Q - max(d, 2)//2 (V of degree d), and assembly refuses
a larger basis.  The harmonic oscillator reproduces E_n = n + 1/2 to machine
precision; the quartic-perturbed well shows the slow tail convergence that
motivates warping the basis.
"""

import numpy as np

from hermflow import (
    BasisSpec,
    anharmonic_potential,
    assemble_hamiltonian,
    eigh,
    gauss_hermite_rule,
    harmonic_potential,
)


def main():
    rule = gauss_hermite_rule(90)
    print(f"Gauss-Hermite rule of order {rule.order}:")
    print(f"  outermost node   {rule.nodes[-1]:.6f}")
    print(f"  weight sum       {rule.weights.sum():.15f}  (sqrt(pi) = {np.sqrt(np.pi):.15f})")

    try:
        assemble_hamiltonian(BasisSpec(rule.order), rule, harmonic_potential())
    except ValueError as exc:
        print(f"  a plain basis of N = Q = {rule.order} is refused: {exc}\n")

    H = assemble_hamiltonian(BasisSpec(10), rule, harmonic_potential())
    E = eigh(H.entries).eigenvalues
    print("Harmonic oscillator, N = 10:")
    print("  eigenvalues:", np.array2string(E, precision=10))
    print(f"  max |E_n - (n + 1/2)| = {np.abs(E - (np.arange(10) + 0.5)).max():.2e}\n")

    print("Anharmonic well V = x^2/2 + x^4/4, increasing basis size:")
    print(f"  {'N':>4} {'E_0':>14} {'E_4':>14} {'E_9':>14}")
    for N in (10, 15, 20, 25, 29):
        H = assemble_hamiltonian(BasisSpec(N), rule, anharmonic_potential())
        E = eigh(H.entries).eigenvalues
        print(f"  {N:>4} {E[0]:>14.9f} {E[4]:>14.9f} {E[9]:>14.9f}")
    print("\nLow states settle quickly; higher states keep drifting down,")
    print("which is exactly what the trainable warp accelerates (demo 02).")


if __name__ == "__main__":
    main()
