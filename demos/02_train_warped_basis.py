"""Train the basis warp and watch the trace loss drop.

The loss is the trace of the projected Hamiltonian - the sum of all N Ritz
values, a variational upper bound on the sum of the true lowest N levels.
Training starts from the exact identity warp, so iteration 0 reproduces the
plain Hermite result, and every later iterate re-projects the residual
weights onto the contraction constraint that keeps the warp invertible.
"""

from hermflow import save_checkpoint
from hermflow.cli import ExperimentConfig, solve_case


def main():
    config = ExperimentConfig(potential="anharmonic", Q=90, hidden=128, blocks=1,
                              learning_rate=1e-3, iterations=500, seed=0)
    N = 5
    print(f"Training warp for the {config.potential} well, N={N}, "
          f"{config.iterations} Adam iterations...")
    warped = solve_case(config, "augmented", N, config.seed)
    plain = solve_case(config, "hermite", N, config.seed)
    params, trace = warped.params, warped.training

    print("\n  iter      loss        |grad|")
    for i in (0, 10, 25, 50, 100, 200, 499):
        print(f"  {i:>4} {trace.losses[i]:>12.6f} {trace.grad_norms[i]:>12.3e}")

    E_plain, E_warp = plain.eigenvalues, warped.eigenvalues
    print(f"\n  {'n':>3} {'plain Hermite':>16} {'warped':>16}")
    for n in range(N):
        print(f"  {n:>3} {E_plain[n]:>16.9f} {E_warp[n]:>16.9f}")
    print(f"\n  trace: {plain.trace:.6f} -> {warped.trace:.6f} "
          f"(drop {plain.trace - warped.trace:.4f})")
    print(f"  learned scale alpha = {params.alpha:.4f}, shift beta = {params.beta:+.4f}")

    save_checkpoint(params, "warp_N5.txt", seed=config.seed)
    trace.write_csv("trace_N5.csv")
    print("\nWrote warp_N5.txt (checkpoint) and trace_N5.csv (loss curve).")


if __name__ == "__main__":
    main()
