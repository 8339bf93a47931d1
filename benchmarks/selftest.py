"""Shows that each correctness check of the benchmark rejects a corrupted output.

    python3 benchmarks/selftest.py

For every check in `checks.py`, a genuine output from hermflow must pass and
a corrupted copy must raise `CheckFailed`.  Prints one line per case and
exits 1 if any genuine output is rejected or any corrupted one accepted.
"""

from __future__ import annotations

import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import hermflow  # noqa: E402
import reference  # noqa: E402
from workloads import Evaluate  # noqa: E402


def plain_levels(N, Q=90, potential=None):
    potential = potential or hermflow.anharmonic_potential()
    H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(N), hermflow.gauss_hermite_rule(Q), potential)
    return hermflow.eigh(H.entries).eigenvalues


def warped_levels(params, N=5, Q=90):
    H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(N), hermflow.gauss_hermite_rule(Q),
                                      hermflow.anharmonic_potential(), params)
    return hermflow.eigh(H.entries).eigenvalues


def case(label, check, genuine, corrupted) -> bool:
    """`genuine` and `corrupted` are argument tuples for `check`."""
    try:
        check(*genuine)
    except checks.CheckFailed as exc:
        print(f"FAIL  {label}: the genuine output is rejected: {exc}")
        return False
    try:
        check(*corrupted)
    except checks.CheckFailed as exc:
        print(f"ok    {label}: rejected ({exc})")
        return True
    print(f"FAIL  {label}: the corrupted output is accepted")
    return False


def main() -> int:
    fd, href = reference.load_reference()
    results = []

    levels = plain_levels(9)
    low = levels.copy()
    low[3] = fd[3] - 1e-5
    results.append(case("eigenvalue pushed 1e-5 below the reference", checks.floor,
                        ("N=9", levels, fd), ("N=9", low, fd)))

    results.append(case("manifest with a failed N", checks.manifest_complete,
                        ({"completed": [5, 6, 7, 8, 9], "failed": {}}, range(5, 10)),
                        ({"completed": [5, 6, 7, 9], "failed": {"8": "TrainingAborted: loss is nan"}},
                         range(5, 10))))

    params, _ = hermflow.train(hermflow.TrainingConfig(N=5, iterations=20, seed=3), hermflow.anharmonic_potential())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.txt"
        hermflow.save_checkpoint(params, path, seed=3)
        reloaded = warped_levels(hermflow.load_checkpoint(path)[0])
        lines = path.read_text(encoding="utf-8").splitlines()
        body = lines.index("params:") + 1
        lossy = lines[:body] + [f"{float(v):.12g}" for v in lines[body:]]  # 12 significant digits
        path.write_text("\n".join(lossy) + "\n", encoding="utf-8")
        lossy_levels = warped_levels(hermflow.load_checkpoint(path)[0])
    results.append(case("checkpoint that does not round-trip (weights kept to 12 digits)", checks.bitwise,
                        ("reload", reloaded, warped_levels(params)),
                        ("reload", lossy_levels, warped_levels(params))))

    harmonic = plain_levels(40, potential=hermflow.harmonic_potential())
    off = harmonic.copy()
    off[7] += 1e-6
    results.append(case("harmonic level off by 1e-6", checks.harmonic_levels, (harmonic,), (off,)))

    warp = Evaluate.random_warp(np.random.default_rng(0))
    y, spacing = Evaluate.grid(warp)
    basis = hermflow.evaluate_augmented_basis(warp, 28, y)
    mixed = basis.copy()
    mixed[3] += 1e-6 * basis[4]
    results.append(case("warped basis with a perturbed Gram matrix", checks.orthonormal,
                        ("warp", basis, spacing), ("warp", mixed, spacing)))

    back = hermflow.flow_forward(warp, hermflow.flow_inverse(warp, y))
    results.append(case("inverse that misses y by 1e-8", checks.roundtrip,
                        ("warp", y, back), ("warp", y, back + 1e-8)))

    plain = {N: plain_levels(N) for N in range(5, 10)}
    risen = {**plain, 8: plain[8].copy()}
    risen[8][2] = plain[7][2] + 1e-8
    results.append(case("plain level that rises with N", checks.interlacing, (plain,), (risen,)))

    trained = {N: warped_levels(params, N) for N in range(5, 10)}
    results.append(case("trained trace above the plain one", checks.trained_below_plain,
                        (trained, plain), ({**trained, 7: plain[7] + 1e-9}, plain)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Q = 200 > 100 and Q < 2N + 10 warn by design
        n60, n160, n180 = (plain_levels(N, 200)[:30] for N in (60, 160, 180))
    results.append(case("unconverged reference (N=60 in place of N=160)", checks.agree,
                        ("N=160 vs N=180", n160, n180, checks.CONVERGED_TOL),
                        ("N=60 vs N=180", n60, n180, checks.CONVERGED_TOL)))

    print(f"{sum(results)} of {len(results)} checks reject their corrupted output")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
