"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive part is a full training sweep of the augmented scheme over
N = 5..29 (anharmonic potential, Q = 90, hidden 128, 1 block, lr 1e-3,
500 iterations for N <= 9 and 2000 beyond, per-N seeds = master + N), its
Ns solved by `hermflow.cli.solve_sweep`, as `hermflow sweep` solves them; it
is computed once per session and shared by criteria 4-8.  The criteria read the
program's own results, not copies of its arithmetic: criterion 4 compares the
traces that `solve_sweep` returns, and criteria 5 and 6 read each scheme's
`build_convergence_report` against its own N = 29 spectrum, as
``hermflow analyze --n-ref 29`` builds it.

Notes on what three of the checks can and cannot claim:

* criterion 4 asks that training lowers the trace: the final 10-iteration
  loss median is at or below every earlier one.  It does not ask the medians
  to fall monotonically; Adam at the pinned learning rate 1e-3 (momentum
  0.9) overshoots once after the fast descent (rebound 0.03-0.34 around
  iteration 60-70) and then jitters by ~1e-4 at the optimum.  The count and
  size of those transient rises are printed with the clause.
* criteria 7 and 8 compare against two references: a plain-Hermite spectrum
  at N = 160, Q = 200, whose convergence in states 0-29 is asserted against
  N = 180, and a sinc-DVR spectrum (conftest), which shares no code with the
  solver and is asserted to agree with it to 1e-9 in states 0-29.
  The variational bound promises E_n(trained) >= E_n(exact), not >= the
  eigenvalue of another truncated basis: the plain N = 29 and N = 45
  spectra carry truncation errors of 6e-3..1e+2 in mid- and high-spectrum
  states, which a trained N = 29 warp beats.  Criterion 7 prints the plain
  N = 29 gap as a note.  `demos/04_variational_limit_caveat.py` shows the
  floor failing under an underresolved rule (Q = 40, N = 49).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hermflow import (
    BasisSpec,
    anharmonic_potential,
    assemble_hamiltonian,
    eigh,
    eval_hermite_derivatives,
    eval_hermite_functions,
    flow_forward,
    flow_inverse,
    gauss_hermite_rule,
    harmonic_potential,
    make_trace_loss,
)
from hermflow.analysis import band_average_errors, build_convergence_report
from hermflow.cli import ExperimentConfig, main, read_spectra_csv, solve_sweep
from hermflow.trainer import gradient
from conftest import finite_diff_gradient, make_feasible_params

MASTER_SEED = 0
SWEEP_RANGE = range(5, 30)


def report(number, name, checks):
    """Evaluate [(description, bool)] clauses and print one summary line."""
    ok = all(bool(passed) for _, passed in checks)
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    failed = [desc for desc, passed in checks if not passed]
    if failed:
        line += " -- failed: " + "; ".join(failed)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def rule90():
    return gauss_hermite_rule(90)


@pytest.fixture(scope="module")
def sweep():
    """Both schemes over N = 5..29, solved by `solve_sweep` as `hermflow sweep` solves them
    (one memo of plain blocks per process, and part of the Ns in a child process where this
    one may use two CPUs): spectra, traces of the projected Hamiltonians, loss traces, and
    each augmented case's training time, its loss trace's summed `wall_ms`."""
    results = solve_sweep(ExperimentConfig(potential="anharmonic", Q=90, seed=MASTER_SEED), SWEEP_RANGE)
    failed = [solved for solved in results if isinstance(solved, str)]
    assert not failed, failed
    out = {}
    for N, (herm, aug) in zip(SWEEP_RANGE, results):
        out[N] = dict(aug=aug.eigenvalues, herm=herm.eigenvalues, trace=dict(aug=aug.trace, herm=herm.trace),
                      losses=aug.training.losses, seconds=float(aug.training.wall_ms.sum()) / 1e3)
    return out


@pytest.fixture(scope="module")
def reports(sweep):
    """Each scheme's convergence report against its own N = 29 spectrum, band size 5,
    window states 5-10, as `hermflow analyze --n-ref 29` builds it."""
    return {
        scheme: build_convergence_report(scheme, {N: sweep[N][scheme] for N in SWEEP_RANGE}, 29)
        for scheme in ("herm", "aug")
    }


@pytest.fixture(scope="module")
def converged_reference(sinc_dvr_reference):
    """Plain-Hermite spectrum at N = 160, Q = 200, checked against N = 180 and
    against the sinc-DVR reference, which shares no code with the solver.

    Both matrices are exact: the 200-point rule integrates the plain quartic
    products exactly up to N = Q - 2 = 198 (`galerkin.check_plain_size`).
    """
    V = anharmonic_potential()
    rule = gauss_hermite_rule(200)
    E160, E180 = (
        eigh(assemble_hamiltonian(BasisSpec(M), rule, V).entries).eigenvalues
        for M in (160, 180)
    )
    drift = float(np.abs(E160[:30] - E180[:30]).max())
    assert drift <= 1e-9, f"N=160 reference not converged in states 0-29 (drift {drift:.2e})"
    apart = float(np.abs(E160[:30] - sinc_dvr_reference).max())
    assert apart <= 1e-9, f"N=160 and sinc-DVR references differ by {apart:.2e} in states 0-29"
    return E160


def test_criterion_01_harmonic_sanity():
    tick = time.perf_counter()
    rule = gauss_hermite_rule(40)
    H = assemble_hamiltonian(BasisSpec(10), rule, harmonic_potential())
    E = eigh(H.entries).eigenvalues
    seconds = time.perf_counter() - tick
    err = np.abs(E - (np.arange(10) + 0.5)).max()
    report(
        1,
        "harmonic sanity (N=10, Q=40)",
        [
            (f"eigenvalues match n+1/2 within 1e-8 (err {err:.2e})", err < 1e-8),
            (f"runtime < 1 s (took {seconds:.3f} s)", seconds < 1.0),
        ],
    )


def test_criterion_02_gradient_oracle():
    rng = np.random.default_rng(2024)
    rule = gauss_hermite_rule(30)
    loss = make_trace_loss(5, rule, anharmonic_potential())
    alpha = 1.05 * float(np.abs(rule.nodes).max())
    worst = 0.0
    for _ in range(10):
        params = make_feasible_params(
            128, alpha, float(rng.uniform(-0.2, 0.2)), rng, weight_scale=0.8, bias_scale=0.3
        )
        _, grad = gradient(loss, params)
        fd = finite_diff_gradient(loss, params, 1e-6)
        mag = np.maximum(np.abs(grad), np.abs(fd))
        mask = mag > 1e-8
        worst = max(worst, float((np.abs(grad - fd)[mask] / mag[mask]).max()))
    report(
        2,
        "trace-loss gradient vs central differences (10 draws, N=5, Q=30)",
        [(f"max relative discrepancy {worst:.2e} <= 1e-5", worst <= 1e-5)],
    )


def test_criterion_03_reduction_equivalence(rule90):
    N = 20
    V = anharmonic_potential()
    H = assemble_hamiltonian(BasisSpec(N), rule90, V).entries  # identity warp
    phi = eval_hermite_functions(N - 1, rule90.nodes)
    dphi = eval_hermite_derivatives(N - 1, rule90.nodes)
    w = rule90.lifted_weights
    Vm = (phi * (w * V(rule90.nodes))) @ phi.T
    B = dphi * np.sqrt(w)
    Tm = 0.5 * B @ B.T
    Htext = Tm + Vm
    Htext = 0.5 * (Htext + Htext.T)
    diff = np.abs(H - Htext).max()
    report(
        3,
        "identity-warp assembly equals plain Hermite assembly (N=20, Q=90)",
        [(f"entrywise difference {diff:.2e} <= 1e-14", diff <= 1e-14)],
    )


def test_criterion_04_training_trend(sweep):
    checks = []
    for N in range(5, 10):
        case = sweep[N]
        losses = case["losses"]
        margin = case["trace"]["herm"] - case["trace"]["aug"]  # traces of the final matrices
        checks.append((f"N={N}: final augmented trace below Hermite trace", margin > 0))
        if N == 5:
            checks.append((f"N=5 margin {margin:.3e} >= 1e-3", margin >= 1e-3))
        medians = np.array(
            [np.median(losses[i : i + 10]) for i in range(0, losses.size, 10)]
        )
        steps = np.diff(medians)
        final_margin = medians[:-1].min() - medians[-1]
        checks.append(
            (
                f"N={N}: final 10-iteration median <= every earlier one (margin "
                f"{final_margin:.2e}; {int((steps > 0).sum())} transient increases, "
                f"max +{max(steps.max(), 0):.2e})",
                final_margin >= 0,
            )
        )
        checks.append(
            (f"N={N}: runtime {case['seconds']:.1f} s < 5 min", case["seconds"] < 300.0)
        )
    report(4, "training lowers the trace (N=5..9, 500 iterations)", checks)


def test_criterion_05_band_error_trend(reports):
    errors = {
        scheme: [float(report.band_errors[N][0]) for N in (5, 10, 15, 20, 25)]
        for scheme, report in reports.items()
    }
    checks = []
    for scheme in ("herm", "aug"):
        e = errors[scheme]
        checks.append(
            (f"{scheme}: band-1 error decreases monotonically {['%.1e' % v for v in e]}",
             all(e[i + 1] < e[i] for i in range(len(e) - 1))),
        )
    checks.append(
        ("augmented error <= Hermite error at each N",
         all(a <= h for a, h in zip(errors["aug"], errors["herm"]))),
    )
    report(5, "band-1 average error vs own N=29 reference", checks)


def test_invariant_band_ordering_at_small_n(reports):
    # after training, the warped band-1 error never exceeds the plain one
    # at any of the small basis sizes either
    for N in range(5, 10):
        assert reports["aug"].band_errors[N][0] <= reports["herm"].band_errors[N][0]


def test_invariant_band_ordering_at_three_seeds(sweep, converged_reference):
    # the same ordering at master seeds 0 (the sweep's), 1 and 2, per-N seeds master + N, with
    # both band-1 errors measured against the converged N = 160 reference; 5,000 Adam steps
    config, Ns = ExperimentConfig(potential="anharmonic", Q=90), range(5, 10)
    spectra = {(0, N): sweep[N]["aug"] for N in Ns}
    for master in (1, 2):
        results = solve_sweep(replace(config, seed=master, scheme="augmented"), Ns)
        assert not [solved for solved in results if isinstance(solved, str)], results
        spectra.update(((master, N), aug.eigenvalues) for N, (aug,) in zip(Ns, results))
    errors = {}
    for N in Ns:
        plain = band_average_errors(sweep[N]["herm"], converged_reference, 5)[0]
        for master in (0, 1, 2):
            errors[master, N] = (band_average_errors(spectra[master, N], converged_reference, 5)[0], plain)
    print("band-1 error, augmented / plain, at (master seed, N):",
          {key: f"{aug:.1e} / {plain:.1e}" for key, (aug, plain) in errors.items()})
    above = [key for key, (aug, plain) in errors.items() if not aug <= plain]
    assert not above, f"augmented band-1 error above the plain one at (master seed, N) = {above}"


def test_criterion_06_convergence_rate_fits(reports):
    (herm_slope, herm_int), (aug_slope, aug_int) = reports["herm"].fit, reports["aug"].fit
    defined = {
        scheme: sorted((N, e) for N, e in report.rates.items() if math.isfinite(e))
        for scheme, report in reports.items()
    }
    grid = np.array([N for N, _ in defined["herm"]])
    aug_line = aug_slope * grid + aug_int
    herm_line = herm_slope * grid + herm_int
    aug_below = bool(np.all(aug_line <= herm_line))
    aug_mean_lower = float(np.mean([e for _, e in defined["aug"]])) < float(
        np.mean([e for _, e in defined["herm"]])
    )
    report(
        6,
        "error-ratio regression (states 5-10 sum, N=10..29)",
        [
            (f"hermite fitted slope {herm_slope:.4f} < 0", herm_slope < 0),
            (f"augmented fitted slope {aug_slope:.4f} < 0", aug_slope < 0),
            (
                "augmented fit below Hermite fit over the common range, or lower mean ratios",
                aug_below or aug_mean_lower,
            ),
        ],
    )


def test_criterion_07_cross_scheme_reference_discrepancy(sweep, converged_reference, sinc_dvr_reference):
    references = {"Hermite N=160": converged_reference, "sinc DVR": sinc_dvr_reference}
    plain = np.abs(sweep[29]["herm"][5:11] - converged_reference[5:11])
    print(
        "[criterion 07 note] plain N=29 gap to the converged limit, states 5-10: "
        + " ".join(f"{d:.2e}" for d in plain)
    )
    report(
        7,
        "augmented N_ref=29 reference vs converged limits, states 5-10",
        [
            (
                f"state {5 + i} vs {name}: |E*_augmented - E_converged| = {d:.2e} <= 5e-3",
                d <= 5e-3,
            )
            for name, limit in references.items()
            for i, d in enumerate(np.abs(sweep[29]["aug"][5:11] - limit[5:11]))
        ],
    )


def test_criterion_08_variational_floor(sweep, converged_reference, sinc_dvr_reference):
    worst = 0.0
    worst_at = (None, None, None)
    for name, reference in {"Hermite": converged_reference, "sinc DVR": sinc_dvr_reference}.items():
        for N in SWEEP_RANGE:
            gap = sweep[N]["aug"] - reference[:N]
            if gap.min() < worst:
                worst = float(gap.min())
                worst_at = (N, int(np.argmin(gap)), name)
    report(
        8,
        "trained eigenvalues vs converged N=160 Hermite and sinc-DVR references (Q=90, N<=29)",
        [
            (
                f"no eigenvalue below reference - 1e-6 (worst {worst:.3e} at N={worst_at[0]}, "
                f"n={worst_at[1]}, {worst_at[2]})",
                worst >= -1e-6,
            )
        ],
    )


def test_criterion_09_flow_round_trip():
    rng = np.random.default_rng(99)
    alpha = 9.0
    worst = 0.0
    for _ in range(20):
        params = make_feasible_params(
            16, alpha, float(rng.uniform(-0.4, 0.4)), rng, weight_scale=0.95, bias_scale=0.6
        )
        xs = rng.uniform(params.beta - 0.95 * alpha, params.beta + 0.95 * alpha, size=1000)
        back = flow_inverse(params, flow_forward(params, xs))
        worst = max(worst, float(np.abs(back - xs).max()))
    report(
        9,
        "flow inverse round trip (20 draws x 1000 points)",
        [(f"max |G^-1(G(x)) - x| = {worst:.2e} <= 1e-10", worst <= 1e-10)],
    )


def test_criterion_10_quadrature_correctness():
    worst_even = 0.0
    worst_odd = 0.0
    for Q in range(1, 91):
        rule = gauss_hermite_rule(Q)
        for k in range(2 * Q):
            terms = rule.weights * rule.nodes**k
            total = terms.sum()
            if k % 2:
                scale = float(np.abs(terms).sum())
                if scale > 0:
                    worst_odd = max(worst_odd, abs(total) / scale)
            else:
                exact = math.gamma((k + 1) / 2)
                worst_even = max(worst_even, abs(total - exact) / exact)
    rule90 = gauss_hermite_rule(90)
    oracle_nodes, _ = np.polynomial.hermite.hermgauss(90)
    node_err = float(np.abs(rule90.nodes - oracle_nodes).max())
    sum_err = abs(rule90.weights.sum() - np.sqrt(np.pi)) / np.sqrt(np.pi)
    report(
        10,
        "Gauss-Hermite rules Q=1..90",
        [
            (f"even moments exact to {worst_even:.2e} (rel, <= 1e-11)", worst_even <= 1e-11),
            (f"odd moments cancel to {worst_odd:.2e} of their mass", worst_odd <= 1e-11),
            (f"Q=90 node positions match oracle to {node_err:.2e}", node_err <= 1e-12),
            (f"Q=90 weight sum off sqrt(pi) by {sum_err:.2e} (rel)", sum_err <= 1e-12),
        ],
    )


def test_criterion_11_sweep_determinism(tmp_path):
    args = [
        "sweep", "--potential", "anharmonic", "--scheme", "both", "--N-range", "3..4",
        "--Q", "30", "--hidden", "8", "--iterations", "40", "--seed", "11",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(args + ["--output-dir", str(out1)])
    code2 = main(args + ["--output-dir", str(out2)])
    same_spectra = (out1 / "spectra.csv").read_bytes() == (out2 / "spectra.csv").read_bytes()
    same_manifest = (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    data = read_spectra_csv(out1 / "spectra.csv")
    report(
        11,
        "byte-identical sweep reruns (identical config and seed)",
        [
            ("both sweeps exit 0", code1 == 0 and code2 == 0),
            ("spectra CSVs byte-identical", same_spectra),
            ("manifests byte-identical", same_manifest),
            ("both schemes present in output", set(data) == {"hermite", "augmented"}),
        ],
    )
