import math
import warnings

import numpy as np
import pytest

from hermflow import (
    BasisSpec,
    Potential,
    anharmonic_potential,
    assemble_hamiltonian,
    eigh,
    eval_hermite_derivatives,
    eval_hermite_functions,
    flow_forward,
    gauss_hermite_rule,
    harmonic_potential,
    init_flow_params,
    kinetic_matrix,
    overlap_matrix,
    potential_from_descriptor,
    potential_matrix,
)
from hermflow.galerkin import AssemblyError, MonotonicityError
from conftest import make_feasible_params


def harmonic_x2_matrix(N):
    """Oracle: matrix of x^2/2 from ladder-operator algebra."""
    M = np.zeros((N, N))
    for n in range(N):
        M[n, n] = n / 2 + 0.25
        if n + 2 < N:
            M[n, n + 2] = M[n + 2, n] = np.sqrt((n + 1) * (n + 2)) / 4
    return M


class TestPotentialMatrix:
    def test_harmonic_band_structure(self):
        rule = gauss_hermite_rule(20)
        M = potential_matrix(BasisSpec(4), rule, harmonic_potential())
        np.testing.assert_allclose(M, harmonic_x2_matrix(4), atol=1e-13)
        assert M[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_quartic_ground_state_entry(self):
        rule = gauss_hermite_rule(20)
        quartic = Potential(lambda x: 0.25 * (x * x) * (x * x), "x^4/4")
        M = potential_matrix(BasisSpec(3), rule, quartic)
        assert M[0, 0] == pytest.approx(3.0 / 16.0, rel=1e-13)

    def test_random_flow_vs_trapezoid_oracle(self, rng):
        rule = gauss_hermite_rule(90)
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        V = anharmonic_potential()
        for _ in range(5):
            params = make_feasible_params(
                8, alpha, float(rng.uniform(-0.2, 0.2)), rng, weight_scale=0.9, bias_scale=0.4
            )
            M = potential_matrix(BasisSpec(8), rule, V, params)
            grid = np.linspace(
                params.beta - 0.999 * alpha, params.beta + 0.999 * alpha, 120_001
            )
            from hermflow import evaluate_augmented_basis

            phiA = evaluate_augmented_basis(params, 7, grid)
            oracle = np.trapezoid(
                phiA[:, None, :] * V(grid)[None, None, :] * phiA[None, :, :], grid, axis=2
            )
            assert np.abs(M - oracle).max() < 1e-6

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_nonfinite_potential_names_node(self):
        rule = gauss_hermite_rule(5)  # odd order has a node at x = 0
        bad = Potential(lambda x: np.where(np.abs(x) < 1e-12, np.inf, x), "1/x-ish")
        with pytest.raises(AssemblyError, match="node"):
            potential_matrix(BasisSpec(3), rule, bad)

    def test_quadrature_below_basis_rejected(self):
        with pytest.raises(ValueError):
            potential_matrix(BasisSpec(10), gauss_hermite_rule(9), harmonic_potential())

    def test_warns_when_underresolved(self):
        with pytest.warns(UserWarning, match="underresolved"):
            potential_matrix(BasisSpec(10), gauss_hermite_rule(15), harmonic_potential())


class TestKineticMatrix:
    def test_ground_state_energy(self):
        rule = gauss_hermite_rule(20)
        T = kinetic_matrix(BasisSpec(4), rule)
        assert T[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_harmonic_oscillator_spectrum(self):
        rule = gauss_hermite_rule(40)
        spec = BasisSpec(10)
        H = kinetic_matrix(spec, rule) + potential_matrix(spec, rule, harmonic_potential())
        E = np.linalg.eigvalsh(0.5 * (H + H.T))
        np.testing.assert_allclose(E, np.arange(10) + 0.5, atol=1e-10)

    def test_random_flow_vs_grid_derivative_oracle(self, rng):
        # 1/2 int (phi_i^aug)' (phi_j^aug)' dx with centered differences on a grid
        rule = gauss_hermite_rule(90)
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        params = make_feasible_params(8, alpha, 0.1, rng, weight_scale=0.9, bias_scale=0.4)
        T = kinetic_matrix(BasisSpec(6), rule, params)
        from hermflow import evaluate_augmented_basis

        grid = np.linspace(params.beta - 0.995 * alpha, params.beta + 0.995 * alpha, 160_001)
        h = 1e-5
        dphiA = (
            evaluate_augmented_basis(params, 5, grid + h)
            - evaluate_augmented_basis(params, 5, grid - h)
        ) / (2 * h)
        oracle = 0.5 * np.trapezoid(dphiA[:, None, :] * dphiA[None, :, :], grid, axis=2)
        assert np.abs(T - oracle).max() < 1e-5

    def test_clipped_warp_raises_monotonicity_error(self):
        # alpha smaller than the node range puts outer nodes on the clipped
        # plateau where G' = 0 exactly
        rule = gauss_hermite_rule(30)
        params = init_flow_params(hidden=4, alpha=1.0, seed=0)
        with pytest.raises(MonotonicityError):
            kinetic_matrix(BasisSpec(4), rule, params)


class TestAssembleHamiltonian:
    def test_harmonic_diagonal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            H = assemble_hamiltonian(BasisSpec(6), gauss_hermite_rule(20), harmonic_potential())
        np.testing.assert_allclose(H.entries, np.diag(np.arange(6) + 0.5), atol=1e-12)
        assert H.scheme == "hermite"
        assert H.size == 6

    def test_exactly_symmetric(self, rng):
        rule = gauss_hermite_rule(90)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.0, rng)
        H = assemble_hamiltonian(BasisSpec(12), rule, anharmonic_potential(), params).entries
        assert np.array_equal(H, H.T)

    def test_identity_value_matches_textbook_assembly(self):
        # params=None must coincide with the direct Hermite-basis formulas
        rule = gauss_hermite_rule(90)
        N = 20
        V = anharmonic_potential()
        H = assemble_hamiltonian(BasisSpec(N), rule, V).entries
        phi = eval_hermite_functions(N - 1, rule.nodes)
        dphi = eval_hermite_derivatives(N - 1, rule.nodes)
        w = rule.lifted_weights
        Vm = (phi * (w * V(rule.nodes))) @ phi.T
        B = dphi * np.sqrt(w)
        Tm = 0.5 * B @ B.T
        Htext = Tm + Vm
        Htext = 0.5 * (Htext + Htext.T)
        assert np.abs(H - Htext).max() <= 1e-14

    def test_identity_value_within_4_ulps_of_exact_sums(self):
        # independent of the summation order: each entry against the exactly
        # rounded sum of its quadrature terms
        rule = gauss_hermite_rule(90)
        N = 20
        V = anharmonic_potential()
        H = assemble_hamiltonian(BasisSpec(N), rule, V).entries
        phi = eval_hermite_functions(N - 1, rule.nodes)
        dphi = eval_hermite_derivatives(N - 1, rule.nodes)
        w = rule.lifted_weights
        wv = w * V(rule.nodes)
        exact = np.array(
            [
                [math.fsum(np.concatenate((0.5 * dphi[i] * dphi[j] * w, phi[i] * phi[j] * wv)))
                 for j in range(N)]
                for i in range(N)
            ]
        )
        scale = np.abs(H).max()
        assert np.abs(H - exact).max() <= 4 * np.spacing(scale)

    def test_one_table_per_assembly(self, monkeypatch, rng):
        from hermflow import galerkin

        calls = {"functions": 0, "derivatives": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            galerkin, "eval_hermite_functions", counted("functions", galerkin.eval_hermite_functions)
        )
        monkeypatch.setattr(
            galerkin,
            "eval_hermite_derivatives",
            counted("derivatives", galerkin.eval_hermite_derivatives),
        )
        rule = gauss_hermite_rule(90)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        assemble_hamiltonian(BasisSpec(12), rule, anharmonic_potential(), params)
        assert calls == {"functions": 1, "derivatives": 0}

    def test_parts_exactly_symmetric_on_a_warp(self, rng):
        rule = gauss_hermite_rule(90)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        T = kinetic_matrix(BasisSpec(12), rule, params)
        S, _ = overlap_matrix(BasisSpec(12), rule, params)
        assert np.array_equal(T, T.T)
        assert np.array_equal(S, S.T)

    @pytest.mark.parametrize("fault", ["asymmetric", "nan"])
    def test_asymmetry_check_catches_faults(self, monkeypatch, fault):
        from hermflow import galerkin

        real = galerkin._potential_part

        def faulty(*args):
            M = real(*args)
            if fault == "nan":
                M[0, 0] = np.nan
            else:
                M[0, 1] += 1e-6
            return M

        monkeypatch.setattr(galerkin, "_potential_part", faulty)
        with pytest.raises(AssemblyError, match="asymmetry"):
            assemble_hamiltonian(BasisSpec(6), gauss_hermite_rule(30), harmonic_potential())

    def test_equals_sum_of_kinetic_and_potential_matrices(self, rng):
        # the shared jets and tables give bit for bit what the two parts give alone
        rule = gauss_hermite_rule(90)
        V = anharmonic_potential()
        for params in (None, make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)):
            H = assemble_hamiltonian(BasisSpec(12), rule, V, params).entries
            parts = kinetic_matrix(BasisSpec(12), rule, params) + potential_matrix(
                BasisSpec(12), rule, V, params
            )
            assert np.array_equal(H, 0.5 * (parts + parts.T))

    def test_zero_weight_network_reduces_numerically(self):
        # an all-zero residual runs the actual tanh/atanh sandwich; reduction
        # then holds to transcendental-roundtrip accuracy, not bitwise
        rule = gauss_hermite_rule(90)
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        params = init_flow_params(hidden=128, alpha=alpha, seed=1)
        H_aug = assemble_hamiltonian(BasisSpec(20), rule, anharmonic_potential(), params)
        H_plain = assemble_hamiltonian(BasisSpec(20), rule, anharmonic_potential())
        assert H_aug.scheme == "augmented"
        assert np.abs(H_aug.entries - H_plain.entries).max() < 1e-9

    def test_anharmonic_trace_bounded_below_by_harmonic(self):
        rule = gauss_hermite_rule(90)
        H = assemble_hamiltonian(BasisSpec(30), rule, anharmonic_potential())
        trace = np.trace(H.entries)
        assert np.isfinite(trace)
        assert trace >= sum(n + 0.5 for n in range(30))

    def test_warns_below_2n_plus_10(self):
        with pytest.warns(UserWarning, match="variational"):
            assemble_hamiltonian(BasisSpec(20), gauss_hermite_rule(45), harmonic_potential())


class TestOverlapMatrix:
    def test_resolved_is_identity(self):
        S, dev = overlap_matrix(BasisSpec(20), gauss_hermite_rule(40))
        assert dev < 1e-10
        assert np.abs(S - np.eye(20)).max() == dev

    def test_underresolved_reports_without_raising(self):
        S, dev = overlap_matrix(BasisSpec(20), gauss_hermite_rule(10))
        assert dev > 1e-6
        assert S.shape == (20, 20)

    def test_default_production_orders(self):
        _, dev = overlap_matrix(BasisSpec(30), gauss_hermite_rule(90))
        assert dev < 1e-10

    def test_flow_independent(self, rng):
        rule = gauss_hermite_rule(40)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.0, rng)
        S0, _ = overlap_matrix(BasisSpec(10), rule)
        S1, _ = overlap_matrix(BasisSpec(10), rule, params)
        assert np.array_equal(S0, S1)


class TestPotentialDerivative:
    def test_builtins_match_central_differences(self):
        x = np.linspace(-6.0, 6.0, 25)
        h = 1e-5
        for V in (harmonic_potential(), anharmonic_potential()):
            fd = (V(x + h) - V(x - h)) / (2 * h)
            np.testing.assert_allclose(V.derivative(x), fd, rtol=1e-8, atol=1e-8)


class TestPotentialDescriptors:
    def test_known_names(self):
        assert "anharmonic" in anharmonic_potential().descriptor
        assert potential_from_descriptor("harmonic")(2.0) == pytest.approx(2.0)
        assert potential_from_descriptor("anharmonic")(1.0) == pytest.approx(0.75)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            potential_from_descriptor("lennard-jones")
