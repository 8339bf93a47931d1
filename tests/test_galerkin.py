import dataclasses
import itertools
import math

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
    potential_from_descriptor,
)
from hermflow import galerkin
from hermflow.galerkin import AssemblyError, MonotonicityError, check_plain_size
from conftest import make_feasible_params


def harmonic_x2_matrix(N):
    """Oracle: matrix of x^2/2 from ladder-operator algebra."""
    M = np.zeros((N, N))
    for n in range(N):
        M[n, n] = n / 2 + 0.25
        if n + 2 < N:
            M[n, n + 2] = M[n + 2, n] = np.sqrt((n + 1) * (n + 2)) / 4
    return M


def assembled_parts(monkeypatch, spec, rule, V, params=None):
    """The kinetic and potential matrices that `assemble_hamiltonian` adds, before it symmetrizes."""
    parts = {}
    for name in ("_kinetic_part", "_potential_part"):

        def spy(*args, name=name, real=getattr(galerkin, name)):
            parts[name] = real(*args)
            return parts[name]

        monkeypatch.setattr(galerkin, name, spy)
    assemble_hamiltonian(spec, rule, V, params)
    return parts["_kinetic_part"], parts["_potential_part"]


class TestPotentialMatrix:
    def test_harmonic_band_structure(self, monkeypatch):
        rule = gauss_hermite_rule(20)
        _, M = assembled_parts(monkeypatch, BasisSpec(4), rule, harmonic_potential())
        np.testing.assert_allclose(M, harmonic_x2_matrix(4), atol=1e-13)
        assert M[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_quartic_ground_state_entry(self, monkeypatch):
        rule = gauss_hermite_rule(20)
        quartic = Potential((0.0, 0.0, 0.0, 0.0, 0.25), "x^4/4")
        _, M = assembled_parts(monkeypatch, BasisSpec(3), rule, quartic)
        assert M[0, 0] == pytest.approx(3.0 / 16.0, rel=1e-13)

    def test_random_flow_vs_trapezoid_oracle(self, rng, monkeypatch):
        rule = gauss_hermite_rule(90)
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        V = anharmonic_potential()
        for _ in range(5):
            params = make_feasible_params(
                8, alpha, float(rng.uniform(-0.2, 0.2)), rng, weight_scale=0.9, bias_scale=0.4
            )
            _, M = assembled_parts(monkeypatch, BasisSpec(8), rule, V, params)
            grid = np.linspace(
                params.beta - 0.999 * alpha, params.beta + 0.999 * alpha, 120_001
            )
            from hermflow import evaluate_augmented_basis

            phiA = evaluate_augmented_basis(params, 7, grid)
            oracle = np.trapezoid(
                phiA[:, None, :] * V(grid)[None, None, :] * phiA[None, :, :], grid, axis=2
            )
            assert np.abs(M - oracle).max() < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_potential_names_node(self):
        rule = gauss_hermite_rule(5)  # nodes 0, +-0.96, +-2.02: x^4 > 1 at the outer two
        bad = Potential((0.0, 0.0, 0.0, 0.0, 1e308), "overflowing quartic")
        with pytest.raises(AssemblyError, match="node"):
            assemble_hamiltonian(BasisSpec(3), rule, bad)

    def test_quadrature_below_basis_rejected(self):
        with pytest.raises(ValueError):
            assemble_hamiltonian(BasisSpec(10), gauss_hermite_rule(9), harmonic_potential())


class TestKineticMatrix:
    def test_ground_state_energy(self, monkeypatch):
        rule = gauss_hermite_rule(20)
        T, _ = assembled_parts(monkeypatch, BasisSpec(4), rule, harmonic_potential())
        assert T[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_harmonic_oscillator_spectrum(self):
        rule = gauss_hermite_rule(40)
        spec = BasisSpec(10)
        H = assemble_hamiltonian(spec, rule, harmonic_potential()).entries
        E = np.linalg.eigvalsh(H)
        np.testing.assert_allclose(E, np.arange(10) + 0.5, atol=1e-10)

    def test_random_flow_vs_grid_derivative_oracle(self, rng, monkeypatch):
        # 1/2 int (phi_i^aug)' (phi_j^aug)' dx with centered differences on a grid
        rule = gauss_hermite_rule(90)
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        params = make_feasible_params(8, alpha, 0.1, rng, weight_scale=0.9, bias_scale=0.4)
        T, _ = assembled_parts(monkeypatch, BasisSpec(6), rule, anharmonic_potential(), params)
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
            assemble_hamiltonian(BasisSpec(4), rule, harmonic_potential(), params)


class TestAssembleHamiltonian:
    def test_harmonic_diagonal(self):
        H = assemble_hamiltonian(BasisSpec(6), gauss_hermite_rule(20), harmonic_potential())
        np.testing.assert_allclose(H.entries, np.diag(np.arange(6) + 0.5), atol=1e-12)
        assert H.scheme == "hermite"
        assert H.size == 6

    def test_exactly_symmetric(self, rng):
        rule = gauss_hermite_rule(90)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.0, rng)
        H = assemble_hamiltonian(BasisSpec(12), rule, anharmonic_potential(), params).entries
        assert np.array_equal(H, H.T)

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

    def test_no_table_built_per_assembly(self, request, rng):
        rule = gauss_hermite_rule(90)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        calls = request.getfixturevalue("table_builds")  # counts from here on
        assemble_hamiltonian(BasisSpec(12), rule, anharmonic_potential(), params)
        assemble_hamiltonian(BasisSpec(12), rule, anharmonic_potential())
        assert calls == {"functions": 0, "derivatives": 0}  # the rule's table serves

    def test_plain_ladder_equals_assembly_from_a_fresh_table(self):
        # slicing the rule's tables, and leaving out the jets of the identity warp, changes
        # no bit of a plain-Hermite matrix (signed zeros included) or spectrum, for every N
        # up to the exactness bound Q - max(d, 2)//2 (capped at 180)
        from hermflow.galerkin import _kinetic_part, _potential_part
        from hermflow.hermite import hermite_derivatives_from_table

        for V, Q in itertools.product((harmonic_potential(), anharmonic_potential()), (40, 90, 200)):
            rule = gauss_hermite_rule(Q)
            ones, zeros = np.ones(Q), np.zeros(Q)
            for N in range(1, min(Q - V.degree // 2, 180) + 1):
                table = eval_hermite_functions(N, rule.nodes)
                phi, dphi = table[:-1], hermite_derivatives_from_table(table)
                H = _kinetic_part(rule, phi, dphi, ones, zeros) + _potential_part(
                    rule, phi, V, rule.nodes
                )
                H = 0.5 * (H + H.T)
                got = assemble_hamiltonian(BasisSpec(N), rule, V).entries
                assert np.array_equal(got.view(np.int64), H.view(np.int64)), (Q, N)
                if N % 13 == 1:
                    np.testing.assert_array_equal(eigh(got).eigenvalues, eigh(H).eigenvalues)

    def test_parts_exactly_symmetric_on_a_warp(self, rng, monkeypatch):
        rule = gauss_hermite_rule(90)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        T, _ = assembled_parts(monkeypatch, BasisSpec(12), rule, anharmonic_potential(), params)
        assert np.array_equal(T, T.T)

    @pytest.mark.parametrize("fault", ["asymmetric", "nan"])
    def test_asymmetry_check_catches_faults(self, monkeypatch, fault):
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

    def test_warns_below_2n_plus_10(self, rng):
        # a warped integrand is not polynomial: below Q = 2N + 10 a warped assembly warns, and
        # the plain scheme's exactness bound does not apply to it (N = Q is assembled)
        for Q in (45, 20):
            rule = gauss_hermite_rule(Q)
            params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.0, rng)
            with pytest.warns(UserWarning, match="variational"):
                assert assemble_hamiltonian(BasisSpec(20), rule, anharmonic_potential(), params).size == 20


class TestPlainExactnessBound:
    """A plain matrix is exact for N <= Q - max(d, 2)//2, and a larger N is refused."""

    def test_bound_follows_the_degree(self):
        for coefficients, limit in (((1.0,), 39), ((0.0, 0.3), 39), ((0.0, 0.0, 0.5), 39),
                                    ((0.0, 1.0, 0.0, 1.0), 39), ((0.0, 0.0, 0.5, 0.0, 0.25), 38)):
            V = Potential(coefficients, "V")
            check_plain_size(limit, 40, V)
            with pytest.raises(ValueError, match=f"exceeds {limit}, the largest that the Q = 40 rule"):
                check_plain_size(limit + 1, 40, V)

    @pytest.mark.parametrize("Q", [10, 40, 90, 200])
    def test_harmonic_levels_exact_up_to_the_bound(self, Q):
        # n + 1/2 to rounding at N = Q - 1 (1.2e-12 at Q = 200, 6e-15 of the top level); at
        # N = Q the rule misses phi_{Q-1}'^2, and one level fell 1.0 below n + 1/2
        rule, V = gauss_hermite_rule(Q), harmonic_potential()
        E = eigh(assemble_hamiltonian(BasisSpec(Q - 1), rule, V).entries).eigenvalues
        assert np.abs(E - (np.arange(Q - 1) + 0.5)).max() <= 1e-14 * (Q - 0.5)
        with pytest.raises(ValueError, match=f"N = {Q} exceeds {Q - 1}"):
            assemble_hamiltonian(BasisSpec(Q), rule, V)

    @pytest.mark.parametrize("Q", [10, 40, 90])
    def test_anharmonic_bound(self, Q):
        # at Q = 10, 40, 90, N = Q - 1 and N = Q gave a level 0.04 - 3.8 below the converged spectrum
        rule, V = gauss_hermite_rule(Q), anharmonic_potential()
        assert assemble_hamiltonian(BasisSpec(Q - 2), rule, V).size == Q - 2
        for N in (Q - 1, Q):
            with pytest.raises(ValueError, match=f"N = {N} exceeds {Q - 2}"):
                assemble_hamiltonian(BasisSpec(N), rule, V)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_parity_blocks_follow_the_bound_of_n(self, parity):
        rule = gauss_hermite_rule(40)
        for V, limit in ((harmonic_potential(), 39), (anharmonic_potential(), 38)):
            assert assemble_hamiltonian(BasisSpec(limit, parity), rule, V).size == len(range(parity, limit, 2))
            with pytest.raises(ValueError, match=f"exceeds {limit}"):
                assemble_hamiltonian(BasisSpec(limit + 1, parity), rule, V)


class TestParityBlocks:
    def test_even_potentials(self):
        assert harmonic_potential().is_even and anharmonic_potential().is_even
        assert not Potential((0.0, 0.1, 0.5), "0.1*x + 0.5*x^2").is_even

    @pytest.mark.parametrize("Q", [90, 200])
    def test_cross_parity_entries_are_rounding(self, Q):
        # the largest is 6.6e-15 max |H|, for every N up to the exactness bound (capped at 180)
        rule = gauss_hermite_rule(Q)
        for V in (harmonic_potential(), anharmonic_potential()):
            for N in range(1, min(Q - V.degree // 2, 180) + 1):
                H = assemble_hamiltonian(BasisSpec(N), rule, V).entries
                odd = (np.arange(N)[:, None] + np.arange(N)) % 2 == 1
                assert np.abs(H[odd]).max(initial=0.0) <= 1e-14 * np.abs(H).max()

    def test_blocks_are_the_full_matrix_s_blocks(self):
        rule = gauss_hermite_rule(90)
        H = assemble_hamiltonian(BasisSpec(40), rule, anharmonic_potential()).entries
        for parity, size in ((0, 20), (1, 20)):
            block = assemble_hamiltonian(BasisSpec(40, parity), rule, anharmonic_potential())
            assert block.size == size and block.scheme == "hermite"
            sub = H[parity::2, parity::2]
            assert np.abs(block.entries - sub).max() <= 1e-14 * np.abs(H).max()

    def test_parity_block_refuses_a_warp(self):
        params = init_flow_params(hidden=4, alpha=20.0, seed=0)
        with pytest.raises(ValueError, match="a warp breaks parity"):
            assemble_hamiltonian(BasisSpec(6, 0), gauss_hermite_rule(30), harmonic_potential(), params)


class TestPotentialDerivative:
    def test_builtins_equal_the_plain_expressions(self):
        # the coefficients give the bits of the expressions V and V' were written as
        rng = np.random.default_rng(7)
        nodes = gauss_hermite_rule(90).nodes
        harmonic, anharmonic = harmonic_potential(), anharmonic_potential()
        for x in (nodes, nodes + 1e-40j * rng.standard_normal(90),
                  rng.standard_normal(64) * 4 + 1j * rng.standard_normal(64)):
            assert np.array_equal(harmonic(x), 0.5 * x * x)
            assert np.array_equal(harmonic.value_and_derivative(x)[1], x)
            assert np.array_equal(anharmonic(x), 0.5 * x * x + 0.25 * (x * x) * (x * x))
            assert np.array_equal(anharmonic.value_and_derivative(x)[1], x + x * x * x)
            assert np.array_equal(anharmonic.value_and_derivative(x)[0], anharmonic(x))

    def test_derivative_is_read_from_the_coefficients(self):
        assert [f.name for f in dataclasses.fields(Potential)] == ["coefficients", "descriptor"]
        cubic = Potential((1.0, -2.0, 0.0, 3.0), "1 - 2x + 3x^3")
        x = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(cubic(x), 1.0 - 2.0 * x + 3.0 * x**3, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(cubic.value_and_derivative(x)[1], -2.0 + 9.0 * x**2, rtol=1e-15, atol=1e-15)

    def test_builtins_match_central_differences(self):
        x = np.linspace(-6.0, 6.0, 25)
        h = 1e-5
        for V in (harmonic_potential(), anharmonic_potential()):
            fd = (V(x + h) - V(x - h)) / (2 * h)
            np.testing.assert_allclose(V.value_and_derivative(x)[1], fd, rtol=1e-8, atol=1e-8)


class TestPotentialDescriptors:
    def test_known_names(self):
        assert "anharmonic" in anharmonic_potential().descriptor
        assert potential_from_descriptor("harmonic")(2.0) == pytest.approx(2.0)
        assert potential_from_descriptor("anharmonic")(1.0) == pytest.approx(0.75)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            potential_from_descriptor("lennard-jones")
