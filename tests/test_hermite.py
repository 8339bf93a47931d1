import math

import numpy as np
import pytest

from hermflow import (
    BasisSpec,
    eval_hermite_derivatives,
    eval_hermite_functions,
    gauss_hermite_rule,
)
from hermflow.hermite import hermite_derivatives_from_table


def direct_hermite_function(n, x):
    """Oracle: phi_n from the raw polynomial recurrence in extended precision.

    h_{k+1} = 2x h_k - 2k h_{k-1} in longdouble, then the explicit
    normalization (2^n n! sqrt(pi))^(-1/2) exp(-x^2/2).  Only usable for
    small n where the raw values stay far from overflow.
    """
    x = np.longdouble(x)
    h_prev, h = np.longdouble(1.0), 2.0 * x
    if n == 0:
        h = h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    norm = np.sqrt(np.longdouble(2.0) ** n * math.factorial(n) * np.sqrt(np.pi))
    return float(h / norm * np.exp(-x * x / 2.0))


class TestEvalHermiteFunctions:
    def test_phi0_at_zero(self):
        vals = eval_hermite_functions(0, 0.0)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(np.pi**-0.25, abs=1e-15)

    def test_phi1_odd_vanishes_at_zero(self):
        vals = eval_hermite_functions(1, 0.0)
        assert vals[0] == pytest.approx(np.pi**-0.25, abs=1e-15)
        assert vals[1] == 0.0

    def test_against_direct_formula(self):
        vals = eval_hermite_functions(5, 1.3)
        expected = [direct_hermite_function(n, 1.3) for n in range(6)]
        np.testing.assert_allclose(vals, expected, rtol=1e-13)

    def test_recurrence_residual(self):
        x = 1.3
        vals = eval_hermite_functions(5, x)
        for n in range(1, 5):
            res = vals[n + 1] - (x * np.sqrt(2.0 / (n + 1)) * vals[n] - np.sqrt(n / (n + 1.0)) * vals[n - 1])
            assert abs(res) < 1e-13

    def test_parity(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.1, 8.0, size=20)
        plus = eval_hermite_functions(60, xs)
        minus = eval_hermite_functions(60, -xs)
        signs = (-1.0) ** np.arange(61)
        assert np.abs(minus - signs[:, None] * plus).max() < 1e-14

    def test_no_overflow_in_contract_range(self):
        # the largest rule's table: phi_0 .. phi_200 out to its outermost node, +-19.34
        edge = np.abs(gauss_hermite_rule(200).nodes).max()
        vals = eval_hermite_functions(200, np.array([-edge, -15.0, -3.2, 0.0, 3.2, 15.0, edge]))
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() < 10.0

    def test_orthonormality_under_quadrature(self):
        for N, Q in ((10, 10), (25, 30), (40, 40), (40, 90)):
            rule = gauss_hermite_rule(Q)
            phi = eval_hermite_functions(N - 1, rule.nodes)
            S = np.einsum("iq,q,jq->ij", phi, rule.lifted_weights, phi)
            assert np.abs(S - np.eye(N)).max() < 1e-10

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            eval_hermite_functions(-1, 0.0)


class TestEvalHermiteDerivatives:
    def test_ground_state_flat_at_zero(self):
        assert eval_hermite_derivatives(0, 0.0)[0] == 0.0

    def test_phi1_slope_at_zero(self):
        # ladder: phi_1' = sqrt(1/2) phi_0 - phi_2; at 0 both terms give
        # sqrt(2)/2 * pi^(-1/4), and directly phi_1 = sqrt(2) x phi_0.
        expected = np.sqrt(2.0) * np.pi**-0.25
        assert eval_hermite_derivatives(1, 0.0)[1] == pytest.approx(expected, rel=1e-14)

    def test_finite_difference_oracle(self):
        x, h = 0.7, 1e-5
        d = eval_hermite_derivatives(4, x)
        fd = (eval_hermite_functions(4, x + h) - eval_hermite_functions(4, x - h)) / (2 * h)
        np.testing.assert_allclose(d, fd, rtol=1e-7)

    def test_finite_difference_random_pairs(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(0, 40))
            x = float(rng.uniform(-6.0, 6.0))
            d = eval_hermite_derivatives(n, x)[n]
            fd = (
                eval_hermite_functions(n, x + h)[n] - eval_hermite_functions(n, x - h)[n]
            ) / (2 * h)
            if abs(fd) > 1e-9:
                assert d == pytest.approx(fd, rel=1e-7)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            eval_hermite_derivatives(-2, 1.0)

    @pytest.mark.parametrize("n_max", [0, 1, 29, 180])
    def test_table_ladder_bitwise_equals_loop(self, n_max):
        x = np.linspace(-15.0, 15.0, 201)
        phi = eval_hermite_functions(n_max + 1, x)
        loop = np.zeros((n_max + 1, x.size))
        loop[0] = -np.sqrt(0.5) * phi[1]
        for n in range(1, n_max + 1):
            loop[n] = np.sqrt(n / 2) * phi[n - 1] - np.sqrt((n + 1) / 2) * phi[n + 1]
        d = hermite_derivatives_from_table(phi)
        assert d.tobytes() == loop.tobytes()
        assert eval_hermite_derivatives(n_max, x).tobytes() == loop.tobytes()


class TestBasisSpec:
    def test_valid(self):
        assert BasisSpec(1).size == 1

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            BasisSpec(bad)
