import math

import numpy as np
import pytest

from hermflow import eval_hermite_functions, gauss_hermite_rule
from hermflow.eigensolver import eigh
from hermflow.hermite import hermite_derivatives_from_table

SQRT_PI = np.sqrt(np.pi)


def gaussian_moment(k: int) -> float:
    """Oracle: integral of x^k exp(-x^2) over the real line."""
    return 0.0 if k % 2 else math.gamma((k + 1) / 2)


class TestRuleConstruction:
    def test_order_one(self):
        rule = gauss_hermite_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [SQRT_PI], rtol=1e-14)

    def test_order_two(self):
        rule = gauss_hermite_rule(2)
        np.testing.assert_allclose(rule.nodes, [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], rtol=1e-13)

    def test_order_three(self):
        rule = gauss_hermite_rule(3)
        np.testing.assert_allclose(rule.nodes, [-np.sqrt(1.5), 0.0, np.sqrt(1.5)], atol=1e-14)
        np.testing.assert_allclose(
            rule.weights, [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], rtol=1e-13
        )

    @pytest.mark.parametrize("Q", [1, 2, 7, 20, 40, 90])
    def test_invariants(self, Q):
        rule = gauss_hermite_rule(Q)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.abs(rule.nodes + rule.nodes[::-1]).max() < 1e-13
        assert np.all(rule.weights > 0)
        assert np.all(rule.lifted_weights > 0)
        assert abs(rule.weights.sum() - SQRT_PI) < 1e-12 * SQRT_PI

    @pytest.mark.parametrize("Q", [5, 17, 60, 90])
    def test_monomial_exactness(self, Q):
        rule = gauss_hermite_rule(Q)
        for k in range(2 * Q):
            terms = rule.weights * rule.nodes**k
            approx = terms.sum()
            if k % 2:
                scale = np.abs(terms).sum()
                assert scale == 0.0 or abs(approx) / scale < 1e-12
            else:
                assert abs(approx - gaussian_moment(k)) < 1e-12 * gaussian_moment(k)

    @pytest.mark.parametrize("Q", [1, 6, 30, 89])
    def test_node_interlacing(self, Q):
        a = gauss_hermite_rule(Q).nodes
        b = gauss_hermite_rule(Q + 1).nodes
        assert np.all(b[:-1] < a) and np.all(a < b[1:])

    def test_matches_numpy_oracle(self):
        rule = gauss_hermite_rule(64)
        xs, ws = np.polynomial.hermite.hermgauss(64)
        np.testing.assert_allclose(rule.nodes, xs, atol=1e-13)
        np.testing.assert_allclose(rule.weights, ws, rtol=1e-12)

    @pytest.mark.parametrize("Q", [150, 200])
    def test_high_orders(self, Q):
        # numpy's nodes and weights, and phi_0 .. phi_{Q-1} orthonormal on the lifted weights
        rule = gauss_hermite_rule(Q)
        xs, ws = np.polynomial.hermite.hermgauss(Q)
        np.testing.assert_allclose(rule.nodes, xs, atol=1e-13)
        np.testing.assert_allclose(rule.weights, ws, rtol=1e-12)
        phi = rule.hermite_table[:Q]
        gram = (phi * rule.lifted_weights) @ phi.T
        assert np.abs(gram - np.eye(Q)).max() <= 1e-13

    @pytest.mark.parametrize("Q", [0, -4, 201, 2.5])
    def test_out_of_range_rejected(self, Q):
        with pytest.raises(ValueError):
            gauss_hermite_rule(Q)

    def test_built_once_per_order_and_read_only(self):
        rule = gauss_hermite_rule(37)
        assert gauss_hermite_rule(np.int64(37)) is rule
        arrays = (rule.nodes, rule.weights, rule.lifted_weights, rule.sqrt_lifted_weights)
        for arr in arrays + (rule.hermite_table, rule.derivative_table):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("Q", [1, 2, 40, 90, 200])
    def test_hermite_table_rows_equal_fresh_tables(self, Q):
        # the table's rows are those of a table built for any smaller basis, bit for bit,
        # and keeping it leaves the nodes and weights of a rule built without it unchanged
        rule = gauss_hermite_rule(Q)
        assert rule.hermite_table.shape == (Q + 1, Q)
        for N in sorted({0, 1, Q // 2, Q - 1, Q}):
            np.testing.assert_array_equal(
                rule.hermite_table[: N + 1], eval_hermite_functions(N, rule.nodes)
            )
        off = np.sqrt(0.5 * np.arange(1, Q))
        nodes = eigh(np.diag(off, 1) + np.diag(off, -1)).eigenvalues
        phi = eval_hermite_functions(Q - 1, nodes)
        lifted = 1.0 / (phi * phi).sum(axis=0)
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.lifted_weights, lifted)
        np.testing.assert_array_equal(rule.weights, lifted * np.exp(-nodes * nodes))

    @pytest.mark.parametrize("Q", [1, 2, 3, 90, 91, 200])
    def test_derivative_table_rows_equal_fresh_derivatives(self, Q):
        # a slice of the rule's derivative table has the bits of the derivatives built from
        # the first N + 1 rows of its Hermite table alone, for every basis size N <= Q
        rule = gauss_hermite_rule(Q)
        assert rule.derivative_table.shape == (Q, Q)
        assert not rule.derivative_table.flags.writeable
        for N in range(1, Q + 1):
            fresh = hermite_derivatives_from_table(rule.hermite_table[: N + 1])
            assert np.array_equal(rule.derivative_table[:N].view(np.int64), fresh.view(np.int64))
            assert not rule.derivative_table[:N].flags.writeable
        assert np.array_equal(rule.sqrt_lifted_weights, np.sqrt(rule.lifted_weights))

    def test_checks_repeat_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                gauss_hermite_rule(201)


class TestLiftedWeightsIntegrate:
    def test_gaussian(self):
        rule = gauss_hermite_rule(20)
        value = rule.lifted_weights @ np.exp(-rule.nodes**2)
        assert value == pytest.approx(SQRT_PI, rel=1e-12)

    def test_ground_state_normalization(self):
        rule = gauss_hermite_rule(20)
        phi0 = eval_hermite_functions(0, rule.nodes)[0]
        assert rule.lifted_weights @ phi0**2 == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_quartic_moment(self):
        rule = gauss_hermite_rule(20)
        phi0 = eval_hermite_functions(0, rule.nodes)[0]
        assert rule.lifted_weights @ (phi0**2 * rule.nodes**4) == pytest.approx(0.75, rel=1e-12)
