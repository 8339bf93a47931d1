"""The Var engine, the trace-loss adjoint against central differences, and the
central-difference helper itself."""

import numpy as np
import pytest

from hermflow import (
    FlowParams,
    ResidualBlock,
    anharmonic_potential,
    finite_diff_gradient,
    gauss_hermite_rule,
    gradient,
    make_trace_loss,
)
from hermflow.autodiff import Var
from conftest import make_feasible_params


def tiny_params(alpha=3.0, beta=0.5):
    block = ResidualBlock(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), 0.0)
    return FlowParams([block], alpha, beta, 0.97)


def sum_all_entries(p):
    total = p.blocks[0].b_out + p.alpha + p.beta
    for arr in (p.blocks[0].w_in, p.blocks[0].b_in, p.blocks[0].w_out):
        total = total + arr.sum()
    return total


class TestVarEngine:
    def test_mul_add_chain(self):
        x = Var(3.0)
        y = x * x + 2.0 * x
        y.backward()
        assert float(y.value) == 15.0
        assert float(x.grad) == 8.0

    def test_division_and_exp(self):
        x = Var(0.7)
        y = (1.0 / (1.0 + (-x).exp())).sum()
        y.backward()
        s = 1.0 / (1.0 + np.exp(-0.7))
        assert float(x.grad) == pytest.approx(s * (1 - s), rel=1e-12)

    def test_broadcast_backward(self):
        a = Var(np.ones((3, 1)))
        b = Var(np.arange(4.0))
        out = (a * b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full((3, 1), 6.0))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_sum_axis_and_reshape(self):
        a = Var(np.arange(6.0).reshape(2, 3))
        out = (a.sum(axis=0) * np.array([1.0, 2.0, 3.0])).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))

    def test_clip_gradient_masks_outside(self):
        x = Var(np.array([-2.0, 0.3, 2.0]))
        y = x.clip(-1.0, 1.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Var(np.ones(3)).backward()


class TestGradient:
    """The adjoint `hermflow.gradient` (`trainer.gradient`) against central differences."""

    def test_trace_loss_vs_fd(self, rng):
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        alpha = 1.05 * np.abs(rule.nodes).max()
        params = make_feasible_params(16, alpha, 0.1, rng)
        _, grad = gradient(loss, params)
        fd = finite_diff_gradient(loss, params, 1e-6)
        mag = np.maximum(np.abs(grad), np.abs(fd))
        mask = mag > 1e-8
        assert (np.abs(grad - fd)[mask] / mag[mask]).max() <= 1e-5

    def test_oracle_agreement_invariant(self, rng):
        # 10 random draws across N in {3, 5}
        V = anharmonic_potential()
        rule = gauss_hermite_rule(30)
        alpha = 1.05 * np.abs(rule.nodes).max()
        worst = 0.0
        for trial in range(10):
            N = 3 if trial % 2 else 5
            loss = make_trace_loss(N, rule, V)
            params = make_feasible_params(8, alpha, float(rng.uniform(-0.2, 0.2)), rng)
            _, grad = gradient(loss, params)
            fd = finite_diff_gradient(loss, params, 1e-6)
            mag = np.maximum(np.abs(grad), np.abs(fd))
            mask = mag > 1e-8
            worst = max(worst, (np.abs(grad - fd)[mask] / mag[mask]).max())
        assert worst <= 1e-5

    def test_determinism(self, rng):
        rule = gauss_hermite_rule(25)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.05, rng)
        v1, g1 = gradient(loss, params)
        v2, g2 = gradient(loss, params)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_trace_loss_grad_with_stacked_blocks(self, rng):
        rule = gauss_hermite_rule(25)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = make_feasible_params(6, 1.05 * np.abs(rule.nodes).max(), 0.05, rng, n_blocks=2)
        _, grad = gradient(loss, params)
        fd = finite_diff_gradient(loss, params, 1e-6)
        mag = np.maximum(np.abs(grad), np.abs(fd))
        mask = mag > 1e-8
        assert (np.abs(grad - fd)[mask] / mag[mask]).max() <= 1e-5


class TestFiniteDiffGradient:
    def test_quadratic(self):
        params = tiny_params(alpha=3.0)
        fd = finite_diff_gradient(lambda p: float(p.alpha) ** 2, params, 1e-4)
        assert fd[-2] == pytest.approx(6.0, abs=1e-7)

    def test_linear_sum_is_exact(self):
        params = tiny_params()
        fd = finite_diff_gradient(lambda p: float(sum_all_entries(p)), params, 1e-3)
        np.testing.assert_allclose(fd, 1.0, atol=1e-12)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: 0.0, tiny_params(), 0.0)
