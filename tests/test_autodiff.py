"""The Var engine."""

import numpy as np
import pytest

from hermflow.autodiff import Var


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
