"""`Var.backward` on nodes built by hand, each with the push closure written here."""

import numpy as np
import pytest

from hermflow.autodiff import Var


def _square(x):
    return Var(x.value * x.value, (x,), lambda g: x._accumulate(2.0 * g * x.value))


def _scale(x, c):
    return Var(c * x.value, (x,), lambda g: x._accumulate(c * g))


def _add(a, b):
    def push(g):
        a._accumulate(g)
        b._accumulate(g)

    return Var(a.value + b.value, (a, b), push)


class TestVarEngine:
    def test_mul_add_chain(self):
        x = Var(3.0)
        y = _add(_square(x), _scale(x, 2.0))
        y.backward()
        assert float(y.value) == 15.0
        assert float(x.grad) == 8.0

    def test_shared_node_replayed_once_with_both_adjoints(self):
        x = Var(2.0)
        calls = []

        def push(g):
            calls.append(float(g))
            x._accumulate(5.0 * g)

        shared = Var(5.0 * x.value, (x,), push)
        y = _add(_scale(shared, 3.0), _scale(shared, 4.0))
        y.backward()
        assert calls == [7.0]
        assert float(shared.grad) == 7.0
        assert float(x.grad) == 35.0

    def test_second_backward_resets_earlier_adjoints(self):
        x = Var(3.0)
        y = _add(_square(x), _scale(x, 2.0))
        y.backward()
        y.backward()
        assert float(x.grad) == 8.0
        z = _scale(x, -1.0)
        z.backward()
        assert float(x.grad) == -1.0

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Var(np.ones(3)).backward()
