"""Reverse-mode automatic differentiation on numpy values.

A computation is recorded as a graph of `Var` nodes, each holding an ndarray
(or scalar) value, its parents, and a closure that pushes the adjoint to the
parents.  `Var.backward()` replays the graph once in reverse topological
order.  Elementary operations broadcast like numpy; adjoints are summed back
to the parent's shape.

No part of the solver records on this engine: the flow and the trace loss are
differentiated by the hand-written reverse sweep `flow._jets_reverse`.  The
module stays only while `benchmarks/tracing.py` binds `Var.backward`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Var"]


def _sum_to_shape(grad, shape):
    """Reduce a broadcast adjoint back to the original operand shape."""
    grad = np.asarray(grad)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Var:
    """One value in a recorded computation."""

    __slots__ = ("value", "grad", "_parents", "_push")

    # Defer mixed ndarray/Var arithmetic to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), push=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._push = push

    def __repr__(self):
        return f"Var(value={self.value!r})"

    # -- graph replay ------------------------------------------------------

    def _accumulate(self, delta):
        delta = _sum_to_shape(delta, self.value.shape)
        self.grad = delta if self.grad is None else self.grad + delta

    def backward(self):
        """Propagate d(self)/d(leaf) to every node reachable from self."""
        if self.value.size != 1:
            raise ValueError(f"backward() needs a scalar output, got shape {self.value.shape}")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._push is not None and node.grad is not None:
                node._push(node.grad)

    def grad_or_zero(self):
        return np.zeros_like(self.value) if self.grad is None else self.grad

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Var):
            out = Var(self.value + other, (self,))
            out._push = lambda g: self._accumulate(g)
            return out
        out = Var(self.value + other.value, (self, other))

        def push(g):
            self._accumulate(g)
            other._accumulate(g)

        out._push = push
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Var):
            const = np.asarray(other, dtype=float)
            out = Var(self.value * const, (self,))
            out._push = lambda g: self._accumulate(g * const)
            return out
        out = Var(self.value * other.value, (self, other))

        def push(g):
            self._accumulate(g * other.value)
            other._accumulate(g * self.value)

        out._push = push
        return out

    __rmul__ = __mul__

    def __neg__(self):
        out = Var(-self.value, (self,))
        out._push = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-other if isinstance(other, Var) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if not isinstance(other, Var):
            return self * (1.0 / np.asarray(other, dtype=float))
        out = Var(self.value / other.value, (self, other))

        def push(g):
            self._accumulate(g / other.value)
            other._accumulate(-g * out.value / other.value)

        out._push = push
        return out

    def __rtruediv__(self, other):
        const = np.asarray(other, dtype=float)
        out = Var(const / self.value, (self,))
        out._push = lambda g: self._accumulate(-g * out.value / self.value)
        return out

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"only non-negative integer powers are supported, got {k!r}")
        out = Var(self.value**k, (self,))
        if k == 0:
            out._push = lambda g: self._accumulate(np.zeros_like(self.value))
        else:
            out._push = lambda g: self._accumulate(g * k * self.value ** (k - 1))
        return out

    # -- elementary functions ----------------------------------------------

    def exp(self):
        out = Var(np.exp(self.value), (self,))
        out._push = lambda g: self._accumulate(g * out.value)
        return out

    def tanh(self):
        out = Var(np.tanh(self.value), (self,))
        out._push = lambda g: self._accumulate(g * (1.0 - out.value**2))
        return out

    def atanh(self):
        out = Var(np.arctanh(self.value), (self,))
        out._push = lambda g: self._accumulate(g / (1.0 - self.value**2))
        return out

    def clip(self, lo, hi):
        """Clamp to [lo, hi]; the adjoint passes through strictly inside."""
        inside = (self.value > lo) & (self.value < hi)
        out = Var(np.clip(self.value, lo, hi), (self,))
        out._push = lambda g: self._accumulate(g * inside)
        return out

    def sum(self, axis=None):
        out = Var(self.value.sum(axis=axis), (self,))
        if axis is None:
            out._push = lambda g: self._accumulate(np.broadcast_to(g, self.value.shape))
        else:
            out._push = lambda g: self._accumulate(
                np.broadcast_to(np.expand_dims(g, axis), self.value.shape)
            )
        return out

    def reshape(self, shape):
        out = Var(self.value.reshape(shape), (self,))
        out._push = lambda g: self._accumulate(np.asarray(g).reshape(self.value.shape))
        return out
