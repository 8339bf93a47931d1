"""The replay step of a reverse-mode tape, kept for one binding.

No part of the solver records on a tape: the flow and the trace loss are
differentiated by the hand-written reverse sweep `flow._jets_reverse`.  What is
left is `Var.backward`, because `benchmarks/tracing.py` binds it by name and a
traced run fails without it.  A node holds a value, its parents and a closure
that pushes its adjoint to them; the caller builds nodes by hand.  The module
leaves with the tracer's binding (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Var"]


class Var:
    """One value in a recorded computation."""

    __slots__ = ("value", "grad", "_parents", "_push")

    def __init__(self, value, parents=(), push=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._push = push

    def _accumulate(self, delta):
        """Add `delta` to this node's adjoint; a push closure calls it for each parent."""
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
