"""Shared helpers for the test suite."""

import numpy as np
import pytest

from hermflow import FlowParams, ResidualBlock, spectral_norm
from hermflow.flow import _jets_forward


def make_feasible_params(
    hidden: int,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
    margin: float = 0.97,
    weight_scale: float = 0.85,
    bias_scale: float = 0.4,
    n_blocks: int = 1,
) -> FlowParams:
    """Random parameters strictly inside the Lipschitz constraint set.

    Each weight matrix is rescaled to spectral norm weight_scale*sqrt(margin),
    so spectral re-normalization stays inactive and gradients are smooth in
    every parameter (no min(1, .) kink for finite-difference comparisons).
    """
    blocks = []
    for _ in range(n_blocks):
        w_in = rng.uniform(-1.0, 1.0, size=(hidden, 1))
        w_in *= weight_scale * np.sqrt(margin) / spectral_norm(w_in)
        w_out = rng.uniform(-1.0, 1.0, size=(1, hidden))
        w_out *= weight_scale * np.sqrt(margin) / spectral_norm(w_out)
        b_in = rng.uniform(-bias_scale, bias_scale, size=hidden)
        b_out = float(rng.uniform(-bias_scale, bias_scale))
        blocks.append(ResidualBlock(w_in, b_in, w_out, b_out))
    return FlowParams(blocks, float(alpha), float(beta), margin)


def complex_step_gradient(loss, params: FlowParams, h: float = 1e-40):
    """The trace loss and dL/dtheta_i = Im L(theta + i h e_i) / h, in `pack()` order.

    The complex step has no subtractive cancellation, so the derivative is
    exact to rounding for any h small enough that h^2 vanishes against 1.
    Each evaluation runs the production forward sweep and loss head on a
    `FlowParams` built from the real parameters whose arrays are then
    replaced by complex ones.  The weight norms stay real (|w + i h e| = |w|
    to rounding), so the Lipschitz scales are held fixed, as in the adjoint.
    """
    theta = params.pack()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        shifted = theta.astype(complex)
        shifted[i] += 1j * h
        view = params.with_vector(theta)
        pos = 0
        for block in view.blocks:
            n = block.hidden
            block.w_in = shifted[pos : pos + n].reshape(n, 1)
            block.b_in = shifted[pos + n : pos + 2 * n]
            block.w_out = shifted[pos + 2 * n : pos + 3 * n].reshape(1, n)
            block.b_out = shifted[pos + 3 * n]
            pos += 3 * n + 1
        view.alpha, view.beta = shifted[pos], shifted[pos + 1]
        value = loss.head(*_jets_forward(view, loss.nodes)[0])
        grad[i] = value.imag / h
    return float(value.real), grad


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
