"""Shared helpers for the test suite."""

import importlib
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import hermflow
from hermflow import FlowParams, ResidualBlock, flow
from hermflow.flow import _jets_forward, _preactivation, _stage_buffers

HERMFLOW_MODULES = [hermflow] + [
    importlib.import_module(f"hermflow.{path.stem}")
    for path in sorted(Path(hermflow.__file__).parent.glob("*.py"))
    if path.stem != "__init__"
]


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
    so a finite-difference step in any parameter stays inside the set.
    """
    blocks = []
    for _ in range(n_blocks):
        w_in = rng.uniform(-1.0, 1.0, size=(hidden, 1))
        w_in *= weight_scale * np.sqrt(margin) / np.linalg.norm(w_in, 2)
        w_out = rng.uniform(-1.0, 1.0, size=(1, hidden))
        w_out *= weight_scale * np.sqrt(margin) / np.linalg.norm(w_out, 2)
        b_in = rng.uniform(-bias_scale, bias_scale, size=hidden)
        b_out = float(rng.uniform(-bias_scale, bias_scale))
        blocks.append(ResidualBlock(w_in, b_in, w_out, b_out))
    return FlowParams(blocks, float(alpha), float(beta), margin)


def finite_diff_gradient(loss, params: FlowParams, step: float) -> np.ndarray:
    """Central-difference gradient of `loss`, one parameter at a time, in `theta` order."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    grad = np.empty(params.n_parameters)
    for i in range(grad.size):
        up, down = params.theta.copy(), params.theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss(params.with_vector(up)) - loss(params.with_vector(down))) / (2.0 * step)
    return grad


def complex_step_gradient(loss, params: FlowParams, h: float = 1e-40):
    """The trace loss and dL/dtheta_i = Im L(theta + i h e_i) / h, in `theta` order.

    The complex step has no subtractive cancellation, so the derivative is
    exact to rounding for any h small enough that h^2 vanishes against 1.
    Each evaluation runs the production forward sweep and loss head on a
    stand-in for the warp (`complex_params`) in which only the arrays of the
    block that holds theta_i (or alpha and beta, if theta_i is one of them)
    are complex.  The stages before that block run on real stage buffers and
    the rest on complex ones (every stage, for alpha and beta); both sets are
    made once per call.

    A small float ufunc runs after each `_preactivation`: OpenBLAS's complex gemm
    returns with the upper YMM state dirty, which makes the complex `exp` after it
    (SSE code) 28x slower; numpy's AVX float loops end in `vzeroupper`.
    """
    theta = params.theta
    grad = np.empty_like(theta)
    n_blocks, shape = len(params.blocks), (params.hidden, loss.nodes.size)
    real = [_stage_buffers(shape) for _ in range(n_blocks)]
    cplx = [_stage_buffers(shape, complex) for _ in range(n_blocks)]
    scratch = np.zeros(64)

    def preactivation(*args):
        _preactivation(*args)
        np.add(scratch, 1.0, out=scratch)

    with mock.patch.object(flow, "_preactivation", preactivation):
        for i in range(theta.size):
            shifted = theta.astype(complex)
            shifted[i] += 1j * h
            k = i // (3 * params.hidden + 1)  # the block of theta_i; n_blocks for alpha and beta
            if k < n_blocks:
                view, buffers = complex_params(params, shifted, k), real[:k] + cplx[k:]
            else:
                view, buffers = complex_params(params, shifted, "sandwich"), cplx
            value = loss.head(*_jets_forward(view, loss.nodes, buffers)[0])[0]
            grad[i] = value.imag / h
    return float(value.real), grad


def complex_params(params: FlowParams, shifted, part="all"):
    """A stand-in for `params` with the `blocks`, `alpha` and `beta` that
    `_jets_forward` reads, whose arrays of block `part` (an index), of alpha and
    beta (part="sandwich") or of every parameter (part="all") are taken from
    the complex vector `shifted`, in `theta` order; the rest are the warp's own."""
    n = params.hidden
    blocks = [
        ResidualBlock(row[:n].reshape(n, 1), row[n : 2 * n], row[2 * n : 3 * n].reshape(1, n), row[3 * n])
        if part in ("all", k) else block
        for k, (block, row) in enumerate(zip(params.blocks, shifted[:-2].reshape(-1, 3 * n + 1)))
    ]
    alpha, beta = shifted[-2:] if part in ("all", "sandwich") else (params.alpha, params.beta)
    return SimpleNamespace(blocks=blocks, alpha=alpha, beta=beta)


@pytest.fixture
def table_builds(monkeypatch):
    """Counts of Hermite tables built from now on, through any hermflow module's binding.

    A rule's own table is built with the rule, once per order and process: build
    the rules a test uses before taking this fixture's counts.
    """
    calls = {"functions": 0, "derivatives": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in HERMFLOW_MODULES:
        for kind in calls:
            name = f"eval_hermite_{kind}"
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(kind, getattr(module, name)))
    return calls


@pytest.fixture(scope="session")
def sinc_dvr_reference():
    """States 0-29 of -1/2 d^2/dx^2 + x^2/2 + x^4/4 on [-8, 8] in the sinc DVR (Colbert &
    Miller 1992), which shares no code with the solver; stable to 1e-9 as the spacing halves."""
    levels = []
    for h in (0.1, 0.05):
        x = np.arange(-round(8 / h), round(8 / h) + 1) * h
        d = np.subtract.outer(np.arange(x.size), np.arange(x.size))
        T = np.where(d == 0, np.pi**2 / 6, (-1.0) ** d / np.maximum(d * d, 1)) / h**2
        levels.append(np.linalg.eigvalsh(T + np.diag(x**2 / 2 + x**4 / 4))[:30])
    drift = float(np.abs(levels[0] - levels[1]).max())
    assert drift <= 1e-9, f"sinc-DVR reference moves by {drift:.2e} when the spacing halves"
    return levels[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
