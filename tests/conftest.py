"""Shared helpers for the test suite."""

import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import hermflow
from hermflow import FlowParams, ResidualBlock, flow, spectral_norm
from hermflow.flow import _jets_forward, _preactivation

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
    `FlowParams` built from the real parameters, in which only the arrays of
    the block that holds theta_i (or alpha and beta, if theta_i is one of
    them) are replaced by complex ones.  The sweep takes each stage's dtype
    from its inputs, so the stages before that block run on real arrays.  The
    weight norms stay real (|w + i h e| = |w| to rounding), so the Lipschitz
    scales are held fixed, as in the adjoint.

    A small float ufunc runs after each `_preactivation`: OpenBLAS's complex gemm
    returns with the upper YMM state dirty, which makes the complex `exp` after it
    (SSE code) 28x slower; numpy's AVX float loops end in `vzeroupper`.
    """
    theta = params.pack()
    grad = np.empty_like(theta)
    starts = np.cumsum([0] + [3 * block.hidden + 1 for block in params.blocks])
    scratch = np.zeros(64)

    def preactivation(*args):
        _preactivation(*args)
        np.add(scratch, 1.0, out=scratch)

    with mock.patch.object(flow, "_preactivation", preactivation):
        for i in range(theta.size):
            shifted = theta.astype(complex)
            shifted[i] += 1j * h
            k = int(np.searchsorted(starts, i, side="right")) - 1
            view = complex_params(params, shifted, k if k < len(params.blocks) else "sandwich")
            value = loss.head(*_jets_forward(view, loss.nodes)[0])
            grad[i] = value.imag / h
    return float(value.real), grad


def complex_params(params: FlowParams, shifted, part="all") -> FlowParams:
    """A copy of `params` whose arrays of block `part` (an index), of alpha and
    beta (part="sandwich") or of every parameter (part="all") are taken from
    the complex vector `shifted`, in `pack()` order."""
    view = params.with_vector(params.pack())
    pos = 0
    for k, block in enumerate(view.blocks):
        n = block.hidden
        if part in ("all", k):
            block.w_in = shifted[pos : pos + n].reshape(n, 1)
            block.b_in = shifted[pos + n : pos + 2 * n]
            block.w_out = shifted[pos + 2 * n : pos + 3 * n].reshape(1, n)
            block.b_out = shifted[pos + 3 * n]
        pos += 3 * n + 1
    if part in ("all", "sandwich"):
        view.alpha, view.beta = shifted[pos], shifted[pos + 1]
    return view


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
