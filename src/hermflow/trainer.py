"""Training of the warp parameters by Adam on the trace loss.

The loss is the trace of the projected Hamiltonian, i.e. the sum of the N
projected eigenvalues, computed without any eigendecomposition:

    L = sum_q w~_q [ 1/2 (S2 - S1 r + S0 r^2 / 4) / G'^2 + S0 V(G) ](x_q),

with r = G''/G' and the parameter-independent node profiles
S0 = sum_n phi_n^2, S1 = sum_n phi_n phi_n', S2 = sum_n phi_n'^2.  The sum
of Ritz values bounds the sum of true eigenvalues from above, so driving the
trace down tightens every level at once.

The gradient is the loss head's adjoint (dL/dG, dL/dG', dL/dG'' per node)
pulled back through the map's jets by their hand-written reverse sweep
(`flow._jets_reverse`).

Training starts from the exact identity warp (see `flow.init_flow_params`),
so the iteration-0 loss reproduces the plain Hermite trace, and re-projects
the weights onto the Lip < 1 constraint set after every step.  Runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .flow import (
    FlowParams,
    _jets_forward,
    _jets_reverse,
    _map_jets,
    init_flow_params,
    normalize_block,
)
from .galerkin import Potential
from .hermite import eval_hermite_derivatives, eval_hermite_functions
from .quadrature import MAX_ORDER, QuadratureRule, gauss_hermite_rule

__all__ = [
    "TrainingConfig",
    "AdamState",
    "TrainingTrace",
    "TrainingAborted",
    "TraceLoss",
    "make_trace_loss",
    "trace_loss",
    "gradient",
    "finite_diff_gradient",
    "adam_step",
    "train",
]


class TrainingAborted(RuntimeError):
    """Loss became non-finite; carries the trace collected so far."""

    def __init__(self, message, trace, params):
        super().__init__(message)
        self.trace = trace
        self.params = params


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run, and the one check of their ranges."""

    N: int
    Q: int = 90
    hidden: int = 128
    blocks: int = 1
    learning_rate: float = 1e-3
    iterations: int | None = None  # None -> 500 for N <= 9, else 2000
    seed: int = 0
    lipschitz_margin: float = 0.97

    def __post_init__(self):
        for name in ("N", "hidden", "blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 1 <= self.Q <= MAX_ORDER:
            raise ValueError(f"Q must lie in [1, {MAX_ORDER}], got {self.Q}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lipschitz_margin < 1.0:
            raise ValueError(f"lipschitz_margin must lie in (0, 1), got {self.lipschitz_margin}")

    @property
    def resolved_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return 500 if self.N <= 9 else 2000


@dataclass
class AdamState:
    """First/second moment accumulators with bias-correction step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


@dataclass
class TrainingTrace:
    """Per-iteration loss, gradient norm and wall time (ms)."""

    losses: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_norms: np.ndarray = field(default_factory=lambda: np.empty(0))
    wall_ms: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self):
        return self.losses.size

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# hermflow trace csv v1\n")
            fh.write("iteration,loss,grad_norm,wall_ms\n")
            for i, (lo, gn, wm) in enumerate(zip(self.losses, self.grad_norms, self.wall_ms)):
                fh.write(f"{i},{float(lo)!r},{float(gn)!r},{float(wm)!r}\n")


@dataclass(frozen=True, eq=False)
class TraceLoss:
    """The trace loss at one basis size, rule and potential.

    Calling it on a `FlowParams`, or on None (identity warp), gives the loss;
    `gradient` differentiates it.
    """

    nodes: np.ndarray
    weights: np.ndarray  # lifted
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    potential: Potential

    def head(self, g, g1, g2):
        """The loss from the jets at the nodes."""
        r = g2 / g1
        kinetic = 0.5 * (self.s2 - self.s1 * r + 0.25 * self.s0 * (r * r)) / (g1 * g1)
        return ((kinetic + self.s0 * self.potential(g)) * self.weights).sum()

    def head_adjoint(self, g, g1, g2):
        """dL/dG, dL/dG' and dL/dG'' at each node."""
        r = g2 / g1
        inv3 = 1.0 / (g1 * g1 * g1)
        bar0 = self.weights * self.s0 * self.potential.derivative(g)
        bar1 = self.weights * inv3 * (1.5 * self.s1 * r - self.s2 - 0.5 * self.s0 * (r * r))
        bar2 = self.weights * inv3 * (0.25 * self.s0 * r - 0.5 * self.s1)
        return bar0, bar1, bar2

    def __call__(self, params):
        if params is None:
            x = self.nodes
            return self.head(x, np.ones_like(x), np.zeros_like(x))
        return self.head(*_map_jets(params, self.nodes))


def make_trace_loss(N: int, rule: QuadratureRule, V: Potential) -> TraceLoss:
    """The trace loss of an N-function basis on the given rule and potential."""
    x = rule.nodes
    phi = eval_hermite_functions(N - 1, x)
    dphi = eval_hermite_derivatives(N - 1, x)
    s0 = (phi * phi).sum(axis=0)
    s1 = (phi * dphi).sum(axis=0)
    s2 = (dphi * dphi).sum(axis=0)
    return TraceLoss(x, rule.lifted_weights, s0, s1, s2, V)


def gradient(loss: TraceLoss, params: FlowParams) -> tuple[float, np.ndarray]:
    """The loss and its gradient with respect to every parameter.

    Returns (loss value, flat gradient) with entries in `params.pack()` order;
    raises FloatingPointError if either is non-finite.
    """
    if loss.potential.derivative is None:
        raise ValueError(f"potential {loss.potential.descriptor!r} has no derivative; cannot train")
    jets, saved = _jets_forward(params, loss.nodes)
    value = float(loss.head(*jets))
    if not np.isfinite(value):
        raise FloatingPointError(f"loss evaluated to a non-finite value: {value}")
    grad = _jets_reverse(params, saved, *loss.head_adjoint(*jets))
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise FloatingPointError(f"non-finite adjoint at parameter index {bad}")
    return value, grad


def finite_diff_gradient(loss, params: FlowParams, step: float) -> np.ndarray:
    """Central-difference gradient of `loss`, one parameter at a time."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    theta = params.pack()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        grad[i] = (loss(params.with_vector(up)) - loss(params.with_vector(down))) / (2.0 * step)
    return grad


def trace_loss(config: TrainingConfig, params: FlowParams | None, V: Potential) -> float:
    """Trace of the projected Hamiltonian for the given warp parameters."""
    rule = gauss_hermite_rule(config.Q)
    return float(make_trace_loss(config.N, rule, V)(params))


def adam_step(
    state: AdamState,
    grad: np.ndarray,
    params: FlowParams,
    lr: float,
) -> tuple[AdamState, FlowParams]:
    """One bias-corrected Adam update over every parameter (weights, alpha, beta).

    The updated weights are re-projected onto the Lip <= margin constraint
    set (spectral re-normalization) before being returned.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match state {state.m.shape}")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    theta = params.pack() - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_params = params.with_vector(theta)
    new_params.blocks = [normalize_block(b, params.lipschitz_margin) for b in new_params.blocks]
    new_state = AdamState(m=m, v=v, t=t, beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_state, new_params


def train(config: TrainingConfig, V: Potential) -> tuple[FlowParams, TrainingTrace]:
    """Optimize the warp for `config.resolved_iterations` Adam steps.

    The loss is recorded at the start of every iteration, so the first entry
    equals the plain Hermite trace (identity initialization).  Raises
    `TrainingAborted` with the partial trace if the loss turns non-finite.
    """
    rule = gauss_hermite_rule(config.Q)
    params = init_flow_params(
        hidden=config.hidden,
        n_blocks=config.blocks,
        lipschitz_margin=config.lipschitz_margin,
        alpha=1.05 * float(np.abs(rule.nodes).max()),
        beta=0.0,
        seed=config.seed,
    )
    loss_fn = make_trace_loss(config.N, rule, V)
    state = AdamState.init(params.n_parameters)
    losses, grad_norms, wall_ms = [], [], []
    for _ in range(config.resolved_iterations):
        tick = time.perf_counter()
        try:
            value, grad = gradient(loss_fn, params)
        except FloatingPointError as exc:
            trace = TrainingTrace(np.array(losses), np.array(grad_norms), np.array(wall_ms))
            raise TrainingAborted(f"training aborted: {exc}", trace, params) from exc
        state, params = adam_step(state, grad, params, config.learning_rate)
        losses.append(value)
        grad_norms.append(float(np.linalg.norm(grad)))
        wall_ms.append((time.perf_counter() - tick) * 1e3)
    trace = TrainingTrace(np.array(losses), np.array(grad_norms), np.array(wall_ms))
    return params, trace
