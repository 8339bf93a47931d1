"""Training of the warp parameters by Adam on the trace loss.

The loss is the trace of the projected Hamiltonian, i.e. the sum of the N
projected eigenvalues, computed without any eigendecomposition:

    L = sum_q w~_q [ 1/2 (S2 - S1 r + S0 r^2 / 4) / G'^2 + S0 V(G) ](x_q),

with r = G''/G' and the parameter-independent node profiles
S0 = sum_n phi_n^2, S1 = sum_n phi_n phi_n', S2 = sum_n phi_n'^2.  The sum
of Ritz values bounds the sum of true eigenvalues from above, so driving the
trace down tightens every level at once.

The gradient is the loss head's adjoint (dL/dG, dL/dG', dL/dG'' per node,
computed with the loss by one head) pulled back through the map's jets by
their hand-written reverse sweep (`flow._jets_reverse`).  Both sweeps write
their (hidden, Q) arrays and the small operands of their matrix products into
stage buffers that the `TraceLoss` keeps from one call to the next, so an
Adam step allocates none: freed, they went back to the system at every step
(glibc trims the top of the heap beyond 128 KB), and the next step faulted
the same pages in again.

Adam works on the flat parameter vector theta (`FlowParams.theta`): one
update of theta, which the warp's builder, `flow._from_vector`, re-projects
onto the Lip <= margin constraint set and reads back as a warp; the trainer
never depends on how theta is laid out.  Training starts from the exact identity warp (see
`flow.init_flow_params`), so the iteration-0 loss reproduces the plain
Hermite trace.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .flow import (
    FlowParams,
    _from_vector,
    _jets_forward,
    _jets_reverse,
    _stage_buffers,
    init_flow_params,
)
from .analysis import write_csv
from .galerkin import Potential, _basis_at_nodes
from .hermite import eval_hermite_derivatives  # noqa: F401 - benchmarks/tracing.py binds it here
from .hermite import eval_hermite_functions  # noqa: F401 - benchmarks/tracing.py binds it here
from .quadrature import MAX_ORDER, QuadratureRule, gauss_hermite_rule

__all__ = [
    "TrainingConfig",
    "AdamState",
    "TrainingTrace",
    "TrainingAborted",
    "TraceLoss",
    "make_trace_loss",
    "gradient",
    "adam_step",
    "train",
]


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class TrainingAborted(RuntimeError):
    """`gradient` failed during training; carries the trace collected so far."""

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
        if self.N > self.Q:
            raise ValueError(f"basis size N = {self.N} exceeds the quadrature order Q = {self.Q}")
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
        rows = zip(range(len(self)), self.losses, self.grad_norms, self.wall_ms)
        write_csv(path, "trace", "iteration,loss,grad_norm,wall_ms", rows, labels=1)


@dataclass(frozen=True, eq=False)
class TraceLoss:
    """The trace loss at one basis size, rule and potential.

    Calling it on a `FlowParams` gives the loss by the forward sweep that
    `gradient` runs and differentiates.
    """

    nodes: np.ndarray
    weights: np.ndarray  # lifted
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    potential: Potential
    # one set of stage buffers per stage for the sweeps, kept from call to call
    _stages: list = field(default_factory=list, init=False, repr=False)
    # w s0, the constant left factor of dL/dG = (w s0) V'(G), formed once
    _w_s0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_w_s0", self.weights * self.s0)

    def stage_buffers(self, params: FlowParams) -> list:
        """Stage buffers for `params` at the nodes, made on first use and then reused."""
        shapes = [(params.hidden, self.nodes.size)] * len(params.blocks)
        if [buf[0].shape for buf in self._stages] != shapes:
            self._stages[:] = [_stage_buffers(shape) for shape in shapes]
        return self._stages

    def head(self, g, g1, g2):
        """The loss, and dL/dG, dL/dG' and dL/dG'' at each node, from the jets at the nodes.

        r = G''/G', r^2, G'^2 and w/G'^3 are formed once for both.
        """
        r = g2 / g1
        rr = r * r
        g1g1 = g1 * g1
        kinetic = 0.5 * (self.s2 - self.s1 * r + 0.25 * self.s0 * rr) / g1g1
        value = ((kinetic + self.s0 * self.potential(g)) * self.weights).sum()
        w_inv3 = self.weights * (1.0 / (g1g1 * g1))
        bar0 = self._w_s0 * self.potential.derivative(g)
        bar1 = w_inv3 * (1.5 * self.s1 * r - self.s2 - 0.5 * self.s0 * rr)
        bar2 = w_inv3 * (0.25 * self.s0 * r - 0.5 * self.s1)
        return value, (bar0, bar1, bar2)

    def __call__(self, params: FlowParams):
        return self.head(*_jets_forward(params, self.nodes, self.stage_buffers(params))[0])[0]


def make_trace_loss(N: int, rule: QuadratureRule, V: Potential) -> TraceLoss:
    """The trace of `assemble_hamiltonian`'s matrix as a loss on the warp, from the same table rows."""
    phi, dphi = _basis_at_nodes(N, rule)
    s0 = (phi * phi).sum(axis=0)
    s1 = (phi * dphi).sum(axis=0)
    s2 = (dphi * dphi).sum(axis=0)
    return TraceLoss(rule.nodes, rule.lifted_weights, s0, s1, s2, V)


def gradient(loss: TraceLoss, params: FlowParams) -> tuple[float, np.ndarray]:
    """The loss and its gradient with respect to every parameter.

    Returns (loss value, flat gradient) with entries in `params.theta` order;
    raises FloatingPointError if either is non-finite, or, before the loss is
    formed, if G' <= 0 at a node (a node outside the warp's interval).
    """
    jets, saved = _jets_forward(params, loss.nodes, loss.stage_buffers(params))
    g1 = jets[1]
    for q in (0, g1.size - 1):  # the nodes ascend and the interval is one piece: the ends decide
        if g1[q] <= 0.0:
            raise FloatingPointError(f"warp derivative G' = {g1[q]} <= 0 at node {q} (x={loss.nodes[q]})")
    value, bars = loss.head(*jets)
    value = float(value)
    if not np.isfinite(value):
        raise FloatingPointError(f"loss evaluated to a non-finite value: {value}")
    grad = _jets_reverse(params, saved, *bars)
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise FloatingPointError(f"non-finite adjoint at parameter index {bad}")
    return value, grad


def adam_step(
    state: AdamState,
    grad: np.ndarray,
    params: FlowParams,
    lr: float,
) -> tuple[AdamState, FlowParams]:
    """One bias-corrected Adam update over every parameter (weights, alpha, beta).

    The update is made on a fresh theta = `params.theta` - step, which
    `flow._from_vector` then re-projects onto the Lip <= margin constraint set.
    Returns the new state and a warp whose blocks are views of that theta;
    `state` and `params` are left untouched.  Raises ValueError unless the
    gradient and the moments have one entry per parameter of the warp.
    """
    grad = np.asarray(grad, dtype=float)
    n = params.n_parameters
    if not grad.shape == state.m.shape == state.v.shape == (n,):
        raise ValueError(f"gradient {grad.shape} or state {state.m.shape} does not fit {n} parameters")
    t = state.t + 1
    m = _BETA1 * state.m + (1.0 - _BETA1) * grad
    v = _BETA2 * state.v + (1.0 - _BETA2) * grad * grad
    step = lr * (m / (1.0 - _BETA1**t))
    denom = np.sqrt(v / (1.0 - _BETA2**t))
    denom += _EPS
    step /= denom
    theta = params.theta - step
    hidden, n_blocks, margin = params.hidden, len(params.blocks), params.lipschitz_margin
    return AdamState(m=m, v=v, t=t), _from_vector(theta, hidden, n_blocks, margin, project=True)


def train(config: TrainingConfig, V: Potential) -> tuple[FlowParams, TrainingTrace]:
    """Optimize the warp for `config.resolved_iterations` Adam steps.

    The loss is recorded at the start of every iteration, so the first entry
    equals the plain Hermite trace (identity initialization).  Raises
    `TrainingAborted` with the partial trace if `gradient` fails.
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
