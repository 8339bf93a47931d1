"""Training of the warp parameters by Adam on the trace loss.

The loss is the trace of the projected Hamiltonian, i.e. the sum of the N
projected eigenvalues, computed without any eigendecomposition:

    L = sum_q w~_q [ 1/2 (S2 - S1 r + S0 r^2 / 4) / G'^2 + S0 V(G) ](x_q),

with r = G''/G' and the parameter-independent node profiles
S0 = sum_n phi_n^2, S1 = sum_n phi_n phi_n', S2 = sum_n phi_n'^2.  The sum
of Ritz values bounds the sum of true eigenvalues from above, so driving the
trace down tightens every level at once.

The gradient is the loss head's adjoint (dL/dG, dL/dG', dL/dG'' per node, one
(3, Q) array computed with the loss by one head) pulled back through the map's
jets by their hand-written reverse sweep (`flow._jets_reverse`).  Both sweeps write
their (hidden, Q) arrays and the small operands of their matrix products into
stage buffers that the `TraceLoss` keeps from one call to the next, so an
Adam step allocates none: freed, they went back to the system at every step
(glibc trims the top of the heap beyond 128 KB), and the next step faulted
the same pages in again.  The loss's value and its gradient share one checked
sweep (`TraceLoss.sweep`), which refuses a warp as assembly does.

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
    _check_inside,
    _from_vector,
    _jets_forward,
    _jets_reverse,
    _stage_buffers,
    init_flow_params,
)
from .analysis import write_csv
from .galerkin import MonotonicityError, Potential, _basis_at_nodes, _check_monotone
from .hermite import eval_hermite_derivatives  # noqa: F401 - benchmarks/tracing.py binds it here
from .hermite import eval_hermite_functions  # noqa: F401 - benchmarks/tracing.py binds it here
from .quadrature import MAX_ORDER, QuadratureRule, gauss_hermite_rule

__all__ = [
    "TrainingSettings",
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
class TrainingSettings:
    """The settings of a training run but its basis size, each declared once with its default."""

    Q: int = 90
    hidden: int = 128
    blocks: int = 1
    learning_rate: float = 1e-3
    iterations: int | None = None  # None -> 500 for N <= 9, else 2000
    seed: int = 0
    lipschitz_margin: float = 0.97


@dataclass(frozen=True)
class TrainingConfig(TrainingSettings):
    """The settings and basis size N (keyword only) of one training run, and the one check of their ranges."""

    N: int = field(kw_only=True)

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
        lines = (f"{i},{float(v)!r},{float(g)!r},{float(t)!r}\n" for i, v, g, t in rows)
        write_csv(path, "trace", "iteration,loss,grad_norm,wall_ms", lines)


@dataclass(frozen=True, eq=False)
class TraceLoss:
    """The trace loss at one basis size, rule and potential.

    Calling it on a `FlowParams` gives the loss by the checked sweep (`sweep`) that
    `gradient` runs and differentiates, so it refuses what the gradient and assembly refuse.
    """

    nodes: np.ndarray
    weights: np.ndarray  # lifted
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    potential: Potential
    # one set of stage buffers per stage for the sweeps, kept from call to call
    _stages: list = field(default_factory=list, init=False, repr=False)
    # the head's node constants, formed once: w s0 (dL/dG = w s0 V'(G)) and the rows of `head`
    _consts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        s0, s1, s2 = self.s0, self.s1, self.s2
        rows = [1.5 * s1, 0.25 * s0, 0.5 * s1], [s2, 0.5 * s1, 0.5 * s2], [0.5 * s0, 0.125 * s0]
        object.__setattr__(self, "_consts", (self.weights * s0, *map(np.array, rows)))

    def stage_buffers(self, params: FlowParams) -> list:
        """Stage buffers for `params` at the nodes, made on first use and then reused."""
        stages, shape = self._stages, (params.hidden, self.nodes.size)
        if len(stages) != len(params.blocks) or stages[0][0].shape != shape:  # all stages share one shape
            stages[:] = [_stage_buffers(shape) for _ in params.blocks]
        return stages

    def head(self, g, g1, g2):
        """The loss and the (3, nodes) array of dL/dG, dL/dG', dL/dG'', from the jets at the nodes.

        r = G''/G', r^2, G'^2, w/G'^3, V and V' are formed once for both; each row of node
        constants times r or r^2 keeps the bits of the expression it stands for.
        """
        w_s0, r_rows, less_rows, rr_rows = self._consts
        r = g2 / g1
        rr = r * r
        g1g1 = g1 * g1
        brackets = r_rows * r  # 1.5 s1 r, 0.25 s0 r, 0.5 s1 r
        brackets -= less_rows  # less s2, 0.5 s1, 0.5 s2
        by_rr = rr_rows * rr  # 0.5 s0 r^2, 0.125 s0 r^2
        brackets[0] -= by_rr[0]
        kinetic = (by_rr[1] - brackets[2]) / g1g1  # (0.5 s2 - 0.5 s1 r + 0.125 s0 r^2) / G'^2
        v, dv = self.potential.value_and_derivative(g)
        value = ((kinetic + self.s0 * v) * self.weights).sum()
        w_inv3 = self.weights * (1.0 / (g1g1 * g1))
        bars = np.empty((3, g.size), np.result_type(w_inv3, dv))
        np.multiply(w_s0, dv, out=bars[0])
        np.multiply(w_inv3, brackets[:2], out=bars[1:])
        return value, bars

    def sweep(self, params: FlowParams):
        """(jets, saved) of `flow._jets_forward` on the kept buffers, refusing a warp as assembly does:
        MonotonicityError for a node outside its interval (before the sweep) or G' <= 0 or NaN at one."""
        _check_inside(params, self.nodes, "node", MonotonicityError)
        jets, saved = _jets_forward(params, self.nodes, self.stage_buffers(params))
        _check_monotone(self.nodes, jets[1])
        return jets, saved

    def __call__(self, params: FlowParams):
        return self.head(*self.sweep(params)[0])[0]


def make_trace_loss(N: int, rule: QuadratureRule, V: Potential) -> TraceLoss:
    """The trace of `assemble_hamiltonian`'s matrix as a loss on the warp, from the same table rows."""
    phi, dphi = _basis_at_nodes(N, rule)
    s0 = (phi * phi).sum(axis=0)
    s1 = (phi * dphi).sum(axis=0)
    s2 = (dphi * dphi).sum(axis=0)
    return TraceLoss(rule.nodes, rule.lifted_weights, s0, s1, s2, V)


def gradient(loss: TraceLoss, params: FlowParams) -> tuple[float, np.ndarray]:
    """The loss and its gradient with respect to every parameter.

    Returns (loss value, flat gradient) with entries in `params.theta` order.
    Raises MonotonicityError, from `TraceLoss.sweep`, for a node outside the warp's
    interval or G' not positive at a node, and FloatingPointError if the value or
    the gradient is non-finite.
    """
    jets, saved = loss.sweep(params)
    value, bars = loss.head(*jets)
    value = float(value)
    if not math.isfinite(value):
        raise FloatingPointError(f"loss evaluated to a non-finite value: {value}")
    grad = _jets_reverse(params, saved, bars)
    if not np.isfinite(grad).all():
        i = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise FloatingPointError(f"non-finite adjoint at parameter index {i}")
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
    equals the plain Hermite trace (identity initialization).  Raises `TrainingAborted`
    with the partial trace if `gradient` raises MonotonicityError or FloatingPointError.
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
        except (FloatingPointError, MonotonicityError) as exc:
            trace = TrainingTrace(np.array(losses), np.array(grad_norms), np.array(wall_ms))
            raise TrainingAborted(f"training aborted: {exc}", trace, params) from exc
        state, params = adam_step(state, grad, params, config.learning_rate)
        losses.append(value)
        grad_norms.append(math.sqrt(grad @ grad))  # np.linalg.norm's bits
        wall_ms.append((time.perf_counter() - tick) * 1e3)
    trace = TrainingTrace(np.array(losses), np.array(grad_norms), np.array(wall_ms))
    return params, trace
