"""Trainable bijection warping the Hermite basis.

The map G is an affine-tanh sandwich around an invertible residual network:

    G(x) = tanh(F(atanh((x - beta)/alpha))) * alpha + beta,
    F    = (id + k_L) o ... o (id + k_1),

where each residual k is a one-hidden-layer network with Lipswish
activations whose weights have spectral norm at most sqrt(c), so that
Lip(k) <= c < 1.  That bound makes every residual stage a contraction, hence
F (and G) is a strictly increasing bijection of the interval
(beta - alpha, beta + alpha) onto itself, invertible by Banach fixed-point
iteration.

First and second derivatives with respect to the input are propagated
alongside the value as order-2 jets; Galerkin assembly and the trace loss
need G, G' and G'' at every quadrature node.  The jets are computed on plain
arrays by one forward sweep, whose reverse sweep (`_jets_reverse`) gives the
gradient of any function of the jets with respect to every parameter.  The
weights are rank-one, so each stage's hidden layer is an outer product and
every sum over hidden units is a matrix-vector product.  The fixed-point
inverse evaluates each residual k(z) with the forward sweep's stage code.

The stage code writes each stage's (hidden, points) arrays, and the small
operands of its matrix products, into stage buffers, which a caller that
sweeps more than once owns and passes again, rather than into fresh
temporaries.  Fresh temporaries are returned to the system when freed, once
the top of the heap exceeds glibc's trim threshold (128 KB) or a single array
its mmap threshold, so every sweep faulted its pages in again; the small
operands cost a numpy call each to build.  Training reuses one buffer set per
stage across its Adam steps (`trainer.TraceLoss`); `_map_jets` and the inverse
run large point sets a block of points at a time through one small buffer set.

A warp is one flat parameter vector theta, read-only, whose blocks are views
of its rows.  The bound is checked once, when the warp is built (from blocks,
from theta or from a checkpoint), and a warp outside it is refused, never
rescaled; every sweep uses the weights as stored.  Only `_project` (a fresh
warp, `init_flow_params`, and each Adam step's) and `normalize_block` rescale.

Warped-basis functions are recovered from the inverse map:

    phi_n^aug(x) = phi_n(G^-1(x)) / sqrt(G'(G^-1(x))),

which stays orthonormal for any parameter setting (a change of variables in
the overlap integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hermite import eval_hermite_functions

__all__ = [
    "ResidualBlock",
    "FlowParams",
    "Jet2",
    "FlowNumericsError",
    "ConvergenceError",
    "lipswish",
    "spectral_norm",
    "normalize_block",
    "flow_forward",
    "flow_jet",
    "flow_inverse",
    "evaluate_augmented_basis",
    "init_flow_params",
    "save_checkpoint",
    "load_checkpoint",
]

ATANH_CLIP = 1e-7  # guards the open endpoints of the sandwich interval

_CHECKPOINT_MAGIC = "hermflow-checkpoint"
_CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = {
    "hidden": int, "blocks": int, "lipschitz_margin": float, "alpha": float, "beta": float, "seed": int
}


class FlowNumericsError(RuntimeError):
    """Flow evaluation produced a non-finite value."""


class ConvergenceError(RuntimeError):
    """Fixed-point inversion did not reach the requested tolerance."""


@dataclass(frozen=True)
class ResidualBlock:
    """Weights of one residual stage k(u) = W_out @ lipswish(W_in @ u + b_in) + b_out."""

    w_in: np.ndarray  # (h, 1)
    b_in: np.ndarray  # (h,)
    w_out: np.ndarray  # (1, h)
    b_out: float

    @property
    def hidden(self) -> int:
        return self.w_in.shape[0]


# A weight that `_project` or `normalize_block` has just scaled onto sqrt(c) can measure up
# to 4 ulp (under 3 eps, relative) over it when its norm is summed again: margins 0.3 to
# 0.99, widths 1 to 4,096, weights 1 to 50 times over the bound.  Re-projecting it would
# move its bits, so the check allows 16 eps, and Lip(k) <= c (1 + 32 eps) < 1 still holds.
_NORM_SLACK = 16 * math.ulp(1.0)  # 16 eps


class FlowParams:
    """All trainable parameters of the bijection as one read-only flat vector `theta`: one
    or more residual blocks of one positive hidden width (`blocks`, views of theta's rows)
    and the sandwich's alpha and beta; plus the Lipschitz margin of every residual.  A warp
    built from blocks here, or from theta, passes the one check, `_from_vector`'s."""

    def __init__(self, blocks, alpha, beta, lipschitz_margin=0.97):
        blocks = tuple(blocks)
        widths = [b.hidden for b in blocks]
        if not widths or len(set(widths)) > 1 or widths[0] < 1:
            raise ValueError(f"a warp has one or more blocks of one positive width, got widths {widths}")
        theta = _to_vector([(b.w_in, b.b_in, b.w_out, b.b_out) for b in blocks], alpha, beta)
        # the warp that `_from_vector` builds, and checks, from the blocks' theta
        vars(self).update(vars(_from_vector(theta, widths[0], len(blocks), lipschitz_margin)))

    def __setattr__(self, name, value):
        raise AttributeError(f"a warp is read-only: build another with `with_vector` to change {name!r}")

    @property
    def n_parameters(self) -> int:
        return self.theta.size

    def with_vector(self, theta: np.ndarray) -> "FlowParams":
        """The warp of this one's shape whose parameters are a copy of theta."""
        theta = np.array(theta, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise ValueError(f"expected {self.n_parameters} parameters, got shape {theta.shape}")
        return _from_vector(theta, self.hidden, len(self.blocks), self.lipschitz_margin)


# The flat parameter vector theta, which checkpoints, gradients and Adam all use:
# per block a row of 3h + 1 values, w_in (h), b_in (h), w_out (h) and b_out; then
# alpha and beta.  `_to_vector` writes it and `_from_vector` reads it.


def _to_vector(rows, alpha, beta) -> np.ndarray:
    """theta from each block's (w_in, b_in, w_out, b_out), in block order, and alpha and beta."""
    return np.concatenate([np.ravel(p) for row in rows for p in row] + [[alpha, beta]], dtype=float)


def _from_vector(theta: np.ndarray, hidden: int, n_blocks: int, margin: float) -> FlowParams:
    """The warp of `n_blocks` blocks of width `hidden` whose flat parameters are theta, which
    it takes over and makes read-only; its blocks' arrays are views of theta.  This is the
    one check of a warp's values: a ValueError unless the margin lies in (0, 1), alpha is
    finite and positive, beta finite, and every weight inside Lip <= margin."""
    if not 0.0 < margin < 1.0:
        raise ValueError(f"lipschitz_margin must lie in (0, 1), got {margin}")
    alpha, beta = float(theta[-2]), float(theta[-1])
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    theta.flags.writeable = False
    h, bound = hidden, math.sqrt(margin) * (1.0 + _NORM_SLACK)
    blocks = []
    for k, r in enumerate(theta[:-2].reshape(n_blocks, 3 * h + 1)):
        w_in, w_out = r[:h], r[2 * h : -1]
        for name, w in (("w_in", w_in), ("w_out", w_out)):
            if not (sig := math.sqrt(w.dot(w))) <= bound:  # its spectral norm, as `_block_scales` sums it
                raise ValueError(
                    f"block {k}: |{name}| = {sig:.6g} exceeds sqrt(lipschitz_margin) = {bound:.6g}"
                )
        blocks.append(ResidualBlock(w_in.reshape(h, 1), r[h : 2 * h], w_out.reshape(1, h), float(r[-1])))
    params = object.__new__(FlowParams)  # __setattr__ refuses: a warp's attributes are set here
    vars(params).update(
        theta=theta, hidden=h, blocks=tuple(blocks), alpha=alpha, beta=beta, lipschitz_margin=margin
    )
    return params


def _project(theta: np.ndarray, hidden: int, n_blocks: int, margin: float) -> FlowParams:
    """The warp of theta (`_from_vector`) after each block's w_in and w_out in theta are
    rescaled in place onto Lip <= margin by `_block_scales` (a factor of exactly 1 is skipped)."""
    for row in theta[:-2].reshape(n_blocks, 3 * hidden + 1):
        s_in, s_out = _block_scales(row[:hidden], row[2 * hidden : 3 * hidden], margin)
        if s_in != 1.0:
            row[:hidden] *= s_in
        if s_out != 1.0:
            row[2 * hidden : 3 * hidden] *= s_out
    return _from_vector(theta, hidden, n_blocks, margin)


@dataclass
class Jet2:
    """Value and first two input-derivatives of a map at one point."""

    value: float
    d1: float
    d2: float


# ---------------------------------------------------------------------------
# activations and spectral normalization
# ---------------------------------------------------------------------------


def lipswish(x):
    """x * sigmoid(x) / 1.1; Lipschitz constant <= 1."""
    return x / (1.1 * (1.0 + np.exp(-x)))


def _stage_shapes(hidden: int, points: int) -> list:
    """Shapes of a stage's buffers: pre, sig, sig1, sig2, f0, f1, f2, f3, a scratch array
    and d = 1 - 2 sig, all (hidden, points); the pre-activation's operands, (hidden, 2)
    and (2, points); and the reverse sweep's three (points, 2) operands."""
    return [(hidden, points)] * 10 + [(hidden, 2), (2, points)] + [(points, 2)] * 3


def _stage_buffers(shape, dtype=float) -> list:
    """Room for one stage's arrays at shape = (hidden, points) (see `_stage_shapes`).

    They are separate arrays, not one stacked array: at hidden 128 and Q 90 each
    (hidden, points) array is 92 KB, below glibc's 128 KB mmap threshold, so they
    come from the heap.  A freed mapping of 128 KB or more would raise glibc's
    mmap and trim thresholds for the rest of the process, and so change how all
    the code around it allocates (and how fast it runs).
    """
    return [np.empty(s, dtype) for s in _stage_shapes(*shape)]


def _stage_views(store: list, hidden: int, points: int) -> list:
    """Contiguous views of a stage's arrays at (hidden, points) over the fronts of a
    stage buffer set of at least as many points, each array flattened."""
    return [flat[: math.prod(s)].reshape(s) for flat, s in zip(store, _stage_shapes(hidden, points))]


# The stage code writes every (hidden, points) array into its stage buffers by
# ufunc `out=`, in the order of operations of the expression quoted beside it,
# so reused buffers give the same bits as fresh arrays.


def _swish(buf):
    """sig = sigma(pre) and f0 = f(pre) = pre sig, where lipswish = f / 1.1."""
    pre, sig, _, _, f0 = buf[:5]
    np.negative(pre, out=sig)
    np.exp(sig, out=sig)
    np.add(1.0, sig, out=sig)
    np.divide(1.0, sig, out=sig)  # 1 / (1 + exp(-pre))
    np.multiply(pre, sig, out=f0)


def _swish_derivatives(buf):
    """sig1, sig2, f1, f2 = sigma', sigma'', f' and f'' at pre, given sig; d = 1 - 2 sig
    and the scratch array's 2 sig1 are left for `_swish_third_derivative`."""
    pre, sig, sig1, sig2, _, f1, f2, _, tmp, d = buf[:10]
    np.subtract(1.0, sig, out=sig1)
    np.multiply(sig, sig1, out=sig1)  # sig (1 - sig)
    np.multiply(2.0, sig, out=d)
    np.subtract(1.0, d, out=d)
    np.multiply(sig1, d, out=sig2)  # sig1 (1 - 2 sig)
    np.multiply(pre, sig1, out=f1)
    np.add(sig, f1, out=f1)  # sig + pre sig1
    np.multiply(2.0, sig1, out=tmp)
    np.multiply(pre, sig2, out=f2)
    np.add(tmp, f2, out=f2)  # 2 sig1 + pre sig2


def _swish_third_derivative(buf):
    """f3 = f''' at pre, from what `_swish_derivatives` left in the same buffers."""
    pre, _, sig1, sig2, _, _, _, f3, tmp, d = buf[:10]
    np.multiply(tmp, sig1, out=f3)  # (2 sig1) sig1
    np.multiply(sig2, d, out=tmp)
    np.subtract(tmp, f3, out=tmp)
    np.multiply(pre, tmp, out=tmp)
    np.multiply(3.0, sig2, out=f3)
    np.add(f3, tmp, out=f3)  # 3 sig2 + pre (sig2 (1 - 2 sig) - 2 sig1 sig1)


def spectral_norm(W: np.ndarray) -> float:
    """Largest singular value of the matrix W; 0 for a zero matrix.

    The flow's weights are rank-one, and `_block_scales` takes their norms in
    closed form; this general norm serves callers outside the solver.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {W.shape}")
    return float(np.linalg.norm(W, 2))


def _block_scales(w_in, w_out, c: float):
    """Factors min(1, sqrt(c)/|W|) bringing each weight W to spectral norm <= sqrt(c).

    The weights are an (h, 1) column and a (1, h) row (or their flat views in
    theta), whose only singular value is their Euclidean norm.  It is summed as
    `np.linalg.norm` sums it, so the scales have its bits.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"contraction constant must lie in (0, 1), got {c}")
    target = math.sqrt(c)
    sigmas = [math.sqrt(w.dot(w)) for w in (w_in.ravel(), w_out.ravel())]
    s_in, s_out = (1.0 if sig <= target else target / sig for sig in sigmas)
    return s_in, s_out


def normalize_block(block: ResidualBlock, c: float) -> ResidualBlock:
    """Rescale the block's weight matrices so that Lip(k) <= c.

    Each matrix W becomes W * min(1, sqrt(c)/sigma_max(W)); with the Lipswish
    Lipschitz constant <= 1 the residual map then contracts by at least c.
    """
    s_in, s_out = _block_scales(block.w_in, block.w_out, c)
    return replace(block, w_in=block.w_in * s_in, w_out=block.w_out * s_out)


# ---------------------------------------------------------------------------
# the sandwich map and its jets
# ---------------------------------------------------------------------------


def _preactivation(a, b_in, z0, buf):
    """pre0 = a z0 + b_in into `buf[0]`, as one rank-two product [a b_in] @ [z0; 1]
    (cheaper than an outer product) of operands written into `buf[10]` and `buf[11]`."""
    lhs, rhs = buf[10], buf[11]
    lhs[:, 0] = a
    lhs[:, 1] = b_in
    rhs[0] = z0
    rhs[1] = 1.0
    np.matmul(lhs, rhs, out=buf[0])


# Points per block of `_residual` and `_map_jets`, times the hidden width.  A block's
# stage buffers (10 arrays of 128 KB and the small operands) are made once per call and
# reused for every block; whole (128, 2001) temporaries are 2 MB each, which glibc maps
# afresh and returns on free, so every evaluation faulted them in again.
_BLOCK_ELEMENTS = 16_384


def _block_points(hidden: int) -> int:
    """Points per block: the largest power of two in _BLOCK_ELEMENTS // hidden, at least 32.

    Block edges at multiples of 32 points fall on the column groups of the BLAS
    kernels, so the blocks' products give the bits of one whole product (checked
    with OpenBLAS 0.3.31 for widths 1 to 3,000 on 30 to 2,001 points); other
    block sizes moved G'' by up to 36 ulps at widths such as 129.
    """
    return max(32, 1 << (max(1, _BLOCK_ELEMENTS // hidden).bit_length() - 1))


def _residual(block: ResidualBlock, a, c, z, store):
    """k(z) = c.f(a z + b_in) + b_out at the points of the 1-d array z, a block at a time.

    `store`, a stage buffer set for a block of points with each array flattened, is
    the work space; a caller iterating on z passes the same one every time.
    """
    k = np.empty_like(z)
    step = _block_points(a.size)
    for lo in range(0, z.size, step):
        chunk = z[lo : lo + step]
        buf = _stage_views(store, a.size, chunk.size)
        _preactivation(a, block.b_in, chunk, buf)
        _swish(buf)
        k[lo : lo + step] = c @ buf[4]
    return k + block.b_out


def _map_jets(params: FlowParams, x: np.ndarray):
    """The (3, points) array of G(x), G'(x) and G''(x), a block of points at a time.

    One set of stage buffers serves every stage and every block, since nothing
    is kept for a reverse sweep.
    """
    x = np.asarray(x, dtype=float)
    step = _block_points(params.hidden)
    store = [b.ravel() for b in _stage_buffers((params.hidden, min(x.size, step)))]
    jets = np.empty((3, x.size))
    for lo in range(0, x.size, step):
        chunk = x[lo : lo + step]
        views = [_stage_views(store, params.hidden, chunk.size)] * len(params.blocks)
        jets[:, lo : lo + step] = _jets_forward(params, chunk, views)[0]
    return jets


def _jets_forward(params: FlowParams, x: np.ndarray, buffers: list):
    """Forward sweep: ((G, G', G''), what `_jets_reverse` needs) at the points x.

    In a stage with weights a = w_in and c = w_out / 1.1 (lipswish is f(p)/1.1
    with f(p) = p sigmoid(p)), the pre-activations are
    pre0 = a z0 + b_in, pre1 = a z1 and pre2 = a z2.  With u = c*a and
    v = u*a the stage's jets are
        k0 = c.f(pre0) + b_out,  k1 = z1 (u.f'(pre0)),
        k2 = z1^2 (v.f''(pre0)) + z2 (u.f'(pre0)),
    so only pre0 and f, f', f'' are (hidden, points) arrays.

    `buffers` holds one set of stage buffers (`_stage_buffers`) at
    (hidden, points) per stage, of the dtype of that stage's arrays (complex
    from the first stage with complex inputs on).  The stage's arrays are
    written there and `saved` refers to them, so they must stay untouched
    until the reverse sweep, which runs once on them (its f''' overwrites the
    2 sig1 that `_swish_derivatives` leaves for it).
    """
    x = np.asarray(x, dtype=float)
    alpha, beta = params.alpha, params.beta
    lo, hi = -1.0 + ATANH_CLIP, 1.0 - ATANH_CLIP
    raw = (x - beta) / alpha
    inside = ((raw > lo) & (raw < hi)).astype(float)
    t0 = np.clip(raw, lo, hi)
    t1 = inside / alpha
    up = 1.0 / (1.0 - t0 * t0)
    z0, z1, z2 = np.arctanh(t0), up * t1, 2.0 * t0 * up * up * t1 * t1
    stages = []
    for block, buf in zip(params.blocks, buffers, strict=True):
        a, c = np.ravel(block.w_in), np.ravel(block.w_out) / 1.1
        u = c * a
        v = u * a
        _preactivation(a, block.b_in, z0, buf)
        _swish(buf)
        _swish_derivatives(buf)
        p1, p2 = u @ buf[5], v @ buf[6]
        stages.append((a, c, u, v, z0, z1, z2, buf, p1, p2))
        z0, z1, z2 = z0 + c @ buf[4] + block.b_out, z1 + z1 * p1, z2 + z1 * z1 * p2 + z2 * p1
    g = np.tanh(z0)
    gp = 1.0 - g * g
    gpp = -2.0 * g * gp
    d1, d2 = gp * z1, gpp * z1 * z1 + gp * z2  # G'/alpha, G''/alpha
    jets = (g * alpha + beta, d1 * alpha, d2 * alpha)
    saved = (raw, inside, t0, t1, up, stages, g, gp, gpp, z1, z2, d1, d2)
    return jets, saved


def _jets_reverse(params: FlowParams, saved, bar0, bar1, bar2) -> np.ndarray:
    """Reverse sweep of `_jets_forward`.

    Given the adjoints dL/dG, dL/dG', dL/dG'' at each point, returns dL/dtheta
    in `params.theta` order, written by `_to_vector`.  A stage's pre0 adjoint is
    f'(pre0) c z0_bar + f''(pre0) u p1_bar + f'''(pre0) v p2_bar (outer products
    of hidden and point vectors); it is used only through its sums against 1, z0
    and a, so it is never formed.
    """
    alpha = params.alpha
    raw, inside, t0, t1, up, stages, g, gp, gpp, z1, z2, d1, d2 = saved
    # G = alpha g + beta, G' = alpha d1, G'' = alpha d2 with d1 = gp z1, d2 = gpp z1^2 + gp z2
    alpha_bar = float(bar0 @ g + bar1 @ d1 + bar2 @ d2)
    beta_bar = float(bar0.sum())
    gpp_bar = alpha * bar2 * z1 * z1
    gp_bar = alpha * (bar1 * z1 + bar2 * z2) - 2.0 * g * gpp_bar
    g_bar = alpha * bar0 - 2.0 * gp * gpp_bar - 2.0 * g * gp_bar
    z0_bar = g_bar * gp
    z1_bar = alpha * (bar1 * gp + 2.0 * bar2 * gpp * z1)
    z2_bar = alpha * bar2 * gp
    pieces = []
    for a, c, u, v, z0, z1, z2, buf, p1, p2 in reversed(stages):
        # z + k(z): the identity passes the adjoints through, k adds to them
        p1_bar = z1_bar * z1 + z2_bar * z2
        p2_bar = z2_bar * z1 * z1
        _swish_third_derivative(buf)
        f0, f1, f2, f3 = buf[4:8]
        # m_i = f_i @ [bar, bar z0], with the (points, 2) operands in the stage's buffers
        for op, bar in zip(buf[12:], (z0_bar, p1_bar, p2_bar)):
            op[:, 0] = bar
            np.multiply(bar, z0, out=op[:, 1])
        m1, m2, m3 = f1 @ buf[12], f2 @ buf[13], f3 @ buf[14]
        b_in_bar, pre_bar_z0 = (c[:, None] * m1 + u[:, None] * m2 + v[:, None] * m3).T
        u_bar, v_bar = f1 @ p1_bar, f2 @ p2_bar
        a_bar = pre_bar_z0 + (u_bar + 2.0 * v_bar * a) * c
        c_bar = f0 @ z0_bar + (u_bar + v_bar * a) * a
        pieces.append((a_bar, b_in_bar, (1.0 / 1.1) * c_bar, z0_bar.sum()))
        # z0 gains a.pre0_bar, where u.f' = p1 and v.f'' = p2
        z0_bar = z0_bar + p1 * z0_bar + p2 * p1_bar + ((v * a) @ f3) * p2_bar
        z1_bar, z2_bar = z1_bar + z1_bar * p1 + 2.0 * z2_bar * z1 * p2, z2_bar + z2_bar * p1
    # z0 = atanh(t0), z1 = up t1, z2 = 2 t0 up^2 t1^2 with up = 1/(1 - t0^2)
    up_bar = z1_bar * t1 + 4.0 * z2_bar * t0 * up * t1 * t1
    t1_bar = z1_bar * up + 4.0 * z2_bar * t0 * up * up * t1
    t0_bar = (z0_bar + 2.0 * z2_bar * up * t1 * t1 + 2.0 * up_bar * t0 * up) * up
    raw_bar = t0_bar * inside
    # raw = (x - beta)/alpha, t1 = inside/alpha
    alpha_bar -= float(raw_bar @ raw + t1_bar @ t1) / alpha
    beta_bar -= float(raw_bar.sum()) / alpha
    return _to_vector(reversed(pieces), alpha_bar, beta_bar)


def flow_forward(params: FlowParams, x):
    """G(x) for a scalar or array of points inside the sandwich interval."""
    return flow_jet(params, x).value


def flow_jet(params: FlowParams, x) -> Jet2:
    """G, G' and G'' at x (scalar in, scalar jet out; arrays pass through)."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    jets = _map_jets(params, np.atleast_1d(np.asarray(x, dtype=float)))
    if not np.all(np.isfinite(jets)):
        bad = np.atleast_1d(x)[~np.isfinite(jets).all(axis=0)][0]
        raise FlowNumericsError(f"flow jet produced a non-finite value at x={bad}")
    g, d1, d2 = jets
    if scalar:
        return Jet2(float(g[0]), float(d1[0]), float(d2[0]))
    return Jet2(g, d1, d2)


def flow_inverse(
    params: FlowParams,
    y,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    return_iterations: bool = False,
):
    """G^{-1}(y) by unwrapping the sandwich and fixed-point iteration.

    The affine-tanh layers invert in closed form; each residual stage
    z + k(z) = w is solved by z_{t+1} = w - k(z_t), a contraction with rate
    at most the Lipschitz margin c.  Iteration stops once successive
    iterates differ by less than `tol`.  With `return_iterations` the total
    fixed-point iteration count comes back alongside the result.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    scalar = np.isscalar(y) or np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = -1.0 + ATANH_CLIP, 1.0 - ATANH_CLIP
    w = np.arctanh(np.clip((y - params.beta) / params.alpha, lo, hi))
    total_iters = 0
    points = min(y.size, _block_points(params.hidden))
    store = [b.ravel() for b in _stage_buffers((params.hidden, points))]
    for block in reversed(params.blocks):
        a, c = np.ravel(block.w_in), np.ravel(block.w_out) / 1.1
        z = w.copy()
        for _ in range(max_iter):
            z_next = w - _residual(block, a, c, z, store)
            total_iters += 1
            step = np.abs(z_next - z).max(initial=0.0)
            z = z_next
            if step < tol:
                break
        else:
            raise ConvergenceError(
                f"fixed-point inversion stalled after {max_iter} iterations "
                f"(last step {step:.3e}, tol {tol:.1e})"
            )
        w = z
    x = np.tanh(w) * params.alpha + params.beta
    result = float(x[0]) if scalar else x
    return (result, total_iters) if return_iterations else result


def evaluate_augmented_basis(params: FlowParams, n_max: int, x) -> np.ndarray:
    """Warped-basis values phi_n(G^{-1}(x)) / sqrt(G'(G^{-1}(x))), n = 0..n_max."""
    y = flow_inverse(params, np.atleast_1d(np.asarray(x, dtype=float)))
    jets = flow_jet(params, y)
    vals = eval_hermite_functions(n_max, y) / np.sqrt(jets.d1)
    return vals[:, 0] if (np.isscalar(x) or np.ndim(x) == 0) else vals


# ---------------------------------------------------------------------------
# initialization and checkpoints
# ---------------------------------------------------------------------------


def init_flow_params(
    hidden: int = 128,
    n_blocks: int = 1,
    lipschitz_margin: float = 0.97,
    alpha: float = 1.0,
    beta: float = 0.0,
    seed: int = 0,
) -> FlowParams:
    """Near-identity starting point for training.

    Input weights are drawn uniformly from (-1e-2, 1e-2); output weights and
    all biases start at zero, so every residual vanishes and G is exactly the
    identity on its interval.  Epoch-0 results therefore coincide with the
    plain Hermite scheme.  `alpha` should cover the outermost quadrature node
    with some margin (the trainer uses 1.05 * max |x_q|).
    """
    rng = np.random.default_rng(seed)
    theta = np.zeros(n_blocks * (3 * hidden + 1) + 2)
    for row in theta[:-2].reshape(n_blocks, 3 * hidden + 1):
        row[:hidden] = rng.uniform(-1e-2, 1e-2, size=hidden)
    theta[-2:] = alpha, beta
    return _project(theta, hidden, n_blocks, lipschitz_margin)


def save_checkpoint(params: FlowParams, path, seed: int = 0) -> None:
    """Write a versioned text checkpoint (architecture, alpha/beta, flat weights).

    `load_checkpoint` reads finite weights only, so a warp with a non-finite
    weight is refused before the file is opened.
    """
    theta = params.theta[:-2]  # block parameters only; alpha/beta are header fields
    _check_finite_weights(path, theta)
    lines = [
        f"{_CHECKPOINT_MAGIC} v{_CHECKPOINT_VERSION}",
        f"hidden = {params.hidden}",
        f"blocks = {len(params.blocks)}",
        f"lipschitz_margin = {float(params.lipschitz_margin)!r}",
        f"alpha = {float(params.alpha)!r}",
        f"beta = {float(params.beta)!r}",
        f"seed = {seed}",
        "params:",
    ]
    lines.extend(repr(float(v)) for v in theta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_finite_weights(path, theta: np.ndarray) -> None:
    """Raise a ValueError naming the file and the first non-finite weight's index."""
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"{path}: non-finite weight at index {bad[0]}")


def _parse(path, what: str, text: str, kind):
    """kind(text), or a ValueError naming the file and what the text is."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{path}: {what} is not a valid {kind.__name__}: {text!r}") from None


def load_checkpoint(path) -> tuple[FlowParams, int]:
    """Read a checkpoint written by `save_checkpoint`; returns (params, seed)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(_CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a flow checkpoint")
    if lines[0] != f"{_CHECKPOINT_MAGIC} v{_CHECKPOINT_VERSION}":
        raise ValueError(f"{path}: unsupported checkpoint version {lines[0]!r}")
    header = {}
    body_at = None
    for i, ln in enumerate(lines[1:], start=1):
        if ln == "params:":
            body_at = i + 1
            break
        key, sep, val = ln.partition("=")
        key = key.strip()
        if not sep or key not in _CHECKPOINT_HEADER:
            raise ValueError(f"{path}: unknown header line {ln!r}")
        if key in header:
            raise ValueError(f"{path}: header key {key!r} is repeated")
        header[key] = val.strip()
    if body_at is None:
        raise ValueError(f"{path}: missing parameter section")
    fields = []
    for key, kind in _CHECKPOINT_HEADER.items():
        if key not in header:
            raise ValueError(f"{path}: header key {key!r} is missing")
        fields.append(_parse(path, f"header key {key!r}", header[key], kind))
    hidden, n_blocks, margin, alpha, beta, seed = fields
    if hidden < 1 or n_blocks < 1:
        raise ValueError(f"{path}: hidden and blocks must be >= 1, got {hidden} and {n_blocks}")
    theta = np.array(
        [_parse(path, f"weight at index {i}", v, float) for i, v in enumerate(lines[body_at:])]
    )
    if theta.size != n_blocks * (3 * hidden + 1):
        raise ValueError(f"{path}: expected {n_blocks * (3 * hidden + 1)} weights, got {theta.size}")
    _check_finite_weights(path, theta)
    try:
        return _from_vector(np.concatenate([theta, [alpha, beta]]), hidden, n_blocks, margin), seed
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
