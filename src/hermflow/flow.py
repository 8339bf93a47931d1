"""Trainable bijection warping the Hermite basis.

The map G is an affine-tanh sandwich around an invertible residual network:

    G(x) = tanh(F(atanh((x - beta)/alpha))) * alpha + beta,
    F    = (id + k_L) o ... o (id + k_1),

where each residual k is a one-hidden-layer network with Lipswish
activations whose weights have spectral norm at most sqrt(c), so that
Lip(k) <= c < 1.  That bound makes every residual stage a contraction, hence
F (and G) is a strictly increasing bijection of the open interval
(beta - alpha, beta + alpha) onto itself, inverted stage by stage by Newton's
method (each stage's derivative 1 + k' lies in [1 - c, 1 + c]).  That interval is the
warp's one domain, which `_check_inside` decides for every entry point.

First and second derivatives with respect to the input are propagated
alongside the value as order-2 jets; Galerkin assembly and the trace loss
need G, G' and G'' at every quadrature node.  The jets are computed on plain
arrays by one forward sweep, whose reverse sweep (`_jets_reverse`) gives the
gradient of any function of the jets with respect to every parameter.  The
weights are rank-one, so each stage's hidden layer is an outer product and
every sum over hidden units is a matrix-vector product.  At points, `flow_jet` is
the one checked entry to the jets, at the order asked: `flow_forward` reads G from
its order-1 jets, and `evaluate_augmented_basis` G' at the preimages.  The inverse
evaluates each stage's k(z) and k'(z) with the forward sweep's stage code, its
first-order half: none of them reads a second derivative, so none computes one.

The stage code holds the pre-activation negated (see `_swish`), and the jets and
their adjoints as (order + 1, points) arrays, order 2 wherever G'' or a gradient
is read.

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
of its rows.  Its one builder, `_from_vector`, checks its shape, finiteness and
bound in one pass; it rescales a weight outside the bound onto it for a fresh
warp, an Adam step's and `normalize_block`'s, and refuses it otherwise.  Every
sweep uses the weights as stored.

Warped-basis functions are recovered from the inverse map:

    phi_n^aug(x) = phi_n(G^-1(x)) / sqrt(G'(G^-1(x))),

which stays orthonormal for any parameter setting (a change of variables in
the overlap integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import eval_hermite_functions

__all__ = [
    "ResidualBlock",
    "FlowParams",
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

_CHECKPOINT_MAGIC = "hermflow-checkpoint"
_CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = {
    "hidden": int, "blocks": int, "lipschitz_margin": float, "alpha": float, "beta": float, "seed": int
}


class FlowNumericsError(RuntimeError):
    """Flow evaluation produced a non-finite value."""


class ConvergenceError(RuntimeError):
    """Newton inversion of a residual stage did not settle within `_NEWTON_STEPS` steps."""


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


# A weight that the builder has just scaled onto sqrt(c) can measure up to 4 ulp (under
# 3 eps, relative) over it when its norm is summed again: margins 0.3 to 0.99, widths 1 to
# 4,096, weights 1 to 50 times over the bound.  Re-projecting it would move its bits, so the
# check allows 16 eps, and Lip(k) <= c (1 + 32 eps) < 1 still holds.
_NORM_SLACK = 16 * math.ulp(1.0)  # 16 eps


class FlowParams:
    """All trainable parameters of the bijection as one read-only flat vector `theta`: one
    or more residual blocks of one positive hidden width (`blocks`, views of theta's rows)
    and the sandwich's alpha and beta; plus the Lipschitz margin of every residual.  A warp
    built from blocks here, or from theta, passes the one check, `_from_vector`'s."""

    def __init__(self, blocks, alpha, beta, lipschitz_margin=0.97):
        blocks = tuple(blocks)
        h, theta = _block_vector(blocks, alpha, beta)
        # the warp that `_from_vector` builds, and checks, from the blocks' theta
        vars(self).update(vars(_from_vector(theta, h, len(blocks), lipschitz_margin)))

    def __setattr__(self, name, value):
        raise AttributeError(f"a warp is read-only: build another with `with_vector` to change {name!r}")

    @property
    def n_parameters(self) -> int:
        return self.theta.size

    def with_vector(self, theta: np.ndarray) -> "FlowParams":
        """The warp of this one's shape whose parameters are a copy of theta."""
        theta = np.array(theta, dtype=float)
        return _from_vector(theta, self.hidden, len(self.blocks), self.lipschitz_margin)


# The flat parameter vector theta, which checkpoints, gradients and Adam all use:
# per block a row of 3h + 1 values, w_in (h), b_in (h), w_out (h) and b_out; then
# alpha and beta.  `_block_vector` and `_jets_reverse` write it, `_from_vector` reads it.


def _block_vector(blocks, alpha, beta) -> tuple[int, np.ndarray]:
    """(h, theta) of the blocks, alpha and beta, with h the first block's width; a ValueError
    unless every block's w_in, b_in and w_out hold h values each and its b_out one."""
    h = blocks[0].hidden if blocks else 0
    for k, b in enumerate(blocks):
        if (sizes := tuple(map(np.size, (b.w_in, b.b_in, b.w_out, b.b_out)))) != (h, h, h, 1):
            raise ValueError(f"block {k}: w_in, b_in, w_out, b_out hold {sizes} values, not {h, h, h, 1}")
    parts = [np.ravel(p) for b in blocks for p in (b.w_in, b.b_in, b.w_out, b.b_out)]
    return h, np.concatenate(parts + [[alpha, beta]], dtype=float)


@np.errstate(over="ignore")
def _overflow_safe_norm(w: np.ndarray) -> float:
    """|w| for a weight whose plain sum of squares may overflow (an entry above about 1e154):
    that sum while it is finite, else max |w| times the norm of w / max |w|."""
    sig, m = math.sqrt(w.dot(w)), np.abs(w).max()
    return sig if math.isfinite(sig) else float(m * math.sqrt((w / m).dot(w / m)))


def _from_vector(
    theta: np.ndarray, hidden: int, n_blocks: int, margin: float, project: bool = False
) -> FlowParams:
    """The warp of `n_blocks` blocks of width `hidden` whose flat parameters are theta, which
    it takes over and makes read-only (its blocks' arrays are views of theta), checked in one
    pass: a ValueError unless it has blocks of a positive width, theta their shape, finite
    values, a margin in (0, 1), alpha > 0 and every weight inside Lip <= margin.  With
    `project`, a weight outside is rescaled in theta onto it (w *= sqrt(margin)/|w|) instead."""
    if hidden < 1 or n_blocks < 1:
        raise ValueError(f"a warp has one or more blocks of a positive width, got {n_blocks} of {hidden}")
    h, n = hidden, n_blocks * (3 * hidden + 1) + 2
    if theta.shape != (n,):
        raise ValueError(f"expected {n} parameters, got shape {theta.shape}")
    if not np.isfinite(top := np.abs(theta).max()):  # NaN or inf exactly when theta holds one
        i = int(np.flatnonzero(~np.isfinite(theta))[0])
        raise ValueError(f"non-finite {({n - 2: 'alpha', n - 1: 'beta'}).get(i, 'weight')} at index {i}")
    if not 0.0 < margin < 1.0:
        raise ValueError(f"lipschitz_margin must lie in (0, 1), got {margin}")
    if not (alpha := float(theta[-2])) > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    target = math.sqrt(margin)
    bound = target * (1.0 + _NORM_SLACK)
    for k, r in enumerate(theta[:-2].reshape(n_blocks, 3 * h + 1)):
        for name, w in (("w_in", r[:h]), ("w_out", r[2 * h : -1])):
            # its spectral norm (w is rank-one), as np.linalg.norm sums it; below 1e150 that sum cannot overflow
            sig = math.sqrt(w.dot(w)) if top < 1e150 else _overflow_safe_norm(w)
            if project and sig > target:
                w *= target / sig
            elif sig > bound:
                raise ValueError(
                    f"block {k}: |{name}| = {sig:.6g} exceeds sqrt(lipschitz_margin) = {bound:.6g}"
                )
    theta.flags.writeable = False  # before the blocks' views are taken: views taken earlier stay writable
    blocks = []
    for r in theta[:-2].reshape(n_blocks, 3 * h + 1):
        block = object.__new__(ResidualBlock)  # frozen: its fields are set here, not by field-wise __init__
        vars(block).update(w_in=r[:h, None], b_in=r[h : 2 * h], w_out=r[None, 2 * h : -1], b_out=float(r[-1]))
        blocks.append(block)
    params = object.__new__(FlowParams)  # __setattr__ refuses: a warp's attributes are set here
    vars(params).update(
        theta=theta, hidden=h, blocks=tuple(blocks), alpha=alpha, beta=float(theta[-1]),
        lipschitz_margin=margin,
    )
    return params


# ---------------------------------------------------------------------------
# activations and spectral normalization
# ---------------------------------------------------------------------------


def lipswish(x):
    """x * sigmoid(x) / 1.1; Lipschitz constant <= 1."""
    return x / (1.1 * (1.0 + np.exp(-x)))


def _stage_shapes(hidden: int, points: int) -> list:
    """Shapes of a stage's buffers: npre, sig, sig1, sig2, nf0, f1, f2, f3, a scratch array and
    d = 1 - 2 sig, all (hidden, points); the sweeps' product operands and reverse products."""
    return [(hidden, points)] * 10 + [(hidden, 2), (2, points), (6, points), (3, 3, hidden)]


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
# so reused buffers give the same bits as fresh arrays.  With npre = -pre, sigma takes no
# negation pass, nf0 = -f0, and f_k = ... + pre s_k is ... - npre s_k: the same bits.


def _swish(buf):
    """sig = sigma(pre) and nf0 = -f(pre) = npre sig from npre = -pre, where lipswish = f / 1.1."""
    npre, sig, _, _, nf0 = buf[:5]
    np.exp(npre, out=sig)
    np.add(1.0, sig, out=sig)
    np.divide(1.0, sig, out=sig)  # 1 / (1 + exp(-pre))
    np.multiply(npre, sig, out=nf0)


def _swish_first_derivative(buf):
    """sig1, f1 = sigma' and f' at pre, given sig; d = 1 - sig is left for
    `_swish_second_derivative`.  The inverse's Newton step reads no more than this."""
    npre, sig, sig1, _, _, f1, _, _, _, d = buf[:10]
    np.subtract(1.0, sig, out=d)
    np.multiply(sig, d, out=sig1)  # sig (1 - sig)
    np.multiply(npre, sig1, out=f1)
    np.subtract(sig, f1, out=f1)  # sig + pre sig1


def _swish_second_derivative(buf):
    """sig2, f2 = sigma'' and f'' at pre, from what `_swish_first_derivative` left; d = 1 - 2 sig
    and the scratch array's 2 sig1 are left for `_swish_third_derivative`."""
    npre, sig, sig1, sig2, _, _, f2, _, tmp, d = buf[:10]
    np.subtract(d, sig, out=d)  # (1 - sig) - sig
    np.multiply(sig1, d, out=sig2)  # sig1 (1 - 2 sig)
    np.multiply(2.0, sig1, out=tmp)
    np.multiply(npre, sig2, out=f2)
    np.subtract(tmp, f2, out=f2)  # 2 sig1 + pre sig2


def _swish_third_derivative(buf):
    """f3 = f''' at pre, from what `_swish_second_derivative` left in the same buffers: the
    reverse sweep's, after an order-2 forward sweep."""
    npre, _, sig1, sig2, _, _, _, f3, tmp, d = buf[:10]
    np.multiply(tmp, sig1, out=f3)  # (2 sig1) sig1
    np.multiply(sig2, d, out=tmp)
    np.subtract(tmp, f3, out=tmp)
    np.multiply(npre, tmp, out=tmp)
    np.multiply(3.0, sig2, out=f3)
    np.subtract(f3, tmp, out=f3)  # 3 sig2 + pre (sig2 (1 - 2 sig) - 2 sig1 sig1)


def spectral_norm(W: np.ndarray) -> float:
    """Largest singular value of the matrix W; 0 for a zero matrix.

    The flow's weights are rank-one, and `_from_vector` takes their norms in
    closed form; this general norm serves callers outside the solver.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {W.shape}")
    return float(np.linalg.norm(W, 2))


def normalize_block(block: ResidualBlock, c: float) -> ResidualBlock:
    """The block with each weight W rescaled to W * min(1, sqrt(c)/sigma_max(W)), so that the
    residual contracts by at least c (Lipswish is 1-Lipschitz); its arrays are read-only views
    of the theta of a one-block warp that `_from_vector` projects."""
    h, theta = _block_vector([block], 1.0, 0.0)
    return _from_vector(theta, h, 1, c, project=True).blocks[0]


# ---------------------------------------------------------------------------
# the sandwich map and its jets
# ---------------------------------------------------------------------------


def _preactivation(a, b_in, z0, buf):
    """npre0 = -(a z0 + b_in) into `buf[0]`, as one rank-two product [a b_in] @ [-z0; -1]
    (cheaper than an outer product) of operands written into `buf[10]` and `buf[11]`."""
    lhs, rhs = buf[10], buf[11]
    lhs[:, 0] = a
    lhs[:, 1] = b_in
    np.negative(z0, out=rhs[0])
    rhs[1] = -1.0
    np.matmul(lhs, rhs, out=buf[0])


# Points per block of `_map_jets` and `flow_inverse`, times the hidden width.  A block's
# stage buffers (10 arrays of 128 KB and the small operands), and their views at each
# block size, are made once per call and reused for every block; whole (128, 2001)
# temporaries are 2 MB each, which glibc maps afresh and returns on free, so every
# evaluation faulted them in again.
_BLOCK_ELEMENTS = 16_384


def _block_points(hidden: int) -> int:
    """Points per block: the largest power of two in _BLOCK_ELEMENTS // hidden, at least 32.

    Block edges at multiples of 32 points fall on the column groups of the BLAS
    kernels, so the blocks' products give the bits of one whole product (checked
    with OpenBLAS 0.3.31 for widths 1 to 3,000 on 30 to 2,001 points); other
    block sizes moved G'' by up to 36 ulps at widths such as 129.
    """
    return max(32, 1 << (max(1, _BLOCK_ELEMENTS // hidden).bit_length() - 1))


def _point_blocks(hidden: int, points: int) -> list:
    """(slice, stage views) for each block of `points` points, all over one stage buffer
    set, with the views made once per block size (at most two)."""
    step = _block_points(hidden)
    store = [b.ravel() for b in _stage_buffers((hidden, min(points, step)))]
    sizes = [min(step, points - lo) for lo in range(0, points, step)]
    views = {n: _stage_views(store, hidden, n) for n in set(sizes)}
    return [(slice(lo, lo + n), views[n]) for lo, n in zip(range(0, points, step), sizes)]


def _map_jets(params: FlowParams, x: np.ndarray, order: int = 2):
    """The (order + 1, points) array of G(x), G'(x) and, at order 2, G''(x), a block of
    points at a time (`_jets_forward` at that order).

    One set of stage buffers serves every stage and every block, since nothing
    is kept for a reverse sweep.
    """
    jets = np.empty((order + 1, x.size))
    for part, views in _point_blocks(params.hidden, x.size):
        jets[:, part] = _jets_forward(params, x[part], [views] * len(params.blocks), order)[0]
    return jets


def _unit_interval(params: FlowParams, x: np.ndarray):
    """(raw, inside) at the points x: raw = (x - beta)/alpha, the map to the unit interval, and
    inside = |raw| < 1, the points of the warp's open interval (a NaN is not inside)."""
    raw = (x - params.beta) / params.alpha
    return raw, np.abs(raw) < 1.0


def _check_inside(params: FlowParams, x: np.ndarray, name: str, error: type) -> np.ndarray:
    """raw at the points x (`_unit_interval`), once `error` has named the first point not inside."""
    raw, inside = _unit_interval(params, x)
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        raise error(f"{name}[{i}] = {x[i]} lies outside the warp's interval (beta - alpha, beta + alpha)"
                    f" = ({params.beta - params.alpha!r}, {params.beta + params.alpha!r})")
    return raw


def _jets_forward(params: FlowParams, x: np.ndarray, buffers: list, order: int = 2):
    """Forward sweep at checked points: (the jets as an (order + 1, points) array, what
    `_jets_reverse` needs).  The jets are G and G' at order 1, and G, G' and G'' at order 2.

    In a stage with weights a = w_in and c = w_out / 1.1 (lipswish is f(p)/1.1
    with f(p) = p sigmoid(p)), the pre-activations are
    pre0 = a z0 + b_in, pre1 = a z1 and pre2 = a z2.  With u = c*a and
    v = u*a the stage's jets are
        k0 = c.f(pre0) + b_out,  k1 = z1 (u.f'(pre0)),
        k2 = z1^2 (v.f''(pre0)) + z2 (u.f'(pre0)),
    so only pre0 and f, f', f'' are (hidden, points) arrays.  Order 1 forms no
    f'', k2 or G'' (`_swish_second_derivative` is not called); every value it
    does form takes the same operations as at order 2, so it has the same bits.

    `buffers` holds one set of stage buffers (`_stage_buffers`) at
    (hidden, points) per stage, of the dtype of that stage's arrays (complex
    from the first stage with complex inputs on).  The stage's arrays are
    written there and `saved` refers to them, so they must stay untouched
    until the reverse sweep, which runs once on them (its f''' overwrites the
    2 sig1 that `_swish_second_derivative` leaves for it).  Only an order-2
    sweep leaves what the reverse sweep reads: order 1 saves no f'', p2 or G''.
    """
    alpha, beta = params.alpha, params.beta
    t0 = (x - beta) / alpha
    up = 1.0 / (1.0 - t0 * t0)
    z = np.empty((order + 1, x.size), t0.dtype)
    np.arctanh(t0, out=z[0])
    z1 = np.multiply(up, 1.0 / alpha, out=z[1])
    if order == 2:
        np.multiply((t0 + t0) * z1, z1, out=z[2])  # 2 t0 up^2 / alpha^2
    stages = []
    for block, buf in zip(params.blocks, buffers, strict=True):
        a = block.w_in.ravel()
        cuv = np.multiply.accumulate(np.array((block.w_out.ravel() / 1.1, a, a, a)))  # c, u, v, v a
        _preactivation(a, block.b_in, z[0], buf)
        _swish(buf)
        _swish_first_derivative(buf)
        p1, p2 = cuv[1].dot(buf[5]), None
        dz = z * p1  # rows past 0: z1 p1 and, at order 2, z2 p1
        np.subtract(block.b_out, cuv[0].dot(buf[4]), out=dz[0])  # c.f0 + b_out
        if order == 2:
            _swish_second_derivative(buf)
            p2 = cuv[2].dot(buf[6])
            dz[2] += z[1] * z[1] * p2
        stages.append((a, cuv, z, buf, p1, p2))
        z = z + dz
    r = np.empty((order + 1, x.size), z.dtype)  # g, G'/alpha and G''/alpha
    g = np.tanh(z[0], out=r[0])
    gp = 1.0 - g * g
    np.multiply(gp, z[1], out=r[1])
    gpp = None
    if order == 2:
        gpp = -2.0 * g * gp
        np.add(gpp * z[1] * z[1], gp * z[2], out=r[2])
    jets = r * alpha
    jets[0] += beta
    return jets, (t0, up, z1, stages, gp, gpp, z, r)


def _jets_reverse(params: FlowParams, saved, bars) -> np.ndarray:
    """Reverse sweep of `_jets_forward`.

    Given the (3, points) adjoints dL/dG, dL/dG', dL/dG'' at each point, returns
    dL/dtheta, each block's adjoint written into its row of theta's layout.  A
    stage's pre0 adjoint is f'(pre0) c z0_bar + f''(pre0) u p1_bar
    + f'''(pre0) v p2_bar; it is used only through its sums against 1, z0 and a,
    so it is never formed.
    """
    alpha, h = params.alpha, params.hidden
    t0, up, z1_in, stages, gp, gpp, z, r = saved
    grad = np.empty(params.n_parameters)
    rows = grad[:-2].reshape(len(stages), 3 * h + 1)
    b = bars * alpha  # dL/d(g, d1, d2)
    # d1 = gp z1, d2 = gpp z1^2 + gp z2 with gp = 1 - g^2, gpp = -2 g gp
    zb = b * gp  # rows 1 and 2 start z1_bar and z2_bar
    q = b[2] * z[1]
    e = b[1] * z[1] + b[2] * z[2]  # d(d1, d2)/dg = -2 g (z1, z2) + (0, z1^2 dgpp/dg)
    g_bar = b[0] - (r[0] + r[0]) * e + q * z[1] * (4.0 - 6.0 * gp)  # dgpp/dg = 6 g^2 - 2
    np.multiply(g_bar, gp, out=zb[0])
    zb[1] += (q + q) * gpp
    for row, (a, cuv, z, buf, p1, p2) in zip(rows[::-1], reversed(stages)):
        # z + k(z): the identity passes the adjoints through, k adds to them
        _swish_third_derivative(buf)
        (nf0, f1, f2, f3), (w, m) = buf[4:8], buf[12:]
        # w's rows: z0_bar, p1_bar = z1_bar z1 + z2_bar z2, p2_bar = z2_bar z1^2, each then times z0
        w[0] = zb[0]
        np.add(*(zb[1:] * z[1:]), out=w[2])
        np.multiply(q := zb[2] * z[1], z[1], out=w[4])
        np.multiply(w[::2], z[0], out=w[1::2])
        # m_i = [bar, bar z0, next bar] @ f_i^T: pre0_bar's sums against 1 and z0, u_bar, v_bar
        np.dot(w[0:3], f1.T, out=m[0])
        np.dot(w[2:5], f2.T, out=m[1])
        np.dot(w[4:6], f3.T, out=m[2, :2])
        b_in_bar, pre_bar_z0 = (cuv[:3, None] * m[:, :2]).sum(axis=0)
        va = m[1, 2] * a
        s1 = m[0, 2] + va  # u_bar + v_bar a
        # a_bar = pre_bar.z0 + (u_bar + 2 v_bar a) c, as u = c a and v = c a^2
        np.add(pre_bar_z0, (s1 + va) * cuv[0], out=row[:h])
        row[h : 2 * h] = b_in_bar
        # w_out = 1.1 c, and c_bar = (u_bar + v_bar a) a + f0 @ z0_bar
        np.multiply(s1 * a - nf0.dot(w[0]), 1.0 / 1.1, out=row[2 * h : 3 * h])
        row[3 * h] = w[0].sum()
        # z0 gains a.pre0_bar, where u.f' = p1 and v.f'' = p2
        nb = zb * p1 + zb
        nb[0] += p2 * w[2] + cuv[3].dot(f3) * w[4]
        nb[1] += (q + q) * p2
        zb = nb
    # z0 = atanh(t0), z1 = up t1, z2 = 2 t0 z1^2 with up = 1/(1 - t0^2), t1 = 1/alpha
    z0_bar, z1_bar, z2_bar = zb
    tz = t0 * z1_in
    z1_bar += 4.0 * tz * z2_bar  # with z2's share
    t0_bar = (z0_bar + (tz + tz) * z1_bar) * up + 2.0 * z1_in * z1_in * z2_bar  # dup/dt0 = 2 t0 up^2
    # t0 = (x - beta)/alpha and t1 = 1/alpha, with t1_bar t1 = z1_bar z1
    grad[-2] = (np.vdot(b, r) - t0_bar.dot(t0) - z1_bar.dot(z1_in)) / alpha
    grad[-1] = (b[0] - t0_bar).sum() / alpha
    return grad


def flow_forward(params: FlowParams, x):
    """G(x) at a scalar or array of points inside the warp's interval: `flow_jet`'s order-1 row 0."""
    return flow_jet(params, x, 1)[0]


def flow_jet(params: FlowParams, x, order: int = 2) -> np.ndarray:
    """The jets G, G' and, at order 2, G'' at x, stacked as `_map_jets`'s (order + 1, points)
    array, or (order + 1,) for a scalar x; the one checked entry to a warp's jets at points.
    A ValueError names a point outside the warp's interval, a FlowNumericsError a point
    inside it whose jets are not finite."""
    points = np.atleast_1d(np.asarray(x, dtype=float))
    _check_inside(params, points, "x", ValueError)
    jets = _map_jets(params, points, order)
    if not np.all(np.isfinite(jets)):
        bad = points[~np.isfinite(jets).all(axis=0)][0]
        raise FlowNumericsError(f"flow jet produced a non-finite value at x={bad}")
    return jets[:, 0] if np.ndim(x) == 0 else jets


# Newton steps a point may take in one residual stage.  A point took at most 10 over 6,000
# random warps at Lipschitz margins up to 0.999, and 3 or 4 on the study's trained warps.
_NEWTON_STEPS = 50


def _invert_stage(block: ResidualBlock, w, buf) -> tuple[np.ndarray, int]:
    """(z, steps): z + k(z) = w at the points of the 1-d array w (one `_point_blocks` block at
    most, with `buf` its stage views), by Newton's method, and the most steps a point took.

    A point takes z <- z - (z + k(z) - w)/(1 + k'(z)) from z = w, with k = c.f(pre) + b_out
    and k' = (c a).f'(pre), until a step it has taken is at most 1e-8 max(1, |z|); convergence is
    quadratic, so its error after that step is at rounding.  It is then left as it is, so
    its result does not depend on the other points.  A step forms f and f' by the forward
    sweep's stage code, `_swish` and `_swish_first_derivative`, and no second derivative.
    """
    a, c = block.w_in.ravel(), block.w_out.ravel() / 1.1
    z, moving = w.copy(), np.ones(w.size, bool)
    for steps in range(1, _NEWTON_STEPS + 1):
        _preactivation(a, block.b_in, z, buf)
        _swish(buf)
        _swish_first_derivative(buf)
        # z + c.f0 + b_out - w, with c.f0 = -c.nf0
        dz = (z - c.dot(buf[4]) + block.b_out - w) / (1.0 + (c * a).dot(buf[5]))  # over 1 + k'(z)
        np.subtract(z, dz, out=z, where=moving)
        moving &= np.abs(dz) > 1e-8 * np.maximum(1.0, np.abs(z))
        if not moving.any():
            return z, steps
    raise ConvergenceError(f"Newton inversion of a residual stage left {np.count_nonzero(moving)} of {z.size}"
                           f" points moving after {_NEWTON_STEPS} steps (largest last step {np.abs(dz).max():.3e})")


def flow_inverse(params: FlowParams, y, return_iterations: bool = False):
    """G^{-1}(y) by unwrapping the sandwich and Newton's method on each residual stage.

    G maps the open interval (beta - alpha, beta + alpha) onto itself.  `_check_inside` refuses
    a y outside it, and a result that rounds onto an end (a near-flat warp's preimage of a y
    near that end), by a ValueError naming the point.  The affine-tanh layers invert in closed
    form; each residual stage z + k(z) = w is solved point by point (`_invert_stage`), whose
    derivative 1 + k'(z) lies in [1 - c, 1 + c] for the Lipschitz margin c.  With
    `return_iterations` the Newton step count comes back alongside the result: per stage, the
    most steps a point took, summed over the stages.
    """
    scalar = np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.arctanh(_check_inside(params, y, "y", ValueError))
    steps = [0] * len(params.blocks)
    for part, buf in _point_blocks(params.hidden, y.size):
        for s in reversed(range(len(params.blocks))):
            z[part], n = _invert_stage(params.blocks[s], z[part], buf)
            steps[s] = max(steps[s], n)
    x = np.tanh(z) * params.alpha + params.beta
    _check_inside(params, x, "G^-1(y)", ValueError)
    result = float(x[0]) if scalar else x
    return (result, sum(steps)) if return_iterations else result


def evaluate_augmented_basis(params: FlowParams, n_max: int, x) -> np.ndarray:
    """Warped-basis values phi_n(G^{-1}(x)) / sqrt(G'(G^{-1}(x))), n = 0..n_max.

    The warped functions span L2(beta - alpha, beta + alpha) extended by zero: they
    are 0 at a finite point outside the warp's open interval.  `flow_inverse`'s
    ValueError refuses a point that is not finite, and one whose preimage rounds onto
    an end of the interval.  G' at the preimages is row 1 of `flow_jet`'s order-1
    jets, which form no G'' and whose FlowNumericsError refuses a non-finite one.
    """
    points = np.atleast_1d(np.asarray(x, dtype=float))
    outside = ~_unit_interval(params, points)[1] & np.isfinite(points)
    y = flow_inverse(params, np.where(outside, params.beta, points))  # beta stands in for them
    vals = eval_hermite_functions(n_max, y) / np.sqrt(flow_jet(params, y, 1)[1])
    vals[:, outside] = 0.0
    return vals[:, 0] if np.ndim(x) == 0 else vals


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
    return _from_vector(theta, hidden, n_blocks, lipschitz_margin, project=True)


def save_checkpoint(params: FlowParams, path, seed: int = 0) -> None:
    """Write a versioned text checkpoint (architecture, alpha/beta, flat weights)."""
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
    lines.extend(repr(float(v)) for v in params.theta[:-2])  # alpha and beta are header fields
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    theta = [_parse(path, f"weight at index {i}", v, float) for i, v in enumerate(lines[body_at:])]
    try:
        return _from_vector(np.array(theta + [alpha, beta]), hidden, n_blocks, margin), seed
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
