import copy
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hermflow import (
    FlowParams,
    ResidualBlock,
    eval_hermite_functions,
    evaluate_augmented_basis,
    flow_forward,
    flow_inverse,
    flow_jet,
    gauss_hermite_rule,
    init_flow_params,
    lipswish,
    load_checkpoint,
    normalize_block,
    save_checkpoint,
    spectral_norm,
)
from hermflow import flow
from hermflow.flow import ConvergenceError, FlowNumericsError
from conftest import make_feasible_params


def zero_block_params(hidden=8, alpha=10.0, beta=0.0, n_blocks=1):
    blocks = [
        ResidualBlock(np.zeros((hidden, 1)), np.zeros(hidden), np.zeros((1, hidden)), 0.0)
        for _ in range(n_blocks)
    ]
    return FlowParams(blocks, alpha, beta, 0.97)


def constraint_edge_warp(rng):
    """A warp of 1-3 blocks, widths 1-128 and a margin up to 0.999, whose weights are drawn up
    to 50 times the bound and projected onto it: near-flat where u = c a comes near -c."""
    margin, h = rng.uniform(0.5, 0.999), int(rng.integers(1, 129))
    blocks = []
    for _ in range(rng.integers(1, 4)):
        w_in, w_out = rng.normal(size=(h, 1)), rng.normal(size=(1, h))
        w_in *= rng.uniform(0.1, 50) * math.sqrt(margin) / np.linalg.norm(w_in)
        w_out *= rng.uniform(0.1, 50) * math.sqrt(margin) / np.linalg.norm(w_out)
        block = ResidualBlock(w_in, rng.uniform(-3, 3, h), w_out, float(rng.uniform(-1, 1)))
        blocks.append(normalize_block(block, margin))
    return FlowParams(blocks, rng.uniform(1, 15), rng.uniform(-1, 1), margin)


def invert_or_refuse(params, y):
    """flow_inverse(params, y), with NaN at each point that it refuses because the point's
    preimage rounds onto an end of the interval; a call that refuses is split in halves."""
    try:
        return flow_inverse(params, y)
    except ValueError as exc:
        if y.size > 1:
            return np.concatenate([invert_or_refuse(params, part) for part in np.array_split(y, 2)])
        ends = (params.beta - params.alpha, params.beta + params.alpha)
        assert any(str(exc).startswith(f"G^-1(y)[0] = {end} lies outside") for end in ends), str(exc)
        return np.array([np.nan])


class TestLipswish:
    def test_zero(self):
        assert lipswish(0.0) == 0.0

    def test_large_argument_asymptote(self):
        x = 50.0
        assert lipswish(x) / x == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_value_at_one(self):
        # (1/1.1) / (1 + e^-1), evaluated in extended precision
        expected = float((1 / np.longdouble(1.1)) / (1 + np.exp(-np.longdouble(1.0))))
        assert lipswish(1.0) == pytest.approx(expected, rel=1e-14)
        assert lipswish(1.0) == pytest.approx(0.6645987078454589, rel=1e-12)

    def test_jet_matches_finite_differences(self):
        # the stage code's f, f' and f'' at pre-activations, where lipswish = f / 1.1
        from hermflow.flow import _stage_buffers, _swish, _swish_first_derivative, _swish_second_derivative

        h1, h2 = 1e-5, 1e-4  # wider step for the second difference (roundoff)
        xs = [-2.3, -0.4, 0.0, 0.9, 3.1]
        buf = _stage_buffers((1, len(xs)))
        buf[0][0] = np.negative(xs)  # the stage code holds the negated pre-activation
        _swish(buf)
        _swish_first_derivative(buf)
        _swish_second_derivative(buf)
        for x, nf0, f1, f2 in zip(xs, buf[4][0], buf[5][0], buf[6][0]):
            assert -nf0 / 1.1 == pytest.approx(lipswish(x), rel=1e-14)
            d1 = (lipswish(x + h1) - lipswish(x - h1)) / (2 * h1)
            d2 = (lipswish(x + h2) - 2 * lipswish(x) + lipswish(x - h2)) / h2**2
            assert f1 / 1.1 == pytest.approx(d1, abs=1e-9)
            assert f2 / 1.1 == pytest.approx(d2, abs=1e-6)

    def test_lipschitz_constant_below_one(self):
        xs = np.linspace(-30, 30, 20001)
        slopes = np.diff(lipswish(xs)) / np.diff(xs)
        assert np.abs(slopes).max() <= 1.0


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(2)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_against_svd_oracle(self, rng):
        for _ in range(5):
            W = rng.normal(size=(5, 3))
            expected = np.linalg.svd(W, compute_uv=False)[0]
            assert spectral_norm(W) == pytest.approx(expected, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros(3))


class TestNormalizeBlock:
    def test_scales_unit_norm_layers(self, rng):
        w_in = rng.normal(size=(6, 1))
        w_in /= np.linalg.norm(w_in, 2)
        w_out = rng.normal(size=(1, 6))
        w_out /= np.linalg.norm(w_out, 2)
        block = ResidualBlock(w_in, np.zeros(6), w_out, 0.0)
        scaled = normalize_block(block, 0.81)
        np.testing.assert_allclose(scaled.w_in, 0.9 * w_in, rtol=1e-9)
        np.testing.assert_allclose(scaled.w_out, 0.9 * w_out, rtol=1e-9)

    def test_leaves_small_layers_untouched(self, rng):
        c = 0.97
        w_in = rng.normal(size=(4, 1)) * 0.01
        w_out = rng.normal(size=(1, 4)) * 0.01
        block = ResidualBlock(w_in, np.zeros(4), w_out, 0.0)
        scaled = normalize_block(block, c)
        np.testing.assert_array_equal(scaled.w_in, w_in)
        np.testing.assert_array_equal(scaled.w_out, w_out)

    def test_empirical_contraction(self, rng):
        c = 0.9
        block = ResidualBlock(
            rng.normal(size=(16, 1)) * 3,
            rng.uniform(-1, 1, size=16),
            rng.normal(size=(1, 16)) * 3,
            0.2,
        )
        scaled = normalize_block(block, c)
        params = FlowParams([scaled], 5.0, 0.0, c)
        xs = rng.uniform(-4, 4, size=(1000, 2))
        block = params.blocks[0]

        def k(z):  # the stage's residual w_out . lipswish(w_in z + b_in) + b_out
            return block.w_out @ lipswish(block.w_in * z + block.b_in[:, None]) + block.b_out

        ratios = np.abs(k(xs[:, 0]) - k(xs[:, 1]))[0] / np.abs(xs[:, 0] - xs[:, 1])
        assert ratios.max() <= c + 1e-9
        assert params.lipschitz_margin == c

    def test_scales_match_power_method(self, rng):
        # rank-one weights: the closed-form norm gives the general matrix norm's scales,
        # and the rescaled weights have the bits of a scale from np.linalg.norm's
        c = 0.97
        for factor in (0.5, 0.99, 1.01, 4.0):  # both sides of sqrt(c)
            for h in (1, 7, 128):
                w_in = rng.normal(size=(h, 1))
                w_out = rng.normal(size=(1, h))
                w_in *= factor * np.sqrt(c) / np.linalg.norm(w_in)
                w_out *= factor * np.sqrt(c) / np.linalg.norm(w_out)
                scaled = normalize_block(ResidualBlock(w_in, np.zeros(h), w_out, 0.0), c)
                target = np.sqrt(c)
                for w, got in ((w_in, scaled.w_in), (w_out, scaled.w_out)):
                    expected = w * min(1.0, target / np.linalg.norm(w, 2))
                    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
                    exact = w if (n := np.linalg.norm(w)) <= target else w * (target / n)
                    assert got.tobytes() == exact.tobytes()

    def test_bad_margin_rejected(self):
        with pytest.raises(ValueError):
            normalize_block(zero_block_params().blocks[0], 1.0)


class TestFlowForward:
    def test_identity_blocks_any_alpha_beta(self):
        for alpha, beta in ((2.0, 0.0), (13.0, 0.7), (0.5, -0.2)):
            params = zero_block_params(alpha=alpha, beta=beta)
            xs = np.linspace(beta - 0.9 * alpha, beta + 0.9 * alpha, 41)
            np.testing.assert_allclose(flow_forward(params, xs), xs, atol=1e-13 * alpha)

    def test_center_fixed_with_zero_biases(self, rng):
        block = ResidualBlock(
            rng.normal(size=(8, 1)), np.zeros(8), rng.normal(size=(1, 8)), 0.0
        )
        params = FlowParams([normalize_block(block, 0.97)], 4.0, -0.3, 0.97)
        assert flow_forward(params, params.beta) == params.beta

    def test_strict_monotonicity(self, rng):
        params = make_feasible_params(16, 6.0, 0.2, rng, weight_scale=0.99, bias_scale=1.0)
        pairs = rng.uniform(params.beta - 5.6, params.beta + 5.6, size=(1000, 2))
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keep = hi > lo
        g_lo = flow_forward(params, lo[keep])
        g_hi = flow_forward(params, hi[keep])
        assert np.all(g_lo < g_hi)

    def test_scalar_in_scalar_out(self):
        params = zero_block_params()
        assert isinstance(flow_forward(params, 0.25), float)

    @pytest.mark.parametrize("evaluate", [flow_forward, flow_jet])
    def test_non_finite_point_raises(self, evaluate):
        # refused as a point outside the warp's interval, before any jet is computed
        with pytest.raises(ValueError, match=r"^x\[1\] = nan lies outside the warp's interval"):
            evaluate(zero_block_params(), [0.0, math.nan])

    def test_non_finite_jet_raises(self, monkeypatch):
        # the guard on computed jets, at a point inside the interval
        monkeypatch.setattr(flow, "_map_jets", lambda params, x, order=2: np.full((order + 1, x.size), np.nan))
        with pytest.raises(FlowNumericsError, match=r"non-finite value at x=0.25"):
            flow_jet(zero_block_params(), [0.25])


class TestFlowJet:
    def test_identity_jet(self):
        params = zero_block_params(alpha=9.0)
        g, d1, d2 = flow_jet(params, 1.7)
        assert g == pytest.approx(1.7, abs=1e-14)
        assert d1 == pytest.approx(1.0, abs=1e-13)
        assert d2 == pytest.approx(0.0, abs=1e-13)

    def test_first_derivative_vs_finite_differences(self, rng):
        params = make_feasible_params(12, 7.0, -0.1, rng)
        h = 1e-5
        for x in rng.uniform(-6.0, 6.0, size=25):
            d1 = flow_jet(params, x)[1]
            fd = (flow_forward(params, x + h) - flow_forward(params, x - h)) / (2 * h)
            assert d1 == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_vs_finite_differences(self, rng):
        params = make_feasible_params(12, 7.0, 0.15, rng)
        h = 1e-4
        for x in rng.uniform(-5.5, 5.5, size=25):
            d2 = flow_jet(params, x)[2]
            fd = (
                flow_forward(params, x + h)
                - 2 * flow_forward(params, x)
                + flow_forward(params, x - h)
            ) / h**2
            if abs(fd) > 1e-6:
                assert d2 == pytest.approx(fd, rel=1e-4)

    def test_derivative_positive_at_nodes_for_any_draw(self, rng):
        rule = gauss_hermite_rule(60)
        alpha = 1.05 * np.abs(rule.nodes).max()
        for _ in range(10):
            params = make_feasible_params(
                16, alpha, float(rng.uniform(-0.3, 0.3)), rng, weight_scale=0.999, bias_scale=2.0
            )
            assert np.all(flow_jet(params, rule.nodes)[1] > 0)


class TestManyPointJets:
    """`flow_jet` on many points runs the forward sweep a block of points at a time."""

    @pytest.mark.parametrize("hidden", [8, 128, 300])
    def test_blocks_match_one_sweep(self, rng, hidden):
        # 2,001 points are 1, 16 and 63 blocks at these widths, the last one short
        from hermflow.flow import _jets_forward, _map_jets, _stage_buffers

        params = make_feasible_params(hidden, 9.0, 0.1, rng, n_blocks=2)
        xs = np.linspace(-8.5, 8.5, 2001)
        j = flow_jet(params, xs)
        buffers = [_stage_buffers((hidden, xs.size)) for _ in params.blocks]
        for got, want in zip(j, _jets_forward(params, xs, buffers)[0]):
            # equal bit for bit with OpenBLAS; the bound allows a BLAS whose
            # matrix-vector products sum a short block in another order
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # order 1: G and G' alone, the first two rows of order 2 bit for bit, in blocks or whole
        np.testing.assert_array_equal(flow_forward(params, xs), j[0])
        first = _map_jets(params, xs, 1)
        assert first.shape == (2, xs.size)
        np.testing.assert_array_equal(first, j[:2])
        np.testing.assert_array_equal(flow_jet(params, xs, 1), first)
        whole = _jets_forward(params, xs, [_stage_buffers((hidden, xs.size)) for _ in params.blocks], 1)[0]
        np.testing.assert_array_equal(whole, _jets_forward(params, xs, buffers)[0][:2])

    def test_jets_are_stacked_at_the_order_asked(self, rng):
        # (order + 1, points), or (order + 1,) for a scalar, as `evaluate_augmented_basis` returns
        params = make_feasible_params(8, 9.0, 0.1, rng)
        xs = np.linspace(-8.5, 8.5, 7)
        assert flow_jet(params, 0.25).shape == (3,) and flow_jet(params, 0.25, 1).shape == (2,)
        assert flow_jet(params, xs).shape == (3, 7) and flow_jet(params, xs, 1).shape == (2, 7)
        np.testing.assert_array_equal(flow_jet(params, 0.25), flow_jet(params, [0.25])[:, 0])

    def test_memory_stays_below_one_whole_stage_array(self, rng):
        params = make_feasible_params(128, 9.0, 0.1, rng, n_blocks=2)
        xs = np.linspace(-8.5, 8.5, 2001)
        flow_jet(params, xs)
        tracemalloc.start()
        try:
            flow_jet(params, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2001 * 8


class TestFlowInverse:
    def test_identity(self):
        params = zero_block_params(alpha=5.0)
        assert flow_inverse(params, 1.234) == pytest.approx(1.234, abs=1e-12)

    def test_round_trip(self, rng):
        alpha = 9.0
        for _ in range(20):
            params = make_feasible_params(
                16, alpha, float(rng.uniform(-0.4, 0.4)), rng, weight_scale=0.95, bias_scale=0.6
            )
            xs = rng.uniform(params.beta - 0.95 * alpha, params.beta + 0.95 * alpha, size=1000)
            back = flow_inverse(params, flow_forward(params, xs))
            assert np.abs(back - xs).max() < 1e-10

    def test_newton_step_count(self, rng):
        # from z = w, Newton's quadratic convergence settles every point in a few steps per stage
        for n_blocks in (1, 2, 3):
            params = make_feasible_params(8, 9.0, 0.0, rng, weight_scale=0.99, bias_scale=0.8, n_blocks=n_blocks)
            xs = rng.uniform(-8.5, 8.5, size=200)
            _, steps = flow_inverse(params, flow_forward(params, xs), return_iterations=True)
            assert n_blocks <= steps <= 6 * n_blocks

    def test_empty_point_set(self, rng):
        params = make_feasible_params(8, 9.0, 0.1, rng, n_blocks=2)
        assert flow_inverse(params, np.empty(0)).shape == (0,)
        assert evaluate_augmented_basis(params, 4, np.empty(0)).shape == (5, 0)

    @pytest.mark.parametrize("edge", [np.nan, np.inf, -np.inf, 1.0, -1.0, 1.2, -10.0])
    def test_points_outside_the_interval_are_refused(self, rng, edge):
        # beta + edge * alpha: not finite, at either end, or beyond it
        params = make_feasible_params(8, 5.0, 0.3, rng)
        ys = np.array([0.3, params.beta + edge * params.alpha, 0.0])
        with pytest.raises(ValueError, match=r"^y\[1\] = .* lies outside the warp's interval"):
            flow_inverse(params, ys)
        with pytest.raises(ValueError, match=r"^y\[0\] = "):
            flow_inverse(params, ys[1])

    def test_points_just_inside_the_interval_are_inverted(self, rng):
        # the last doubles inside the open interval: both maps accept them
        identity = zero_block_params(alpha=5.0, beta=0.3)
        last = identity.beta + np.array([-1.0, 1.0]) * identity.alpha * np.nextafter(1.0, 0.0)
        assert np.all(np.abs(last - identity.beta) < identity.alpha)
        np.testing.assert_array_equal(flow_inverse(identity, last), last)
        np.testing.assert_array_equal(flow_forward(identity, last), last)
        params = make_feasible_params(8, 5.0, 0.3, rng)  # the same interval; tanh saturates at the upper end
        assert np.all(flow_jet(params, last)[1] >= 0.0)
        xs = flow_inverse(params, params.beta + np.array([-1.0, 1.0]) * params.alpha * (1.0 - 2e-7))
        assert np.all(np.abs(xs - params.beta) < params.alpha) and xs[0] < xs[1]

    def test_exhausted_iterations_raise(self, rng, monkeypatch):
        params = make_feasible_params(8, 9.0, 0.0, rng, weight_scale=0.99, bias_scale=0.8)
        monkeypatch.setattr(flow, "_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match=r"left 1 of 1 points moving after 1 steps"):
            flow_inverse(params, 3.0)

    def test_newton_at_the_constraint_s_edge(self):
        # seeded warps of 1-3 blocks, widths 1-128 and margins up to 0.999, with weights drawn
        # up to 50 times the bound and projected onto it; ~500 points across the interval
        rng = np.random.default_rng(26)
        for _ in range(100):
            params = constraint_edge_warp(rng)
            y = flow_forward(params, params.beta + params.alpha * np.tanh(np.linspace(-8, 8, 500)))
            y = y[np.abs((y - params.beta) / params.alpha) < 1]  # G can round onto the ends
            x, steps = flow_inverse(params, y, return_iterations=True)
            # at most 10 steps per stage over 6,000 such draws, against the cap of 50
            assert steps <= 12 * len(params.blocks)
            assert np.abs(flow_forward(params, x) - y).max() <= 1e-12 * params.alpha

    def test_the_interval_s_edges(self):
        # y across the whole open interval of seeded warps near the constraint's edge: each y is
        # refused, its preimage having rounded onto an end, or inverted to an x with G'(x) > 0
        # that G maps back to rounding; an x inside whose image is inside comes back to
        # rounding (y holds G(x) to eps alpha, so x to eps alpha/G'(x)): 1e-12 alpha where G' >= 0.01
        eps, rng = np.finfo(float).eps, np.random.default_rng(28)
        refused = accepted = 0
        for _ in range(30):
            params = constraint_edge_warp(rng)
            alpha = params.alpha
            y = params.beta + alpha * np.tanh(np.linspace(-18, 18, 301))
            y = y[np.abs((y - params.beta) / alpha) < 1]
            x = invert_or_refuse(params, y)
            ok = np.isfinite(x)
            refused, accepted = refused + np.count_nonzero(~ok), accepted + np.count_nonzero(ok)
            g, g1, _ = flow_jet(params, x[ok])
            assert np.all(g1 > 0.0)
            assert np.all(np.abs(g - y[ok]) <= 8 * eps * (alpha + g1 * (np.abs(x[ok]) + alpha)))
            x = params.beta + alpha * np.tanh(np.linspace(-8, 8, 101))
            g, g1, _ = flow_jet(params, x)
            inside = np.abs((g - params.beta) / alpha) < 1
            x, g1, back = x[inside], g1[inside], flow_inverse(params, g[inside])
            assert np.all(np.abs(back - x) <= 8 * eps * (alpha / g1 + np.abs(x) + alpha))
            assert np.all(np.abs(back - x)[g1 >= 0.01] <= 1e-12 * alpha)
        assert refused > 0 and accepted > 20 * refused

    @pytest.mark.parametrize("hidden", [8, 128])
    def test_many_points_match_pointwise_inverse(self, rng, hidden):
        # 2,001 points span several blocks of the residual evaluation
        params = make_feasible_params(hidden, 9.0, 0.1, rng, n_blocks=2)
        ys = np.linspace(-8.5, 8.5, 2001)
        together = flow_inverse(params, ys)
        one_by_one = np.array([flow_inverse(params, y) for y in ys])
        assert np.abs(together - one_by_one).max() <= 1e-13

    def test_round_trip_with_stacked_blocks(self, rng):
        params = make_feasible_params(8, 9.0, 0.2, rng, n_blocks=3)
        xs = rng.uniform(params.beta - 8.3, params.beta + 8.3, size=500)
        back = flow_inverse(params, flow_forward(params, xs))
        assert np.abs(back - xs).max() < 1e-10

    def test_no_second_derivative_is_computed(self, rng, monkeypatch):
        # Newton's step reads k and k', and the basis G' at the preimages: neither forms f''
        params = make_feasible_params(16, 9.0, 0.1, rng, n_blocks=2)
        ys = np.linspace(-8.5, 8.5, 201)
        want_x, want_basis = flow_inverse(params, ys), evaluate_augmented_basis(params, 5, ys)

        def refuse(buf):
            raise AssertionError("a second derivative was computed")

        monkeypatch.setattr(flow, "_swish_second_derivative", refuse)
        np.testing.assert_array_equal(flow_inverse(params, ys), want_x)
        np.testing.assert_array_equal(evaluate_augmented_basis(params, 5, ys), want_basis)
        with pytest.raises(AssertionError, match="second derivative"):
            flow_jet(params, ys)

    def test_jets_with_stacked_blocks(self, rng):
        params = make_feasible_params(10, 8.0, -0.1, rng, n_blocks=2)
        h = 1e-5
        for x in rng.uniform(-6.5, 6.5, size=10):
            d1 = flow_jet(params, x)[1]
            fd = (flow_forward(params, x + h) - flow_forward(params, x - h)) / (2 * h)
            assert d1 == pytest.approx(fd, rel=1e-6)


class TestAugmentedBasis:
    def test_identity_flow_reduces_to_hermite(self):
        params = zero_block_params(alpha=12.0)
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(
            evaluate_augmented_basis(params, 6, xs),
            eval_hermite_functions(6, xs),
            atol=1e-12,
        )

    def test_quadrature_orthonormality_change_of_variables(self, rng):
        rule = gauss_hermite_rule(60)
        alpha = 1.05 * np.abs(rule.nodes).max()
        params = make_feasible_params(16, alpha, 0.1, rng, weight_scale=0.9, bias_scale=0.4)
        mapped = flow_forward(params, rule.nodes)
        d1 = flow_jet(params, rule.nodes)[1]
        phiA = evaluate_augmented_basis(params, 7, mapped)
        S = np.einsum("iq,q,jq->ij", phiA, rule.lifted_weights * d1, phiA)
        assert np.abs(S - np.eye(8)).max() < 1e-8

    def test_ground_state_normalization_trapezoid(self, rng):
        alpha = 14.0
        params = make_feasible_params(16, alpha, 0.0, rng, weight_scale=0.9, bias_scale=0.4)
        grid = np.linspace(-0.999 * alpha, 0.999 * alpha, 100_001)
        vals = evaluate_augmented_basis(params, 0, grid)[0]
        assert np.trapezoid(vals**2, grid) == pytest.approx(1.0, abs=1e-4)


    def test_equals_the_order_two_formula(self, rng):
        # G' from the order-1 sweep is flow_jet's, bit for bit, on a hidden-128 warp
        params = make_feasible_params(128, 9.0, 0.1, rng, n_blocks=2)
        xs = np.linspace(-8.5, 8.7, 2001)
        y = flow_inverse(params, xs)
        want = eval_hermite_functions(12, y) / np.sqrt(flow_jet(params, y)[1])
        np.testing.assert_array_equal(evaluate_augmented_basis(params, 12, xs), want)

    def test_non_finite_derivative_raises(self, rng, monkeypatch):
        # the guard on the G' that the basis divides by, at preimages inside the interval: flow_jet's
        params = make_feasible_params(8, 5.0, 0.3, rng)
        monkeypatch.setattr(flow, "_map_jets", lambda params, x, order=2: np.full((order + 1, x.size), np.nan))
        with pytest.raises(FlowNumericsError, match=r"non-finite value at x="):
            evaluate_augmented_basis(params, 3, np.array([0.0, 1.0]))

    def test_zero_outside_the_interval(self, rng):
        # the warped functions span L2(beta - alpha, beta + alpha) extended by zero
        params = make_feasible_params(8, 5.0, 0.3, rng)
        inside = np.linspace(-4.0, 4.5, 7)
        outside = params.beta + np.array([-1.0, 1.0, 1.2, -10.0]) * params.alpha
        vals = evaluate_augmented_basis(params, 4, np.concatenate([outside[:2], inside, outside[2:]]))
        assert vals.shape == (5, 11) and not vals[:, :2].any() and not vals[:, -2:].any()
        np.testing.assert_array_equal(vals[:, 2:-2], evaluate_augmented_basis(params, 4, inside))
        assert evaluate_augmented_basis(params, 2, 6.0).tolist() == [0.0, 0.0, 0.0]

    def test_points_next_to_the_ends_round_trip(self):
        # 2e-7 alpha inside each end, the preimages lie inside the interval, where G' > 0
        # and G maps them back; the basis is finite there
        params = make_feasible_params(8, 5.0, 0.3, np.random.default_rng(0))
        y = params.beta + np.array([1.0, -1.0]) * params.alpha * (1.0 - 2e-7)
        x = flow_inverse(params, y)
        assert np.all(flow_jet(params, x)[1] > 0.0)
        assert np.abs(flow_forward(params, x) - y).max() <= 1e-14
        vals = evaluate_augmented_basis(params, 3, np.concatenate([y, [0.0]]))
        assert vals[:, 0].any() and np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals[:, 1:], evaluate_augmented_basis(params, 3, np.array([y[1], 0.0])), rtol=1e-13)

    def test_a_preimage_on_an_end_is_refused(self):
        # a near-flat warp: F'(z) tends to 1 - 0.999/1.1 as z grows, so y = beta + alpha tanh(3),
        # well inside, has a preimage z near 30, whose tanh rounds onto 1: refused, not returned
        s = math.sqrt(0.999)
        params = FlowParams([ResidualBlock(np.array([[s]]), np.zeros(1), np.array([[-s]]), 0.0)], 5.0, 0.3, 0.999)
        y = params.beta + params.alpha * np.tanh(np.array([0.0, 3.0]))
        refused = r"^G\^-1\(y\)\[1\] = 5.3 lies outside the warp's interval"
        with pytest.raises(ValueError, match=refused):
            flow_inverse(params, y)
        with pytest.raises(ValueError, match=refused):
            evaluate_augmented_basis(params, 3, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_refused(self, rng, bad):
        params = make_feasible_params(8, 5.0, 0.3, rng)
        with pytest.raises(ValueError, match=r"^y\[2\] = .* lies outside the warp's interval"):
            evaluate_augmented_basis(params, 3, np.array([0.0, 6.0, bad]))


class TestInitialization:
    def test_identity_at_init_on_nodes(self):
        rule = gauss_hermite_rule(90)
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        params = init_flow_params(hidden=128, alpha=alpha, seed=0)
        assert np.abs(flow_forward(params, rule.nodes) - rule.nodes).max() < 1e-12

    def test_parameter_count(self):
        params = init_flow_params(hidden=128, n_blocks=1, alpha=2.0, seed=0)
        assert params.n_parameters == 3 * 128 + 1 + 2

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            FlowParams(zero_block_params().blocks, alpha=-1.0, beta=0.0)

    @pytest.mark.parametrize(
        "alpha,beta", [(np.int64(-3), 0.0), (math.inf, 0.0), (math.nan, 0.0), (2.0, math.nan)]
    )
    def test_alpha_and_beta_must_be_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha" if beta == 0.0 else "beta"):
            FlowParams(zero_block_params().blocks, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("margin", [0.0, 1.0, -0.5, math.nan])
    def test_margin_must_lie_in_unit_interval(self, margin):
        # refused by the builder, before any square root of the margin
        with pytest.raises(ValueError, match=r"lipschitz_margin must lie in \(0, 1\)"):
            init_flow_params(hidden=4, lipschitz_margin=margin)

    @pytest.mark.parametrize("widths", [(8, 4), (), (0,)])
    def test_blocks_share_one_positive_width(self, widths):
        blocks = [ResidualBlock(np.zeros((h, 1)), np.zeros(h), np.zeros((1, h)), 0.0) for h in widths]
        message = {
            (8, 4): "block 1: w_in, b_in, w_out, b_out hold (4, 4, 4, 1) values, not (8, 8, 8, 1)",
            (): "one or more blocks of a positive width, got 0 of 0",
            (0,): "one or more blocks of a positive width, got 1 of 0",
        }[widths]
        with pytest.raises(ValueError, match=re.escape(message)):
            FlowParams(blocks, 5.0, 0.0, 0.97)
        # nor can a block of another width join a built warp
        params = zero_block_params(hidden=8)
        with pytest.raises(AttributeError):
            params.blocks.append(zero_block_params(hidden=4).blocks[0])
        assert params.n_parameters == params.theta.size == 3 * 8 + 3

    @pytest.mark.parametrize("index,value", [(5, math.nan), (12, math.inf)])  # b_in[1], b_out
    def test_non_finite_weight_is_refused_when_built(self, index, value):
        # so no warp that reaches save_checkpoint has one
        params = init_flow_params(hidden=4, alpha=3.0)
        theta = params.theta.copy()
        theta[index] = value
        with pytest.raises(ValueError, match=f"^non-finite weight at index {index}$"):
            params.with_vector(theta)
        blocks = [ResidualBlock(theta[:4].reshape(4, 1), theta[4:8], theta[8:12].reshape(1, 4), theta[12])]
        with pytest.raises(ValueError, match=f"^non-finite weight at index {index}$"):
            FlowParams(blocks, 3.0, 0.0)

    def test_finite_weights_whose_squares_overflow_are_built(self):
        # the finiteness check cannot overflow, so it passes them without a warning
        params = init_flow_params(hidden=4, alpha=3.0)
        theta = params.theta.copy()
        theta[5] = 1e200  # b_in[1]: biases are not bounded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert params.with_vector(theta).theta[5] == 1e200

    def test_weight_whose_square_overflows_is_projected_onto_the_bound(self):
        # its plain sum of squares overflows, so its norm is taken scaled by max |w|
        block = ResidualBlock(np.array([[1e200], [1.0], [0.0], [0.0]]), np.zeros(4), np.full((1, 4), 0.1), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w_in = normalize_block(block, 0.9).w_in
            with pytest.raises(ValueError, match=r"\|w_in\| = 1e\+200 exceeds"):
                FlowParams([block], 2.0, 0.0, 0.9)
        assert abs(np.linalg.norm(w_in) - math.sqrt(0.9)) <= 1e-15
        assert w_in[0, 0] > 0.9 and np.all(w_in[1:, 0] < 1e-199)

    def test_block_arrays_must_hold_its_width(self):
        # w_in holds 4 values, b_in 3 and w_out 5: 13 in all, as a block of width 4 does, so
        # its theta would read as b_in = [0, 1, 2, 0.2] and w_out = four 0.2s
        block = ResidualBlock(np.full((4, 1), 0.1), np.arange(3.0), np.full((1, 5), 0.2), 7.0)
        message = "block 0: w_in, b_in, w_out, b_out hold (4, 3, 5, 1) values, not (4, 4, 4, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            FlowParams([block], 2.0, 0.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            normalize_block(block, 0.97)

    @pytest.mark.parametrize("hidden,n_blocks", [(0, 1), (4, 0)])
    def test_a_warp_has_a_block_of_positive_width(self, hidden, n_blocks):
        with pytest.raises(ValueError, match=f"got {n_blocks} of {hidden}$"):
            init_flow_params(hidden=hidden, n_blocks=n_blocks, alpha=2.0)


class TestLipschitzCheck:
    """Every way of building a warp checks Lip <= margin once, and only a projecting build
    (a fresh warp, an Adam step's, `normalize_block`'s) rescales."""

    @pytest.mark.parametrize("margin", [0.97, 0.5])
    def test_projected_theta_is_accepted_unchanged(self, rng, margin):
        # each width from 1 to 512, its weights 1 to 50 times sqrt(margin) before the
        # builder projects them.  A projected norm summed again reads up to 4 ulp over
        # sqrt(margin), so the check allows 16 eps (`flow._NORM_SLACK`); re-projecting
        # would move these bits
        from hermflow.flow import _from_vector

        for h in range(1, 513):
            for scale in (1.0, 1.5, 50.0, rng.uniform(1.0, 50.0)):
                theta = rng.standard_normal(3 * h + 3)
                for w in (theta[:h], theta[2 * h : 3 * h]):
                    w *= scale * math.sqrt(margin) / np.linalg.norm(w)
                theta[-2] = 5.0
                projected = _from_vector(theta, h, 1, margin, project=True)
                kept = projected.theta.tobytes()
                assert projected.with_vector(projected.theta).theta.tobytes() == kept
                rebuilt = FlowParams(projected.blocks, projected.alpha, projected.beta, margin)
                assert rebuilt.theta.tobytes() == kept

    @pytest.mark.parametrize("name,at", [("w_in", 0), ("w_out", 32)])
    def test_weight_just_over_the_bound_is_refused(self, rng, name, at):
        margin = 0.97
        params = make_feasible_params(16, 5.0, 0.0, rng, margin=margin)
        theta = params.theta.copy()
        w = theta[at : at + 16]
        w *= (1.0 + 1e-6) * math.sqrt(margin) / np.linalg.norm(w)
        message = rf"block 0: \|{name}\| = 0\.984887 exceeds sqrt\(lipschitz_margin\) = 0\.984886"
        with pytest.raises(ValueError, match=message):
            params.with_vector(theta)
        block = params.blocks[0]
        over = ResidualBlock(theta[:16].reshape(16, 1), block.b_in, theta[32:48].reshape(1, 16), block.b_out)
        with pytest.raises(ValueError, match=message):
            FlowParams([over], 5.0, 0.0, margin)

    def test_a_built_warp_is_read_only(self, rng):
        params = make_feasible_params(8, 5.0, 0.0, rng)
        with pytest.raises(AttributeError):
            params.blocks[0].w_in = 3.0 * params.blocks[0].w_in
        with pytest.raises(AttributeError):
            params.alpha = 2.0
        for array in (params.blocks[0].w_in, params.blocks[0].b_in, params.theta):
            with pytest.raises(ValueError, match="read-only"):
                array *= 3.0

    def test_a_pickled_or_copied_warp_is_built_by_the_one_builder(self, rng):
        # a sweep's child sends its warps down a pipe: each copy is the warp `_from_vector` builds
        params = make_feasible_params(8, 5.0, 0.0, rng, n_blocks=2)
        kept = params.theta.tobytes()
        for copied in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            assert not copied.theta.flags.writeable
            views = [array for b in copied.blocks for array in (b.w_in, b.b_in, b.w_out)]
            assert len(views) == 6 and all(np.shares_memory(array, copied.theta) for array in views)
            assert copied.theta.tobytes() == kept and copied.lipschitz_margin == params.lipschitz_margin


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path, rng):
        params = make_feasible_params(8, 7.25, -0.125, rng, n_blocks=2)
        path = tmp_path / "flow.txt"
        save_checkpoint(params, path, seed=42)
        loaded, seed = load_checkpoint(path)
        assert seed == 42
        assert loaded.lipschitz_margin == params.lipschitz_margin
        np.testing.assert_array_equal(loaded.theta, params.theta)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,text", [(4, "alpha = inf"), (5, "beta = nan"), (-1, "nan")])
    def test_rejects_non_finite_warp(self, tmp_path, rng, line, text):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)
        lines = path.read_text().splitlines()
        lines[line] = text  # header alpha, header beta, or the last weight
        path.write_text("\n".join(lines) + "\n")
        name, index = {4: ("alpha", 25), 5: ("beta", 26), -1: ("weight", 24)}[line]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite {name} at index {index}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden,blocks", [(0, 1), (4, 0)])
    def test_rejects_empty_network(self, tmp_path, hidden, blocks):
        path = tmp_path / "flow.txt"
        path.write_text(
            f"hermflow-checkpoint v1\nhidden = {hidden}\nblocks = {blocks}\n"
            "lipschitz_margin = 0.97\nalpha = 5.0\nbeta = 0.0\nseed = 0\nparams:\n"
            + "0.0\n" * (blocks * (3 * hidden + 1))
        )
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key", ["hidden", "blocks", "lipschitz_margin", "alpha", "beta", "seed"]
    )
    def test_rejects_missing_header_key(self, tmp_path, rng, key):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{key} =")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'{key}'"):
            load_checkpoint(path)

    def test_rejects_repeated_header_key(self, tmp_path, rng):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)
        lines = path.read_text().splitlines()
        lines.insert(5, "alpha = 3.0")  # a second alpha after the first
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'alpha'.*repeated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["hiden = 9", "garbage line"])
    def test_rejects_unknown_header_line(self, tmp_path, rng, text):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)
        lines = path.read_text().splitlines()
        lines.insert(2, text)  # among the known keys, before "params:"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'{text}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,text", [("hidden", "four"), ("blocks", "1.0"), ("alpha", "wide"), ("seed", "x")]
    )
    def test_rejects_non_numeric_header_value(self, tmp_path, rng, key, text):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)
        lines = [f"{key} = {text}" if ln.startswith(f"{key} =") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'{key}'.*'{text}'"):
            load_checkpoint(path)

    def test_rejects_non_numeric_weight(self, tmp_path, rng):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)
        lines = path.read_text().splitlines()
        lines[lines.index("params:") + 1 + 3] = "oops"  # the weight at index 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*index 3.*'oops'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "cut,message",
        [
            ("version", "unsupported checkpoint version 'hermflow-checkpoint v2'"),
            ("parameter section", "missing parameter section"),
            ("last weight", "expected 27 parameters, got shape (26,)"),
            ("doubled w_in", "block 0: |w_in| = 1.67431 exceeds sqrt(lipschitz_margin) = 0.984886"),
        ],
    )
    def test_rejects_wrong_version_or_parameter_count(self, tmp_path, rng, cut, message):
        path = tmp_path / "flow.txt"
        save_checkpoint(make_feasible_params(8, 7.25, -0.125, rng), path)  # 3 * 8 + 1 weights
        lines = path.read_text().splitlines()
        doubled, at = list(lines), lines.index("params:") + 1  # w_in's 8 lines follow
        doubled[at : at + 8] = [repr(2.0 * float(v)) for v in lines[at : at + 8]]
        lines = {
            "version": ["hermflow-checkpoint v2", *lines[1:]],
            "parameter section": lines[: lines.index("params:")],
            "last weight": lines[:-1],
            "doubled w_in": doubled,
        }[cut]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            load_checkpoint(path)

    def test_version_line_present(self, tmp_path):
        params = zero_block_params(hidden=3)
        path = tmp_path / "flow.txt"
        save_checkpoint(params, path, seed=0)
        assert path.read_text().startswith("hermflow-checkpoint v1")
