import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hermflow import (
    AdamState,
    BasisSpec,
    FlowParams,
    ResidualBlock,
    TrainingConfig,
    adam_step,
    anharmonic_potential,
    assemble_hamiltonian,
    eigh,
    flow_forward,
    gauss_hermite_rule,
    gradient,
    harmonic_potential,
    init_flow_params,
    load_checkpoint,
    make_trace_loss,
    normalize_block,
    save_checkpoint,
    train,
)
from hermflow import trainer
from hermflow.cli import ExperimentConfig, solve_case
from hermflow.galerkin import MonotonicityError
from hermflow.trainer import TrainingAborted
from hermflow.flow import _jets_forward, _stage_buffers
from conftest import complex_params, complex_step_gradient, finite_diff_gradient, make_feasible_params


def saturated_warp(hidden, alpha):
    """One block with zero weights and output bias 40: tanh saturates, G' = 0 everywhere inside."""
    block = ResidualBlock(np.zeros((hidden, 1)), np.zeros(hidden), np.zeros((1, hidden)), 40.0)
    return FlowParams([block], alpha, 0.0, 0.97)


def identity_value(loss):
    """The loss head on the identity map's jets (G = x, G' = 1, G'' = 0)."""
    x = loss.nodes
    return loss.head(x, np.ones_like(x), np.zeros_like(x))[0]


def hermite_trace(N, Q, V):
    """The trace of the plain Hermite matrix."""
    return np.trace(assemble_hamiltonian(BasisSpec(N), gauss_hermite_rule(Q), V).entries)


def tiny_params(alpha=3.0, beta=0.5):
    block = ResidualBlock(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), 0.0)
    return FlowParams([block], alpha, beta, 0.97)


def push_out(params, k, lr):
    """`params` after one Adam step that moves every entry of block k's w_in and w_out
    by about lr away from zero, and no other parameter: for lr well above the weights'
    size that leaves them far outside the constraint set, so re-projection acts."""
    h = params.hidden
    grad = np.zeros(params.n_parameters)
    for at in (k * (3 * h + 1), k * (3 * h + 1) + 2 * h):  # w_in, w_out
        grad[at : at + h] = -np.sign(params.theta[at : at + h])
    return adam_step(AdamState.init(params.n_parameters), grad, params, lr)[1]


def sum_all_entries(p):
    total = p.blocks[0].b_out + p.alpha + p.beta
    for arr in (p.blocks[0].w_in, p.blocks[0].b_in, p.blocks[0].w_out):
        total = total + arr.sum()
    return total


class TestTraceLoss:
    def test_harmonic_identity(self):
        loss = make_trace_loss(5, gauss_hermite_rule(40), harmonic_potential())
        assert identity_value(loss) == pytest.approx(12.5, abs=1e-10)

    def test_anharmonic_identity(self):
        # quartic diagonal <n|x^4|n> = (3/4)(2n^2+2n+1):
        # 12.5 + (3/16)(1+5+13+25+41) = 12.5 + 255/16
        loss = make_trace_loss(5, gauss_hermite_rule(90), anharmonic_potential())
        expected = 12.5 + (3.0 / 16.0) * (1 + 5 + 13 + 25 + 41)
        assert identity_value(loss) == pytest.approx(expected, abs=1e-10)

    def test_equals_eigenvalue_sum_for_random_flow(self, rng):
        rule = gauss_hermite_rule(60)
        V = anharmonic_potential()
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        H = assemble_hamiltonian(BasisSpec(8), rule, V, params)
        eig_sum = eigh(H.entries).eigenvalues.sum()
        assert make_trace_loss(8, rule, V)(params) == pytest.approx(eig_sum, abs=1e-10)

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_value_is_the_gradient_sweeps_bit_for_bit(self, n_blocks):
        rule = gauss_hermite_rule(90)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        rng = np.random.default_rng(7 + n_blocks)
        params = make_feasible_params(128, 1.05 * np.abs(rule.nodes).max(), 0.1, rng, n_blocks=n_blocks)
        assert loss(params) == gradient(loss, params)[0]

    def test_identity_params_match_identity_value(self):
        rule = gauss_hermite_rule(40)
        params = init_flow_params(hidden=32, alpha=1.05 * np.abs(rule.nodes).max(), seed=2)
        loss = make_trace_loss(6, rule, anharmonic_potential())
        assert loss(params) == pytest.approx(hermite_trace(6, 40, anharmonic_potential()), abs=1e-10)

    @pytest.mark.parametrize(
        "warp, first_words",
        [
            (lambda edge: init_flow_params(hidden=4, alpha=0.9 * edge), r"node\[0\] = "),
            (lambda edge: saturated_warp(4, 1.05 * edge), r"warp derivative G' = 0\.0 is not positive at node 0 "),
        ],
        ids=["interval_misses_node_0", "saturated"],
    )
    def test_value_gradient_and_assembly_refuse_a_warp_alike(self, warp, first_words):
        # the loss's value, its gradient and assembly refuse the same warps by the same checks,
        # with one error type and one message
        rule = gauss_hermite_rule(30)
        V = anharmonic_potential()
        params = warp(float(np.abs(rule.nodes).max()))
        loss = make_trace_loss(4, rule, V)
        messages = []
        for refused in (
            lambda: assemble_hamiltonian(BasisSpec(4), rule, V, params),
            lambda: trainer.gradient(loss, params),
            lambda: loss(params),
        ):
            with pytest.raises(MonotonicityError, match=f"^{first_words}") as raised:
                refused()
            messages.append(str(raised.value))
        assert messages[1:] == messages[:1] * 2


class TestAdjointGradient:
    @pytest.mark.parametrize("N,Q", [(5, 30), (5, 90), (29, 90)])
    def test_matches_complex_step(self, N, Q):
        # two stages, beta != 0, and the second stage's weights on the boundary of the
        # constraint set, where an Adam step's re-projection put them
        rng = np.random.default_rng(100 + N + Q)
        rule = gauss_hermite_rule(Q)
        loss = make_trace_loss(N, rule, anharmonic_potential())
        params = make_feasible_params(128, 1.05 * np.abs(rule.nodes).max(), 0.15, rng, n_blocks=2)
        params = push_out(params, 1, lr=1.0)
        assert np.linalg.norm(params.blocks[1].w_in) == pytest.approx(np.sqrt(0.97), rel=1e-15)
        value, grad = trainer.gradient(loss, params)
        ref_value, ref_grad = complex_step_gradient(loss, params)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    def test_harmonic_matches_complex_step(self, rng):
        rule = gauss_hermite_rule(40)
        loss = make_trace_loss(6, rule, harmonic_potential())
        params = make_feasible_params(16, 1.05 * np.abs(rule.nodes).max(), -0.1, rng)
        value, grad = trainer.gradient(loss, params)
        ref_value, ref_grad = complex_step_gradient(loss, params)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    def test_complex_step_matches_finite_differences(self):
        # the reference itself, on one criterion-2 draw and at criterion 2's tolerance
        rng = np.random.default_rng(2024)
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        params = make_feasible_params(
            128, alpha, float(rng.uniform(-0.2, 0.2)), rng, weight_scale=0.8, bias_scale=0.3
        )
        _, ref_grad = complex_step_gradient(loss, params)
        fd = finite_diff_gradient(loss, params, 1e-6)
        mag = np.maximum(np.abs(ref_grad), np.abs(fd))
        mask = mag > 1e-8
        assert (np.abs(ref_grad - fd)[mask] / mag[mask]).max() <= 1e-5

    def test_interval_missing_a_node_raises(self, rng, monkeypatch):
        # an interval that misses the outermost nodes, or only the last one: refused before
        # the sweep, naming the first node outside
        monkeypatch.setattr(trainer, "_jets_forward", None)
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        edge = np.abs(rule.nodes).max()
        for alpha, beta, node in ((0.9 * edge, 0.0, 0), (edge, -0.5, 29)):
            params = make_feasible_params(8, alpha, beta, rng)
            with pytest.raises(MonotonicityError, match=rf"^node\[{node}\] = {rule.nodes[node]} lies outside the warp's"):
                trainer.gradient(loss, params)

    def test_saturated_warp_names_the_node(self):
        # every node inside the interval, but a large output bias saturates tanh: G' = 0 at
        # each node, refused before the loss head divides by it, with no warning
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = saturated_warp(4, 1.05 * float(np.abs(rule.nodes).max()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MonotonicityError, match=rf"^warp derivative G' = 0.0 is not positive at node 0 \(x={rule.nodes[0]}\)$"):
                trainer.gradient(loss, params)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, 1e200])
    def test_non_finite_adjoint_names_its_index(self, monkeypatch, value):
        # a finite 1e200, whose square overflows, passes the check without a warning; a
        # non-finite entry is named by its index
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = init_flow_params(hidden=4, alpha=1.05 * float(np.abs(rule.nodes).max()))
        reverse = trainer._jets_reverse

        def corrupted(*args):
            grad = reverse(*args)
            grad[3] = value
            return grad

        monkeypatch.setattr(trainer, "_jets_reverse", corrupted)
        if math.isfinite(value):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert trainer.gradient(loss, params)[1][3] == value
        else:
            with pytest.raises(FloatingPointError, match=r"^non-finite adjoint at parameter index 3$"):
                trainer.gradient(loss, params)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_loss_value_is_refused(self, monkeypatch, value):
        # a stand-in loss head returns a non-finite value with finite bars: refused before the adjoint
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = init_flow_params(hidden=4, alpha=1.05 * float(np.abs(rule.nodes).max()))
        head = trainer.TraceLoss.head
        monkeypatch.setattr(trainer.TraceLoss, "head", lambda self, *jets: (value, head(self, *jets)[1]))
        monkeypatch.setattr(trainer, "_jets_reverse", None)
        with pytest.raises(FloatingPointError, match=rf"^loss evaluated to a non-finite value: {value}$"):
            trainer.gradient(loss, params)


class TestGradient:
    """The adjoint `hermflow.gradient` (`trainer.gradient`) against central differences."""

    def test_trace_loss_vs_fd(self, rng):
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        alpha = 1.05 * np.abs(rule.nodes).max()
        params = make_feasible_params(16, alpha, 0.1, rng)
        _, grad = gradient(loss, params)
        fd = finite_diff_gradient(loss, params, 1e-6)
        mag = np.maximum(np.abs(grad), np.abs(fd))
        mask = mag > 1e-8
        assert (np.abs(grad - fd)[mask] / mag[mask]).max() <= 1e-5

    def test_oracle_agreement_invariant(self, rng):
        # 10 random draws across N in {3, 5}
        V = anharmonic_potential()
        rule = gauss_hermite_rule(30)
        alpha = 1.05 * np.abs(rule.nodes).max()
        worst = 0.0
        for trial in range(10):
            N = 3 if trial % 2 else 5
            loss = make_trace_loss(N, rule, V)
            params = make_feasible_params(8, alpha, float(rng.uniform(-0.2, 0.2)), rng)
            _, grad = gradient(loss, params)
            fd = finite_diff_gradient(loss, params, 1e-6)
            mag = np.maximum(np.abs(grad), np.abs(fd))
            mask = mag > 1e-8
            worst = max(worst, (np.abs(grad - fd)[mask] / mag[mask]).max())
        assert worst <= 1e-5

    def test_determinism(self, rng):
        rule = gauss_hermite_rule(25)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.05, rng)
        v1, g1 = gradient(loss, params)
        v2, g2 = gradient(loss, params)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_trace_loss_grad_with_stacked_blocks(self, rng):
        rule = gauss_hermite_rule(25)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = make_feasible_params(6, 1.05 * np.abs(rule.nodes).max(), 0.05, rng, n_blocks=2)
        _, grad = gradient(loss, params)
        fd = finite_diff_gradient(loss, params, 1e-6)
        mag = np.maximum(np.abs(grad), np.abs(fd))
        mask = mag > 1e-8
        assert (np.abs(grad - fd)[mask] / mag[mask]).max() <= 1e-5


class TestFiniteDiffGradient:
    def test_quadratic(self):
        params = tiny_params(alpha=3.0)
        fd = finite_diff_gradient(lambda p: float(p.alpha) ** 2, params, 1e-4)
        assert fd[-2] == pytest.approx(6.0, abs=1e-7)

    def test_linear_sum_is_exact(self):
        params = tiny_params()
        fd = finite_diff_gradient(lambda p: float(sum_all_entries(p)), params, 1e-3)
        np.testing.assert_allclose(fd, 1.0, atol=1e-12)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: 0.0, tiny_params(), 0.0)


class TestStageBuffers:
    """`gradient` writes its sweeps' (hidden, Q) arrays into buffers its loss keeps."""

    def test_warm_gradient_allocates_less_than_one_stage_array(self, rng):
        rule = gauss_hermite_rule(90)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        params = make_feasible_params(128, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        trainer.gradient(loss, params)
        tracemalloc.start()
        try:
            trainer.gradient(loss, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 90 * 8

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_warm_step_allocates_less_than_one_stage_array(self, rng, n_blocks):
        # a whole training step, gradient and Adam: a (hidden, Q) array allocated and freed
        # per step would fault its pages in at every step, or, at 128 KB and more, move
        # glibc's thresholds
        rule = gauss_hermite_rule(90)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        params = make_feasible_params(128, 1.05 * np.abs(rule.nodes).max(), 0.1, rng, n_blocks=n_blocks)
        state = AdamState.init(params.n_parameters)
        _, grad = trainer.gradient(loss, params)
        state, params = adam_step(state, grad, params, 1e-3)
        tracemalloc.start()
        try:
            _, grad = trainer.gradient(loss, params)
            adam_step(state, grad, params, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 90 * 8

    def test_reused_buffers_give_the_results_of_fresh_ones(self, rng):
        rule = gauss_hermite_rule(90)
        V = anharmonic_potential()
        alpha = 1.05 * np.abs(rule.nodes).max()
        theta_a = make_feasible_params(128, alpha, 0.1, rng, n_blocks=2)
        theta_b = make_feasible_params(128, alpha, -0.2, rng, n_blocks=2)
        theta_c = make_feasible_params(16, alpha, 0.0, rng)  # other shapes: new buffers
        loss = make_trace_loss(12, rule, V)
        results = [trainer.gradient(loss, p) for p in (theta_a, theta_b, theta_a, theta_c, theta_a)]
        first = results[0][1].copy()
        trainer.gradient(loss, theta_b)
        assert np.array_equal(results[0][1], first)  # a later call leaves earlier results alone
        for p, (value, grad) in zip((theta_a, theta_b, theta_a, theta_c, theta_a), results):
            fresh_value, fresh_grad = trainer.gradient(make_trace_loss(12, rule, V), p)
            assert value == fresh_value
            assert np.array_equal(grad, fresh_grad)

    def test_buffers_kept_between_calls(self, rng):
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(5, rule, anharmonic_potential())
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng, n_blocks=2)
        buffers = [list(stage) for stage in loss.stage_buffers(params)]
        # ten (hidden, Q) stage arrays, then the operands of the sweeps' matrix products
        # and the reverse sweep's (3, 3, hidden) products
        shapes = [(8, 30)] * 10 + [(8, 2), (2, 30), (6, 30), (3, 3, 8)]
        assert [[b.shape for b in stage] for stage in buffers] == [shapes] * 2
        trainer.gradient(loss, params)
        loss(params)
        for kept, stage in zip(buffers, loss.stage_buffers(params)):
            assert all(a is b for a, b in zip(kept, stage))

    def test_complex_parameters_match_the_adjoint(self, rng):
        # one complex step along a random direction: every stage runs on complex arrays
        rule = gauss_hermite_rule(40)
        loss = make_trace_loss(6, rule, anharmonic_potential())
        params = make_feasible_params(32, 1.05 * np.abs(rule.nodes).max(), 0.1, rng, n_blocks=2)
        value, grad = trainer.gradient(loss, params)
        direction = rng.standard_normal(params.n_parameters)
        view = complex_params(params, params.theta + 1e-40j * direction)
        jets, _ = _jets_forward(view, loss.nodes, [_stage_buffers((32, 40), complex) for _ in range(2)])
        assert all(np.iscomplexobj(j) for j in jets)
        shifted = loss.head(*jets)[0]
        assert shifted.real == pytest.approx(value, rel=1e-12)
        assert shifted.imag / 1e-40 == pytest.approx(grad @ direction, rel=1e-10)


class TestAdamStep:
    def test_first_step_magnitude(self):
        params = init_flow_params(hidden=2, alpha=3.0, seed=0)
        state = AdamState.init(params.n_parameters)
        grad = np.zeros(params.n_parameters)
        grad[-2] = 1.0  # alpha slot
        new_state, new_params = adam_step(state, grad, params, lr=1e-3)
        # bias-corrected ratio is 1/(1 + eps), i.e. a step of almost exactly lr
        assert params.alpha - new_params.alpha == pytest.approx(1e-3, rel=1e-7)
        assert new_state.t == 1

    def test_zero_gradient_keeps_parameters(self):
        params = init_flow_params(hidden=3, alpha=2.0, seed=1)
        state = AdamState.init(params.n_parameters)
        new_state, new_params = adam_step(state, np.zeros(params.n_parameters), params, lr=1e-3)
        np.testing.assert_array_equal(new_params.theta, params.theta)
        assert new_state.t == 1

    def test_two_steps_match_hand_rolled_reference(self):
        # scalar Adam by hand: g = 1 both steps, lr = 0.1
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta = 0.0
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        params = init_flow_params(hidden=2, alpha=5.0, seed=0)
        state = AdamState.init(params.n_parameters)
        grad = np.zeros(params.n_parameters)
        grad[-1] = 1.0  # beta slot
        for _ in range(2):
            state, params = adam_step(state, grad, params, lr=lr)
        assert params.beta == pytest.approx(theta, abs=1e-15)

    def test_renormalizes_after_step(self):
        params = init_flow_params(hidden=4, alpha=2.0, seed=3)
        new_params = push_out(params, 0, lr=10.0)  # way outside the constraint
        for w in (new_params.blocks[0].w_in, new_params.blocks[0].w_out):
            assert np.linalg.norm(w, 2) <= np.sqrt(0.97) + 1e-12

    def test_steps_match_the_textbook_sequence_bit_for_bit(self):
        # hidden 128, two blocks; a first step of 0.5 that leaves the first block where it
        # is pushes the second outside the constraint, so that re-projection acts.  The
        # reference updates theta by the formula, cuts it into blocks and re-projects
        # every block by `normalize_block`
        rng = np.random.default_rng(14)
        margin, h = 0.97, 128
        params = make_feasible_params(h, 13.0, 0.1, rng, margin=margin, n_blocks=2)
        state = ref_state = AdamState.init(params.n_parameters)
        ref_params = params
        for t in range(1, 6):
            grad = rng.standard_normal(params.n_parameters)
            lr = 0.5 if t == 1 else 1e-2
            if t == 1:
                grad[: 3 * h + 1] = 0.0  # a zero moment moves the first block by exactly 0
            before = params.theta.tobytes()
            state, new_params = adam_step(state, grad, params, lr)
            assert params.theta.tobytes() == before  # the input warp is untouched
            m = 0.9 * ref_state.m + (1.0 - 0.9) * grad
            v = 0.999 * ref_state.v + (1.0 - 0.999) * grad * grad
            m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
            moved = ref_params.theta - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            blocks = [
                normalize_block(ResidualBlock(r[:h].reshape(h, 1), r[h : 2 * h], r[2 * h : -1].reshape(1, h), r[-1]), margin)
                for r in moved[:-2].reshape(2, 3 * h + 1)
            ]
            ref_state = AdamState(m, v, t)
            ref_params = FlowParams(blocks, moved[-2], moved[-1], margin)
            assert new_params.theta.tobytes() == ref_params.theta.tobytes()
            assert (state.m.tobytes(), state.v.tobytes(), state.t) == (m.tobytes(), v.tobytes(), t)
            if t == 1:
                assert new_params.theta[: 3 * h + 1].tobytes() == params.theta[: 3 * h + 1].tobytes()
                for w in (new_params.blocks[1].w_in, new_params.blocks[1].w_out):
                    assert np.linalg.norm(w) == pytest.approx(np.sqrt(margin), rel=1e-15)
            params = new_params

    def test_reprojected_warp_reloads_bit_for_bit(self, tmp_path):
        # two blocks at hidden 128 just after re-projection acted, whose weights a second
        # re-projection would move (the benchmark's checkpoint reload check, in small)
        rule = gauss_hermite_rule(90)
        rng = np.random.default_rng(21)
        params = make_feasible_params(128, 1.05 * np.abs(rule.nodes).max(), 0.1, rng, n_blocks=2)
        params = push_out(params, 1, lr=1.0)
        for w in (params.blocks[1].w_in, params.blocks[1].w_out):
            assert math.sqrt(w.ravel().dot(w.ravel())) > math.sqrt(0.97)  # a second projection would move w
        path = tmp_path / "warp.txt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)[0]
        assert loaded.theta.tobytes() == params.theta.tobytes()
        V = anharmonic_potential()
        levels = [eigh(assemble_hamiltonian(BasisSpec(29), rule, V, p).entries).eigenvalues for p in (params, loaded)]
        assert np.array_equal(*levels)

    def test_shape_mismatch_rejected(self):
        params = init_flow_params(hidden=2, alpha=1.0, seed=0)  # 9 parameters
        for state, grad in ((AdamState.init(3), np.zeros(3)), (AdamState.init(1), np.ones(1))):
            with pytest.raises(ValueError, match="does not fit 9 parameters"):
                adam_step(state, grad, params, lr=1e-3)


class TestTrain:
    def test_zero_iterations_returns_identity(self):
        cfg = TrainingConfig(N=4, Q=30, hidden=8, iterations=0, seed=5)
        V = anharmonic_potential()
        params, trace = train(cfg, V)
        assert len(trace) == 0
        rule = gauss_hermite_rule(30)
        assert np.abs(flow_forward(params, rule.nodes) - rule.nodes).max() < 1e-12
        loss = make_trace_loss(cfg.N, rule, V)
        assert loss(params) == pytest.approx(hermite_trace(cfg.N, cfg.Q, V), abs=1e-10)

    def test_initial_loss_is_hermite_trace(self):
        cfg = TrainingConfig(N=5, Q=40, hidden=16, iterations=3, seed=0)
        V = anharmonic_potential()
        _, trace = train(cfg, V)
        assert trace.losses[0] == pytest.approx(hermite_trace(cfg.N, cfg.Q, V), abs=1e-10)

    def test_loss_decreases(self):
        cfg = TrainingConfig(N=5, Q=60, hidden=32, iterations=120, seed=0)
        _, trace = train(cfg, anharmonic_potential())
        assert trace.losses[-1] < trace.losses[0] - 1e-3

    def test_trend_first_versus_last_decile(self):
        cfg = TrainingConfig(N=5, Q=60, hidden=32, iterations=200, seed=1)
        _, trace = train(cfg, anharmonic_potential())
        tenth = len(trace) // 10
        assert np.median(trace.losses[-tenth:]) <= np.median(trace.losses[:tenth])

    def test_deterministic_for_fixed_seed(self):
        cfg = TrainingConfig(N=4, Q=30, hidden=8, iterations=25, seed=9)
        V = anharmonic_potential()
        p1, t1 = train(cfg, V)
        p2, t2 = train(cfg, V)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(t1.grad_norms, t2.grad_norms)
        assert np.array_equal(p1.theta, p2.theta)

    def test_trace_length_matches_iterations(self):
        cfg = TrainingConfig(N=3, Q=20, hidden=4, iterations=7, seed=0)
        _, trace = train(cfg, anharmonic_potential())
        assert len(trace) == 7
        assert trace.grad_norms.size == 7 and trace.wall_ms.size == 7

    def test_default_iteration_counts(self):
        assert TrainingConfig(N=9).steps_at(9) == 500
        assert TrainingConfig(N=10).steps_at(10) == 2000
        assert TrainingConfig(N=10, iterations=123).steps_at(10) == 123

    def test_divergent_run_aborts_with_partial_trace(self):
        # a huge step drags alpha below the node range; training must stop with the
        # trace, naming the node that left the interval
        cfg = TrainingConfig(N=4, Q=30, hidden=8, iterations=40, learning_rate=12.0, seed=0)
        with pytest.raises(TrainingAborted, match=r"node\[\d+\] = \S+ lies outside the warp's interval") as err:
            train(cfg, anharmonic_potential())
        assert len(err.value.trace) >= 1

    def test_saturated_warp_aborts_training(self, monkeypatch):
        # a warp whose tanh saturates inside the interval stops training at its first step
        monkeypatch.setattr(trainer, "init_flow_params", lambda hidden, alpha, **_: saturated_warp(hidden, alpha))
        cfg = TrainingConfig(N=4, Q=30, hidden=8, iterations=5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingAborted, match=r"^training aborted: warp derivative G' = 0.0 is not positive at node 0 ") as err:
                train(cfg, anharmonic_potential())
        assert len(err.value.trace) == 0

    def test_variational_floor_against_converged_reference(self, sinc_dvr_reference):
        # with Q = 90 the warped-basis quadrature stays faithful enough that
        # no trained Ritz value sinks below the true spectrum
        E = solve_case(ExperimentConfig(potential="anharmonic", Q=90), "augmented", 8, 8).eigenvalues
        H_ref = assemble_hamiltonian(BasisSpec(80), gauss_hermite_rule(200), anharmonic_potential())
        for reference in (eigh(H_ref.entries).eigenvalues, sinc_dvr_reference):
            assert (E - reference[:8]).min() >= -1e-6

    def test_no_table_built_in_training(self, request, rng):
        # the loss reads the rule's table, as assembly does
        rule = gauss_hermite_rule(30)
        params = make_feasible_params(8, 1.05 * np.abs(rule.nodes).max(), 0.1, rng)
        calls = request.getfixturevalue("table_builds")  # counts from here on
        loss = make_trace_loss(6, rule, anharmonic_potential())
        trainer.gradient(loss, params)
        train(TrainingConfig(N=6, Q=30, hidden=8, iterations=3, seed=0), anharmonic_potential())
        assert calls == {"functions": 0, "derivatives": 0}

    def test_trace_csv_layout(self, tmp_path):
        cfg = TrainingConfig(N=3, Q=20, hidden=4, iterations=4, seed=0)
        _, trace = train(cfg, anharmonic_potential())
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "iteration,loss,grad_norm,wall_ms"
        assert len(lines) == 2 + 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(N=0)
        with pytest.raises(ValueError):
            TrainingConfig(N=3, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(N=3, iterations=-1)
        for bad in ({"learning_rate": float("nan")}, {"seed": -1}, {"Q": 250}, {"Q": 2},
                    {"lipschitz_margin": 1.0}):
            with pytest.raises(ValueError):
                TrainingConfig(N=3, **bad)
