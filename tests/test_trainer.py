import tracemalloc

import numpy as np
import pytest

from hermflow import (
    AdamState,
    BasisSpec,
    TrainingConfig,
    adam_step,
    anharmonic_potential,
    assemble_hamiltonian,
    eigh,
    finite_diff_gradient,
    flow_forward,
    gauss_hermite_rule,
    harmonic_potential,
    init_flow_params,
    make_trace_loss,
    train,
)
from hermflow import trainer
from hermflow.cli import ExperimentConfig, solve_case
from hermflow.trainer import TrainingAborted
from hermflow.flow import _jets_forward
from conftest import complex_params, complex_step_gradient, make_feasible_params


def identity_value(loss):
    """The loss head on the identity map's jets (G = x, G' = 1, G'' = 0)."""
    x = loss.nodes
    return loss.head(x, np.ones_like(x), np.zeros_like(x))


def hermite_trace(N, Q, V):
    """The trace of the plain Hermite matrix."""
    return np.trace(assemble_hamiltonian(BasisSpec(N), gauss_hermite_rule(Q), V).entries)


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

    def test_identity_params_match_identity_value(self):
        rule = gauss_hermite_rule(40)
        params = init_flow_params(hidden=32, alpha=1.05 * np.abs(rule.nodes).max(), seed=2)
        loss = make_trace_loss(6, rule, anharmonic_potential())
        assert loss(params) == pytest.approx(hermite_trace(6, 40, anharmonic_potential()), abs=1e-10)


class TestAdjointGradient:
    @pytest.mark.parametrize("N,Q", [(5, 30), (5, 90), (29, 90)])
    def test_matches_complex_step(self, N, Q):
        # two stages, beta != 0, and the second stage's input rescale active
        rng = np.random.default_rng(100 + N + Q)
        rule = gauss_hermite_rule(Q)
        loss = make_trace_loss(N, rule, anharmonic_potential())
        params = make_feasible_params(128, 1.05 * np.abs(rule.nodes).max(), 0.15, rng, n_blocks=2)
        params.blocks[1].w_in = 3.0 * params.blocks[1].w_in
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_interval_missing_a_node_raises(self, rng):
        # alpha below the outermost node: G' = 0 there and the loss is not finite
        rule = gauss_hermite_rule(30)
        loss = make_trace_loss(4, rule, anharmonic_potential())
        params = make_feasible_params(8, 0.9 * np.abs(rule.nodes).max(), 0.0, rng)
        with pytest.raises(FloatingPointError):
            trainer.gradient(loss, params)


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
        assert [[b.shape for b in stage] for stage in buffers] == [[(8, 30)] * 9] * 2
        trainer.gradient(loss, params)
        for kept, stage in zip(buffers, loss.stage_buffers(params)):
            assert all(a is b for a, b in zip(kept, stage))

    def test_complex_parameters_match_the_adjoint(self, rng):
        # one complex step along a random direction: every stage runs on complex arrays
        rule = gauss_hermite_rule(40)
        loss = make_trace_loss(6, rule, anharmonic_potential())
        params = make_feasible_params(32, 1.05 * np.abs(rule.nodes).max(), 0.1, rng, n_blocks=2)
        value, grad = trainer.gradient(loss, params)
        direction = rng.standard_normal(params.n_parameters)
        view = complex_params(params, params.pack() + 1e-40j * direction)
        jets, _ = _jets_forward(view, loss.nodes)
        assert all(np.iscomplexobj(j) for j in jets)
        shifted = loss.head(*jets)
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
        np.testing.assert_array_equal(new_params.pack(), params.pack())
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
        params.blocks[0].w_in = np.full((4, 1), 10.0)  # way outside the constraint
        state = AdamState.init(params.n_parameters)
        _, new_params = adam_step(state, np.zeros(params.n_parameters), params, lr=1e-3)
        from hermflow import spectral_norm

        assert spectral_norm(new_params.blocks[0].w_in) <= np.sqrt(0.97) + 1e-12

    def test_shape_mismatch_rejected(self):
        params = init_flow_params(hidden=2, alpha=1.0, seed=0)
        with pytest.raises(ValueError):
            adam_step(AdamState.init(3), np.zeros(3), params, lr=1e-3)


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
        assert np.array_equal(p1.pack(), p2.pack())

    def test_trace_length_matches_iterations(self):
        cfg = TrainingConfig(N=3, Q=20, hidden=4, iterations=7, seed=0)
        _, trace = train(cfg, anharmonic_potential())
        assert len(trace) == 7
        assert trace.grad_norms.size == 7 and trace.wall_ms.size == 7

    def test_default_iteration_counts(self):
        assert TrainingConfig(N=9).resolved_iterations == 500
        assert TrainingConfig(N=10).resolved_iterations == 2000
        assert TrainingConfig(N=10, iterations=123).resolved_iterations == 123

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_aborts_with_partial_trace(self):
        # a huge step drags alpha below the node range; clipped nodes then
        # produce a non-finite loss and training must stop with the trace
        cfg = TrainingConfig(N=4, Q=30, hidden=8, iterations=40, learning_rate=12.0, seed=0)
        with pytest.raises(TrainingAborted) as err:
            train(cfg, anharmonic_potential())
        assert len(err.value.trace) >= 1

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
