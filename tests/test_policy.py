import numpy as np
import pytest

from smile.diffusion import NoiseModel, diffuse, posterior_mean
from smile.errors import InvalidInputError
from smile.mathcore import SeededRng, reshape_views
from smile.policy import BcBaseline, GeneratorPolicy, bc_loss, policy_loss

from gauss_task import GaussianTask, OracleDenoiser


def tiny_policy(state_dim=2, action_dim=2, seed=0, hidden=(8, 8)):
    return GeneratorPolicy(state_dim, action_dim, SeededRng(seed),
                           hidden=hidden)


def tiny_model(state_dim=2, action_dim=2, seed=1, hidden=(8, 8), T=10):
    return NoiseModel(state_dim, action_dim, T, SeededRng(seed),
                      hidden=hidden)


class TestPolicyAct:
    def test_zero_weights_bias_action(self):
        p = tiny_policy()
        for w in p.weights:
            w[...] = 0.0
        p.biases[-1][...] = [0.4, -0.6]
        for s in (np.zeros(2), np.array([3.0, -1.0])):
            assert np.allclose(p.act(s), [0.4, -0.6])

    def test_deterministic(self):
        p = tiny_policy(seed=3)
        s = np.array([0.5, -0.25])
        assert np.array_equal(p.act(s), p.act(s))

    def test_dim_mismatch(self):
        p = tiny_policy()
        with pytest.raises(InvalidInputError):
            p.act(np.zeros(5))

    def test_clipping_only_at_execution(self):
        p = tiny_policy()
        for w in p.weights:
            w[...] = 0.0
        p.biases[-1][...] = [5.0, -5.0]
        s = np.zeros(2)
        assert np.allclose(p.act(s), [5.0, -5.0])  # raw is unclipped
        assert np.allclose(p.act_clipped(s), [1.0, -1.0])


class TestPolicyLoss:
    def test_policy_matching_denoised_target_zero_loss(self, sched):
        # policy output equals a0_hat exactly -> identical posterior means
        task = GaussianTask(seed=2, sigma_d=0.0, action_dim=2, state_dim=2)
        oracle = OracleDenoiser(task, sched)

        p = tiny_policy()
        # the policy pretends to emit mu(s) exactly
        p.forward_cached = lambda s: (task.mu(s), None)
        p.backward = lambda acts, upstream: []
        rng = SeededRng(5)
        states = task.sample_states(rng, 32)
        loss, _ = policy_loss(p, oracle, states, task.mu(states), sched, rng)
        # with sigma_d = 0 the oracle denoises a_t exactly back to mu(s)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_affine_reduction_matches_direct_two_mean_form(self, sched):
        model = tiny_model(seed=7)
        p = tiny_policy(seed=8)
        rng_batch = SeededRng(9)
        states = rng_batch.standard_normal((16, 2))
        actions = rng_batch.standard_normal((16, 2))
        loss, _ = policy_loss(p, model, states, actions, sched, SeededRng(42))
        # independent direct computation through both posterior means
        probe = SeededRng(42)
        t_arr = probe.integers(1, sched.T + 1, size=16)
        eps = probe.standard_normal((16, 2))
        a_t = diffuse(actions, t_arr, sched, eps)
        eps_hat = model.predict(states, a_t, t_arr)
        a0_hat = a_t - sched.sigmas[t_arr][:, None] * eps_hat
        a_gen = p.act(states)
        mu_gen = posterior_mean(a_t, a_gen, t_arr, sched)
        mu_hat = posterior_mean(a_t, a0_hat, t_arr, sched)
        direct = ((mu_gen - mu_hat) ** 2).sum(axis=1).mean()
        assert abs(loss - direct) < 1e-10

    def test_frozen_single_example_hand_value(self, sched):
        model = tiny_model(seed=11)
        p = tiny_policy(seed=12)
        s = np.array([[0.2, -0.3]])
        a0 = np.array([[0.1, 0.6]])
        probe = SeededRng(77)
        t = int(probe.integers(1, sched.T + 1, size=1)[0])
        eps = probe.standard_normal((1, 2))
        a_t = a0 + sched.sigmas[t] * eps
        a0_hat = a_t - sched.sigmas[t] * model.predict(s, a_t, np.array([t]))
        w = sched.betas[t - 1] ** 2 / sched.sigmas[t] ** 2
        expected = float((w ** 2 * (p.act(s) - a0_hat) ** 2).sum())
        loss, _ = policy_loss(p, model, s, a0, sched, SeededRng(77))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_stop_gradient_into_noise_model(self, sched):
        model = tiny_model(seed=13)
        p = tiny_policy(seed=14)
        theta_before = [q.copy() for q in model.params()]
        rng = SeededRng(15)
        states = rng.standard_normal((8, 2))
        actions = rng.standard_normal((8, 2))
        loss, grads = policy_loss(p, model, states, actions, sched, rng)
        # gradients align with policy parameters only; theta untouched
        assert grads.shape == p.flat.shape
        for before, after in zip(theta_before, model.params()):
            assert np.array_equal(before, after)

    def test_oracle_denoiser_reduces_to_weighted_mse(self, sched):
        # with eps_hat == eps, a0_hat == a0 so the loss is a weighted MSE
        # between the generated and dataset actions
        task = GaussianTask(seed=3, sigma_d=0.0, action_dim=2, state_dim=2)

        class ExactEps:
            def predict(self, s, a_t, t_arr):
                sig = sched.sigmas[t_arr][:, None]
                return (a_t - task.mu(s)) / sig

        p = tiny_policy(seed=16)
        rng = SeededRng(17)
        states = task.sample_states(rng, 32)
        actions = task.mu(states)
        loss, _ = policy_loss(p, ExactEps(), states, actions, sched,
                              SeededRng(18))
        probe = SeededRng(18)
        t_arr = probe.integers(1, sched.T + 1, size=32)
        probe.standard_normal((32, 2))
        w = (sched.betas[t_arr - 1] ** 2 / sched.sigmas[t_arr] ** 2)[:, None]
        expected = float(
            (w ** 2 * (p.act(states) - actions) ** 2).sum(axis=1).mean())
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_gradients_match_finite_difference(self, sched):
        model = tiny_model(seed=19, hidden=(5,))
        p = tiny_policy(seed=20, hidden=(5,))
        rng = SeededRng(21)
        states = rng.standard_normal((4, 2))
        actions = rng.standard_normal((4, 2))
        _, grads = policy_loss(p, model, states, actions, sched, SeededRng(6))
        grads = reshape_views(grads, [q.shape for q in p.params()])
        h = 1e-6
        for pi, q in enumerate(p.params()):
            flat = q.reshape(-1)
            for k in (0, flat.size - 1):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = policy_loss(p, model, states, actions, sched,
                                    SeededRng(6))
                flat[k] = orig - h
                down, _ = policy_loss(p, model, states, actions, sched,
                                      SeededRng(6))
                flat[k] = orig
                fd = (up - down) / (2 * h)
                assert grads[pi].reshape(-1)[k] == pytest.approx(
                    fd, rel=1e-3, abs=1e-8)

    def test_empty_batch(self, sched, rng):
        with pytest.raises(InvalidInputError):
            policy_loss(tiny_policy(), tiny_model(), np.zeros((0, 2)),
                        np.zeros((0, 2)), sched, rng)


class TestBcLoss:
    def test_perfect_fit_zero(self):
        b = BcBaseline(2, 2, SeededRng(0), hidden=(4,))
        rng = SeededRng(1)
        states = rng.standard_normal((8, 2))
        loss, _ = bc_loss(b, states, b.act(states))
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_constant_predictor_two_targets(self):
        b = BcBaseline(1, 1, SeededRng(0), hidden=(4,))
        for w in b.weights:
            w[...] = 0.0
        b.biases[-1][...] = [1.0]
        loss, _ = bc_loss(b, np.array([[0.0], [0.0]]),
                          np.array([[0.0], [2.0]]))
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_empty_batch(self):
        b = BcBaseline(2, 2, SeededRng(0), hidden=(4,))
        with pytest.raises(InvalidInputError):
            bc_loss(b, np.zeros((0, 2)), np.zeros((0, 2)))
