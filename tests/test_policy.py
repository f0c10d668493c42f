import numpy as np
import pytest

from smile.diffusion import NoiseModel, denoiser_loss, diffuse, posterior_mean
from smile.envs import make_env_spec, rollout
from smile.errors import InvalidInputError
from smile.mathcore import SeededRng
from smile.policy import BcBaseline, GeneratorPolicy, bc_loss, policy_loss

from gauss_task import GaussianTask, OracleDenoiser


# float64, the precision the tolerances below (down to 1e-12, and
# finite differences at h = 1e-6) are written for
def tiny_policy(state_dim=2, action_dim=2, seed=0, hidden=(8, 8)):
    return GeneratorPolicy(state_dim, action_dim, SeededRng(seed),
                           hidden=hidden, dtype=np.float64)


def tiny_model(state_dim=2, action_dim=2, seed=1, hidden=(8, 8), T=10):
    return NoiseModel(state_dim, action_dim, T, SeededRng(seed),
                      hidden=hidden, dtype=np.float64)


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
        # the policy's action is raw; the environment clips it when it
        # executes it, and the rollout records the executed action
        spec = make_env_spec("pointmass2d")
        p = tiny_policy(state_dim=spec.state_dim)
        for w in p.weights:
            w[...] = 0.0
        p.biases[-1][...] = [5.0, -5.0]
        assert np.allclose(p.act(np.zeros(spec.state_dim)), [5.0, -5.0])
        raw = rollout(spec, p.act, SeededRng(4), 3)
        clipped = rollout(spec, lambda obs: np.clip(p.act(obs), -1.0, 1.0),
                          SeededRng(4), 3)
        assert (raw[1] == [1.0, -1.0]).all()
        for got, want in zip(raw, clipped):
            assert np.array_equal(got, want)


def draw_of(model, states, actions, rng):
    """A draw as denoiser_loss makes one, (t, a_t, eps_hat): per row t and
    eps from ``rng``, a_t = a_0 + sigma_t eps, and ``model.predict``'s
    eps_hat at (s, a_t, t)."""
    t = rng.integers(1, model.sched.T + 1, size=len(states))
    a_t = diffuse(actions, t, model.sched,
                  rng.standard_normal(np.shape(actions)))
    return t, a_t, model.predict(states, a_t, t)


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
        draw = draw_of(oracle, states, task.mu(states), rng)
        loss, _ = policy_loss(p, sched, states, draw)
        # with sigma_d = 0 the oracle denoises a_t exactly back to mu(s)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_affine_reduction_matches_direct_two_mean_form(self, sched):
        model = tiny_model(seed=7)
        p = tiny_policy(seed=8)
        rng_batch = SeededRng(9)
        states = rng_batch.standard_normal((16, 2))
        actions = rng_batch.standard_normal((16, 2))
        _, _, draw = denoiser_loss(model, states, actions, SeededRng(42))
        loss, _ = policy_loss(p, model.sched, states, draw)
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
        _, _, draw = denoiser_loss(model, s, a0, SeededRng(77))
        loss, _ = policy_loss(p, model.sched, s, draw)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_stop_gradient_into_noise_model(self, sched):
        model = tiny_model(seed=13)
        p = tiny_policy(seed=14)
        theta_before = model.flat.copy()
        rng = SeededRng(15)
        states = rng.standard_normal((8, 2))
        actions = rng.standard_normal((8, 2))
        _, _, draw = denoiser_loss(model, states, actions, rng)
        before = [x.copy() for x in draw]
        loss, grads = policy_loss(p, model.sched, states, draw)
        # gradients align with policy parameters only; theta and the draw
        # it predicted are untouched
        assert grads.shape == p.flat.shape
        assert np.array_equal(theta_before, model.flat)
        for got, want in zip(draw, before):
            assert np.array_equal(got, want)

    def test_oracle_denoiser_reduces_to_weighted_mse(self, sched):
        # with eps_hat == eps, a0_hat == a0 so the loss is a weighted MSE
        # between the generated and dataset actions
        task = GaussianTask(seed=3, sigma_d=0.0, action_dim=2, state_dim=2)
        p = tiny_policy(seed=16)
        rng = SeededRng(17)
        states = task.sample_states(rng, 32)
        actions = task.mu(states)
        probe = SeededRng(18)
        t_arr = probe.integers(1, sched.T + 1, size=32)
        eps = probe.standard_normal((32, 2))
        draw = (t_arr, diffuse(actions, t_arr, sched, eps), eps)
        loss, _ = policy_loss(p, sched, states, draw)
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
        _, _, draw = denoiser_loss(model, states, actions, SeededRng(6))
        _, grads = policy_loss(p, model.sched, states, draw)
        grads = p._tensor_views(grads)
        h = 1e-6
        for pi, q in enumerate(p._tensor_views(p.flat)):
            flat = q.reshape(-1)
            for k in (0, flat.size - 1):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = policy_loss(p, model.sched, states, draw)
                flat[k] = orig - h
                down, _ = policy_loss(p, model.sched, states, draw)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                assert grads[pi].reshape(-1)[k] == pytest.approx(
                    fd, rel=1e-3, abs=1e-8)

    def test_empty_batch(self, sched):
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 2)),
                 np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            policy_loss(tiny_policy(), sched, np.zeros((0, 2)), empty)


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


# each loss on (states, actions), with the batch check its first step
LOSSES = {
    "denoiser_loss": lambda s, a: denoiser_loss(tiny_model(), s, a,
                                                SeededRng(0)),
    # a draw whose a_t rows are the actions
    "policy_loss": lambda s, a: policy_loss(
        tiny_policy(), tiny_model().sched, s,
        (np.ones(len(a), dtype=np.int64), a, np.zeros_like(a))),
    "bc_loss": lambda s, a: bc_loss(BcBaseline(2, 2, SeededRng(0),
                                               hidden=(4,)), s, a),
}


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("states,actions", [
    (np.zeros((0, 2)), np.zeros((0, 2))),
    (np.zeros((5, 2)), np.ones((1, 2))),    # numpy would broadcast it
    (np.zeros((5, 2)), np.ones((3, 2))),
    (np.zeros((2, 5, 2)), np.ones((2, 5, 2))),
    (np.zeros(2), np.ones(2)),              # one state, not a batch of one
], ids=["empty", "one_action_row", "three_action_rows", "3d", "1d"])
def test_every_loss_checks_its_batch(loss, states, actions):
    with pytest.raises(InvalidInputError, match=loss):
        LOSSES[loss](states, actions)
