import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smile.diffusion import (DEFAULT_BETA_MAX, DEFAULT_BETA_MIN, STEP_INPUT,
                             NoiseModel, build_schedule, denoiser_loss,
                             diffuse, naive_reverse_sample, posterior_mean,
                             posterior_var)
from smile.errors import ConfigError, InvalidInputError
from smile.mathcore import SeededRng

from conftest import backward_stage_lengths, float32_rounding_bound
from gauss_task import GaussianTask, OracleDenoiser, denoiser_loss_floor


class TestSchedule:
    def test_sigma0_is_zero(self, sched):
        assert sched.sigmas[0] == 0.0

    def test_sigma1_equals_beta1(self, sched):
        assert sched.sigmas[1] == pytest.approx(0.05, abs=1e-15)

    def test_sigma10_explicit_summation_oracle(self, sched):
        # independent oracle: recompute the 10-term root-sum-square by hand
        total = 0.0
        for t in range(1, 11):
            beta_t = 0.05 + (t - 1) * (0.6 - 0.05) / 9
            total += beta_t ** 2
        assert abs(sched.sigmas[10] - math.sqrt(total)) < 1e-9
        assert sched.sigmas[10] == pytest.approx(1.168, abs=1e-3)

    def test_monotone_and_positive(self, sched):
        assert np.all(np.diff(sched.sigmas) > 0)
        assert np.all(sched.betas > 0)

    def test_nonpositive_beta_min_rejected(self):
        with pytest.raises(ConfigError):
            build_schedule(10, 0.0, 0.6)
        with pytest.raises(ConfigError):
            build_schedule(0, 0.05, 0.6)

    @pytest.mark.parametrize("beta_min,beta_max", [
        (math.nan, 0.6), (0.05, math.nan), (0.05, math.inf),
        (-math.inf, 0.6), (0.05, 0.01)])
    def test_bad_betas_rejected(self, beta_min, beta_max):
        # NaN passes both ordered comparisons, so it is checked on its own
        with pytest.raises(ConfigError):
            build_schedule(10, beta_min, beta_max)

    def test_single_step_schedule(self):
        sched = build_schedule(1, 0.3, 0.3)
        assert sched.betas.tolist() == [0.3]
        assert sched.sigmas.tolist() == [0.0, 0.3]

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(1, 40),
           beta_min=st.floats(1e-4, 1.0),
           spread=st.floats(0.0, 2.0))
    def test_identity_sigma_sq_recurrence(self, T, beta_min, spread):
        sched = build_schedule(T, beta_min, beta_min + spread)
        for t in range(1, T + 1):
            lhs = sched.sigmas[t] ** 2
            rhs = sched.sigmas[t - 1] ** 2 + sched.betas[t - 1] ** 2
            assert abs(lhs - rhs) < 1e-12


class TestDiffuse:
    def test_t0_returns_a0_exactly(self, sched, rng):
        a0 = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        assert np.array_equal(diffuse(a0, 0, sched, eps), a0)

    def test_t1_scales_by_beta1(self, sched):
        out = diffuse(np.zeros(3), 1, sched, np.ones(3))
        assert np.allclose(out, 0.05)

    def test_out_of_range_t(self, sched):
        with pytest.raises(InvalidInputError):
            diffuse(np.zeros(2), 11, sched, np.zeros(2))
        with pytest.raises(InvalidInputError):
            diffuse(np.zeros(2), -1, sched, np.zeros(2))

    def test_shape_mismatch(self, sched):
        with pytest.raises(InvalidInputError):
            diffuse(np.zeros(2), 1, sched, np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(0, 10), scale=st.floats(-3, 3))
    def test_linear_in_eps_and_a0(self, t, scale):
        sched = build_schedule(10, 0.05, 0.6)
        rng = SeededRng(abs(hash((t, scale))) % 2 ** 32)
        a0 = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        lhs = diffuse(scale * a0, t, sched, scale * eps)
        assert np.allclose(lhs, scale * diffuse(a0, t, sched, eps), atol=1e-12)
        lhs2 = diffuse(a0, t, sched, scale * eps) - diffuse(a0, t, sched,
                                                            0 * eps)
        rhs2 = scale * (diffuse(a0, t, sched, eps) - a0)
        assert np.allclose(lhs2, rhs2, atol=1e-12)

    def test_composition_matches_closed_form_variance(self, sched):
        # one-step kernel composed on top of t-1 steps vs the closed form:
        # Monte Carlo variance should agree within 2% at every t
        rng = SeededRng(99)
        n = 10 ** 5
        for t in (2, 5, 10):
            eps_prev = rng.standard_normal(n)
            eps_step = rng.standard_normal(n)
            a_prev = diffuse(np.zeros(n), t - 1, sched, eps_prev)
            a_two_stage = a_prev + sched.betas[t - 1] * eps_step
            var_closed = sched.sigmas[t] ** 2
            assert a_two_stage.var() == pytest.approx(var_closed, rel=0.02)
            assert abs(a_two_stage.mean()) < 3 * sched.sigmas[t] / math.sqrt(n) * 3


class TestNoiseModelSchedule:
    """The noise model owns its schedule, and its arch carries it."""

    @pytest.mark.parametrize("T", [1, 10])
    def test_arch_round_trip(self, T):
        model = NoiseModel(3, 2, T, SeededRng(0), hidden=(4,),
                           beta_min=0.1, beta_max=0.9)
        arch = json.loads(json.dumps(model.arch()))
        # a T = 1 schedule uses beta_min alone; beta_max still round-trips
        assert (arch["T"], arch["beta_min"], arch["beta_max"]) == (T, 0.1,
                                                                   0.9)
        copy = NoiseModel.from_arch(arch)
        assert copy.arch() == model.arch()
        want = build_schedule(T, 0.1, 0.9)
        for sched in (model.sched, copy.sched):
            assert sched.T == T
            assert sched.betas.tobytes() == want.betas.tobytes()
            assert sched.sigmas.tobytes() == want.sigmas.tobytes()

    def test_default_schedule(self, sched):
        model = NoiseModel(3, 2, 10, SeededRng(0), hidden=(4,))
        assert (model.sched.beta_min, model.sched.beta_max) == (
            DEFAULT_BETA_MIN, DEFAULT_BETA_MAX)
        assert model.sched.sigmas.tobytes() == sched.sigmas.tobytes()

    @pytest.mark.parametrize("key", ["beta_min", "beta_max"])
    def test_arch_without_betas_rejected(self, key):
        arch = NoiseModel(3, 2, 10, SeededRng(0), hidden=(4,)).arch()
        del arch[key]
        with pytest.raises(KeyError):
            NoiseModel.from_arch(arch)

    def test_bad_betas_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(3, 2, 10, SeededRng(0), hidden=(4,), beta_min=0.0)


class TestStepTable:
    """The step enters as T+1 one-hot input columns, so the step's rows of
    W0 are the learned step table: predict is the net fed
    [s, a_t, STEP_INPUT * onehot(t)], bit for bit."""

    @staticmethod
    def onehot_input(model, s, a_t, t):
        s = np.atleast_2d(s)
        onehot = np.zeros((len(s), model.T + 1))
        onehot[np.arange(len(s)), t] = STEP_INPUT
        return np.concatenate([s, np.atleast_2d(a_t), onehot], axis=1)

    @staticmethod
    def models(sched, seed):
        for dtype in (np.float32, np.float64):
            model = NoiseModel(3, 2, sched.T, SeededRng(seed),
                               hidden=(16, 16), dtype=dtype)
            # a zero output layer would make every prediction 0
            w = model.weights[-1]
            w[...] = 0.3 * SeededRng(seed + 1).standard_normal(w.shape)
            yield model

    def test_predict_matches_concatenated_input(self, sched):
        for model in self.models(sched, 40):
            assert model.widths[0] == 3 + 2 + sched.T + 1
            rng = SeededRng(42)
            s, a_t = rng.standard_normal((9, 3)), rng.standard_normal((9, 2))
            t_arr = rng.integers(0, sched.T + 1, size=9)
            want = model.forward(self.onehot_input(model, s, a_t, t_arr))
            assert model.predict(s, a_t, t_arr).tobytes() == want.tobytes()
            for i in (0, 4):
                t = int(t_arr[i])
                single = model.predict(s[i], a_t[i], t)
                assert single.shape == (2,)
                x = self.onehot_input(model, s[i], a_t[i], t)[0]
                assert single.tobytes() == model.forward(x).tobytes()
                # lists take the general path, to the same bytes
                listed = model.predict(list(s[i]), list(a_t[i]), t)
                assert listed.tobytes() == single.tobytes()

    def test_scalar_step_matches_step_array(self, sched):
        for model in self.models(sched, 43):
            rng = SeededRng(45)
            s, a_t = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
            for t in (0, 4, sched.T):
                want = model.predict(s, a_t, np.full(6, t)).tobytes()
                assert model.predict(s, a_t, t).tobytes() == want
                assert model.predict(s, a_t, np.int64(t)).tobytes() == want

    def test_bad_step_and_width_rejected(self, sched):
        model = NoiseModel(3, 2, sched.T, SeededRng(0), hidden=(4,))
        for t in (-1, sched.T + 1, np.array([1, sched.T + 1])):
            with pytest.raises(InvalidInputError):
                model.predict(np.zeros(3), np.zeros(2), t)
        for s, a_t, t in ((np.zeros((2, 4)), np.zeros((2, 2)), 1),
                          # the right total width, split wrongly
                          (np.zeros((2, 4)), np.zeros((2, 1)), 1),
                          (np.zeros((2, 3)), np.zeros((3, 2)), 1),
                          (np.zeros((2, 3)), np.zeros((2, 2)),
                           np.array([1, 2, 3])),
                          # a single state at an int step, the sampler's call
                          (np.zeros(4), np.zeros(2), 1),
                          (np.zeros(3), np.zeros(1), 1),
                          (np.zeros(3), np.zeros((1, 2)), 1)):
            with pytest.raises(InvalidInputError):
                model.predict(s, a_t, t)
        with pytest.raises(InvalidInputError):
            # [s, a_t] without the step's columns
            model.forward(np.zeros(5))


class _LossStandIn:
    """Stands in for a NoiseModel inside denoiser_loss: it carries the
    schedule the loss diffuses with, its ``_inputs`` hands (s, a_t, t)
    through to its forward pass, which returns ``eps(s, a_t, t)``, and its
    backward pass returns no gradient."""

    def __init__(self, sched):
        self.sched = sched

    def _inputs(self, s, a_t, t):
        return s, a_t, t

    def forward_cached(self, x):
        return self.eps(*x), None

    def backward(self, acts, upstream):
        return []


class _ExactEpsPredictor(_LossStandIn):
    """Knows the deterministic behavior mu(s), so it can invert the kernel:
    for a0 = mu(s), the true noise is (a_t - mu(s)) / sigma_t."""

    def __init__(self, mu_fn, sched):
        super().__init__(sched)
        self.mu_fn = mu_fn

    def eps(self, s, a_t, t_arr):
        return (a_t - self.mu_fn(s)) / self.sched.sigmas[t_arr][:, None]


class _EpsStarModel(_LossStandIn):
    """Loss-side stand-in for the closed-form MMSE predictor eps* of a
    Gaussian task."""

    def __init__(self, task, sched):
        super().__init__(sched)
        self.task = task

    def eps(self, s, a_t, t_arr):
        return self.task.eps_star(s, a_t, t_arr, self.sched)


class TestDenoiserLoss:
    # the ids name the loss, so each case keeps the id it had when an L2
    # case ran beside it
    @pytest.mark.parametrize("action_dim,sigma_d", [
        pytest.param(2, 0.3, id="2-0.3-l1"),
        pytest.param(5, 1.0, id="5-1.0-l1")])
    def test_loss_floor_matches_monte_carlo(self, sched, action_dim,
                                            sigma_d):
        # denoiser_loss of the exact eps* on fresh task samples, over 20
        # independent 5000-row batches, agrees with the closed-form floor
        # within 4 Monte-Carlo standard errors of the batch mean
        task = GaussianTask(seed=3, state_dim=3, action_dim=action_dim,
                            sigma_d=sigma_d)
        model = _EpsStarModel(task, sched)
        rng = SeededRng(31)
        losses = []
        for _ in range(20):
            states = task.sample_states(rng, 5000)
            actions = task.sample_actions(rng, states)
            loss, _, _ = denoiser_loss(model, states, actions, rng)
            losses.append(loss)
        se = np.std(losses, ddof=1) / math.sqrt(len(losses))
        floor = denoiser_loss_floor(task, sched)
        assert abs(np.mean(losses) - floor) <= 4 * se

    def test_oracle_predictor_zero_loss(self, sched, rng):
        task = GaussianTask(seed=2, sigma_d=0.0, action_dim=3)
        states = task.sample_states(rng, 64)
        actions = task.mu(states)  # deterministic behavior
        oracle = _ExactEpsPredictor(task.mu, sched)
        loss, _, _ = denoiser_loss(oracle, states, actions, rng)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_frozen_single_example_hand_value(self, sched):
        # float64, for the 1e-12 bounds here and below
        model = NoiseModel(2, 2, sched.T, SeededRng(8), hidden=(6, 6),
                           dtype=np.float64)
        s = np.array([[0.3, -0.4]])
        a0 = np.array([[0.5, 0.2]])
        # replicate the internal draws with an identically seeded stream
        probe = SeededRng(123)
        t = int(probe.integers(1, sched.T + 1, size=1)[0])
        eps = probe.standard_normal((1, 2))
        a_t = a0 + sched.sigmas[t] * eps
        expected = np.abs(model.predict(s, a_t, np.array([t]))
                          - eps).sum()
        loss, _, _ = denoiser_loss(model, s, a0, SeededRng(123))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_draw_is_the_forwards_own(self, sched):
        # the draw holds the steps and diffused actions of the loss's own
        # t and noise, and the prediction that its forward made for them
        model = NoiseModel(2, 2, sched.T, SeededRng(9), hidden=(6, 6),
                           dtype=np.float64)
        model.weights[-1][...] = SeededRng(10).standard_normal(
            model.weights[-1].shape)
        batch = SeededRng(11)
        states = batch.standard_normal((16, 2))
        actions = batch.standard_normal((16, 2))
        loss, _, (t, a_t, eps_hat) = denoiser_loss(model, states, actions,
                                                   SeededRng(12))
        probe = SeededRng(12)
        want_t = probe.integers(1, sched.T + 1, size=16)
        eps = probe.standard_normal((16, 2))
        assert np.array_equal(t, want_t)
        assert np.array_equal(a_t, diffuse(actions, want_t, sched, eps))
        assert np.array_equal(eps_hat, model.predict(states, a_t, t))
        assert loss == pytest.approx(
            np.abs(eps_hat - eps).sum(axis=1).mean(), rel=1e-12)

    def test_empty_batch_rejected(self, sched, rng):
        model = NoiseModel(2, 2, sched.T, SeededRng(0), hidden=(4,))
        with pytest.raises(InvalidInputError):
            denoiser_loss(model, np.zeros((0, 2)), np.zeros((0, 2)),
                          rng)

    def test_gradients_match_finite_difference(self, sched):
        # float64: a float32 parameter cannot hold a step of h = 1e-6
        model = NoiseModel(2, 2, sched.T, SeededRng(3), hidden=(5,),
                           dtype=np.float64)
        rng_batch = SeededRng(7)
        states = rng_batch.standard_normal((4, 2))
        actions = rng_batch.standard_normal((4, 2))
        _, grads, _ = denoiser_loss(model, states, actions, SeededRng(11))
        assert grads.shape == model.flat.shape
        grads = model._tensor_views(grads)
        h = 1e-6
        for pi, p in enumerate(model._tensor_views(model.flat)):
            flat = p.reshape(-1)
            for k in (0, flat.size // 2, flat.size - 1):
                orig = flat[k]
                flat[k] = orig + h
                up, _, _ = denoiser_loss(model, states, actions,
                                         SeededRng(11))
                flat[k] = orig - h
                down, _, _ = denoiser_loss(model, states, actions,
                                           SeededRng(11))
                flat[k] = orig
                fd = (up - down) / (2 * h)
                got = grads[pi].reshape(-1)[k]
                assert got == pytest.approx(fd, rel=1e-3, abs=1e-7)

    def test_float32_gradients_match_float64(self, sched):
        # one float32 model and a float64 copy of its weights, on the same
        # batch and the same t and noise draws: the float32 gradient is
        # float32 and within the worst-case rounding bound of its net's
        # stages plus the upstream cast (measured: 2.3-2.4 u, against a
        # bound of 192 u here)
        m32 = NoiseModel(3, 2, sched.T, SeededRng(4), hidden=(32, 32),
                         dtype=np.float32)
        # a zero output layer would zero every other gradient
        m32.weights[-1][...] = 0.3 * SeededRng(5).standard_normal(
            m32.weights[-1].shape)
        m64 = NoiseModel.from_arch({**m32.arch(), "dtype": "float64"})
        m64.flat[...] = m32.flat
        batch = SeededRng(6)
        states = batch.standard_normal((64, 3))
        actions = batch.standard_normal((64, 2))
        _, g32, _ = denoiser_loss(m32, states, actions, SeededRng(7))
        _, g64, _ = denoiser_loss(m64, states, actions, SeededRng(7))
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        bound = float32_rounding_bound(
            backward_stage_lengths(m32.widths, 64) + [1])
        assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) <= bound


class TestPosterior:
    def test_t1_collapses_to_a0(self, sched, rng):
        a_t = rng.standard_normal(3)
        a0 = rng.standard_normal(3)
        assert np.allclose(posterior_mean(a_t, a0, 1, sched), a0, atol=1e-15)

    def test_equal_endpoints_fixed_point(self, sched, rng):
        a = rng.standard_normal(3)
        for t in range(1, sched.T + 1):
            assert np.allclose(posterior_mean(a, a, t, sched), a, atol=1e-12)

    def test_grid_bayes_oracle_t2(self, sched):
        # numerical Bayes posterior over a_1 on a fine grid:
        # q(a_1 | a_2, a_0) ∝ N(a_2; a_1, beta_2^2) N(a_1; a_0, sigma_1^2)
        a2, a0 = 1.0, 0.0
        beta2 = sched.betas[1]
        sigma1 = sched.sigmas[1]
        grid = np.linspace(-1.0, 2.0, 300001)
        w = (np.exp(-0.5 * (a2 - grid) ** 2 / beta2 ** 2)
             * np.exp(-0.5 * (grid - a0) ** 2 / sigma1 ** 2))
        oracle = float((grid * w).sum() / w.sum())
        got = posterior_mean(np.array([a2]), np.array([a0]), 2, sched)[0]
        assert got == pytest.approx(sched.sigmas[1] ** 2 / sched.sigmas[2] ** 2,
                                    rel=1e-12)
        assert abs(got - oracle) < 1e-3

    def test_t0_rejected(self, sched):
        with pytest.raises(InvalidInputError):
            posterior_mean(np.zeros(2), np.zeros(2), 0, sched)
        with pytest.raises(InvalidInputError):
            posterior_var(0, sched)

    def test_posterior_var_t1_is_zero(self, sched):
        assert posterior_var(1, sched) == 0.0


class TestNaiveReverse:
    def test_single_step_schedule_collapses(self):
        sched = build_schedule(1, 0.3, 0.3)
        task = GaussianTask(seed=4, sigma_d=0.1, action_dim=2)
        oracle = OracleDenoiser(task, sched)
        rng = SeededRng(0)
        s = task.sample_states(rng, 1)[0]
        a1 = rng.standard_normal(2)
        out = naive_reverse_sample(oracle, s, sched, rng, a1)
        expected = a1 - sched.sigmas[1] * oracle.predict(s, a1, 1)
        assert np.allclose(out, expected, atol=1e-12)

    def test_point_mass_reconstruction(self, sched):
        # near-delta behavior: the oracle-driven reverse chain should land
        # within sigma_d / 2 of the behavior center on average
        sigma_d = 0.02
        task = GaussianTask(seed=6, sigma_d=sigma_d, action_dim=2)
        oracle = OracleDenoiser(task, sched)
        rng = SeededRng(13)
        states = task.sample_states(rng, 200)
        mu = task.mu(states)
        errs = []
        for i in range(len(states)):
            a0 = mu[i] + sigma_d * rng.standard_normal(2)
            a_T = a0 + sched.sigmas[sched.T] * rng.standard_normal(2)
            out = naive_reverse_sample(oracle, states[i], sched, rng, a_T)
            errs.append(np.abs(out - mu[i]).mean())
        assert np.mean(errs) < sigma_d / 2
