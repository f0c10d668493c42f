"""Analytic Gaussian control task used as the oracle test bed.

Behavior actions are a_0 | s ~ N(mu(s), sigma_d^2 I) with mu(s) = M s, so the
optimal noise predictor has the closed form
eps*(s, a_t, t) = sigma_t (a_t - mu(s)) / (sigma_d^2 + sigma_t^2)
(equivalently sigma_t times the score of the diffused marginal, negated).
That gives exact targets for the denoiser, the generator, and the
diffusion-step predictor without touching any environment.

A demonstrator may act with its own noise, a = mu(s) + sigma_k z, and be
scored from reference actions a_ref = mu(s) + delta. The oracle then
denoises a_ref to D_t = mu(s) + delta c_t with c_t = sigma_d^2 /
(sigma_d^2 + sigma_t^2), so Q_t = -|a - D_t|^2 has a closed-form mean and
variance per transition (expected_q_curve, q_row_variance).
"""

from __future__ import annotations

import numpy as np

from smile.envs import DemoStore
from smile.mathcore import SeededRng

from conftest import traj


class GaussianTask:
    def __init__(self, seed: int = 0, state_dim: int = 4, action_dim: int = 6,
                 sigma_d: float = 0.3):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.sigma_d = sigma_d
        self.M = 0.5 * SeededRng(seed).standard_normal((state_dim, action_dim))

    def mu(self, states: np.ndarray) -> np.ndarray:
        return states @ self.M

    def sample_states(self, rng: SeededRng, n: int) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, (n, self.state_dim))

    def sample_actions(self, rng: SeededRng, states: np.ndarray,
                       sigma: float | None = None) -> np.ndarray:
        """Actions of a demonstrator with noise ``sigma`` (sigma_d unless
        given)."""
        sigma = self.sigma_d if sigma is None else sigma
        return self.mu(states) + sigma * rng.standard_normal(
            (len(states), self.action_dim))

    def eps_star(self, states, a_t, t, sched) -> np.ndarray:
        """Closed-form MMSE noise predictor."""
        sig = np.asarray(sched.sigmas[t])
        if sig.ndim == 1:
            sig = sig[:, None]
        return sig * (a_t - self.mu(states)) / (self.sigma_d ** 2 + sig ** 2)


def denoiser_loss_floor(task: GaussianTask, sched) -> float:
    """Closed-form expected L1 denoiser loss of the exact predictor eps*.

    With t ~ Uniform{1..T}, the residual eps*(s, a_t, t) - eps per action
    dimension is N(0, v_t) with v_t = sigma_d^2 / (sigma_d^2 + sigma_t^2),
    so the loss is action_dim * mean_t sqrt(2 v_t / pi) (the mean of
    |N(0, v_t)|).
    """
    v = task.sigma_d ** 2 / (task.sigma_d ** 2 + sched.sigmas[1:] ** 2)
    return float(task.action_dim * np.sqrt(2.0 * v / np.pi).mean())


def _shrink(task: GaussianTask, sched) -> np.ndarray:
    """c_t = sigma_d^2 / (sigma_d^2 + sigma_t^2), t = 0..T: the share of
    a_ref's offset from mu that the oracle's denoised action keeps."""
    return task.sigma_d ** 2 / (task.sigma_d ** 2 + sched.sigmas ** 2)


def expected_q_curve(task: GaussianTask, sched, sigma_k: float,
                     delta: np.ndarray) -> np.ndarray:
    """E[Q_t], t = 0..T, of a transition a = mu(s) + sigma_k z scored by
    OracleDenoiser from a_ref = mu(s) + delta: a - D_t = sigma_k z -
    delta c_t, so E[Q_t] = -(d sigma_k^2 + |delta|^2 c_t^2)."""
    c = _shrink(task, sched)
    return -(task.action_dim * sigma_k ** 2 + (delta @ delta) * c ** 2)


def q_row_variance(task: GaussianTask, sched, sigma_k: float,
                   delta: np.ndarray) -> np.ndarray:
    """Var[Q_t] of one such transition: |sigma_k z - delta c_t|^2 has
    variance 2 d sigma_k^4 + 4 sigma_k^2 c_t^2 |delta|^2 (|z|^2 is
    chi-squared with d degrees, uncorrelated with delta . z)."""
    c = _shrink(task, sched)
    return (2 * task.action_dim * sigma_k ** 4
            + 4 * sigma_k ** 2 * c ** 2 * (delta @ delta))


class OracleDenoiser:
    """Duck-typed stand-in whose predict() returns eps* exactly."""

    def __init__(self, task: GaussianTask, sched):
        self.task = task
        self.sched = sched

    def predict(self, s, a_t, t):
        single = np.asarray(s).ndim == 1
        out = self.task.eps_star(np.atleast_2d(s), np.atleast_2d(a_t), t,
                                 self.sched)
        return out[0] if single else out


class TablePolicy:
    """Lookup policy: answers each state it was built with by that state's
    pre-stored action (used to impersonate behavior policies). It takes a
    single state or any batch of its states, in any subset or order, and
    looks every row up by its state; a repeated state answers with its
    first row's action. A state it does not hold fails the lookup."""

    def __init__(self, states: np.ndarray, actions: np.ndarray):
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = actions
        self.rows = {}
        for i, state in enumerate(self.states):
            self.rows.setdefault(state.tobytes(), i)

    def act(self, s):
        s = np.asarray(s, dtype=np.float64)
        out = self.actions[[self.rows[row.tobytes()]
                            for row in np.atleast_2d(s)]]
        return out[0] if s.ndim == 1 else out


def make_store(task: GaussianTask, rng: SeededRng, n_traj: int,
               traj_len: int) -> DemoStore:
    """Chunk task samples into fake trajectories (no env attached)."""
    trajectories = []
    for tid in range(n_traj):
        states = task.sample_states(rng, traj_len)
        trajectories.append(traj(states, task.sample_actions(rng, states),
                                 tid=tid))
    return DemoStore.of(trajectories)
