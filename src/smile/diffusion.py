"""Policy-wise diffusion: the variance-exploding noise schedule, its
closed-form forward kernel a_t = a_0 + sigma_t * eps, the noise-prediction
model and its training loss, the forward-posterior mean used by the one-step
generator, and the naive multi-step reverse sampler kept around for
benchmarking.

The schedule is cumulative-std style: sigma_t^2 = sum_{k<=t} beta_k^2 with
sigma_0 = 0, so noise is added to actions without rescaling the signal. The
diffused prior therefore has no fixed simple form, which is exactly why the
naive reverse sampler needs its starting point supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError
from .mathcore import FeedForwardNet, SeededRng, arch_dtype

DEFAULT_BETA_MIN = 0.05
DEFAULT_BETA_MAX = 0.6
# the value of the step's one-hot input column. Adam moves each weight by
# about lr per step whatever its gradient's scale, so this value sets how
# fast the step table moves the first layer: with 1, default-config SMILE
# returns were lower than with 4 on 7 of 8 training seeds, and lower than
# with a learned step embedding on 8 of 8 (CHANGES.md)
STEP_INPUT = 4.0


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step noise stds beta_1..beta_T and cumulative stds sigma_0..sigma_T."""

    T: int
    betas: np.ndarray   # shape (T,), betas[t-1] is beta_t
    sigmas: np.ndarray  # shape (T+1,), sigmas[t] is sigma_t, sigmas[0] == 0


def build_schedule(T: int, beta_min: float = DEFAULT_BETA_MIN,
                   beta_max: float = DEFAULT_BETA_MAX) -> DiffusionSchedule:
    """Linear beta schedule with cumulative root-sum-square sigmas."""
    if T < 1:
        raise ConfigError(f"diffusion step count must be >= 1, got {T}")
    if beta_min <= 0:
        raise ConfigError(f"beta_min must be positive, got {beta_min}")
    if beta_max < beta_min:
        raise ConfigError(
            f"beta_max {beta_max} must be >= beta_min {beta_min}")
    if T == 1:
        betas = np.array([beta_min])
    else:
        betas = beta_min + np.arange(T) * (beta_max - beta_min) / (T - 1)
    sigmas = np.concatenate([[0.0], np.sqrt(np.cumsum(betas ** 2))])
    betas.setflags(write=False)
    sigmas.setflags(write=False)
    return DiffusionSchedule(T=T, betas=betas, sigmas=sigmas)


def _check_t(t, T: int, minimum: int = 0):
    t_arr = np.asarray(t)
    if np.any(t_arr < minimum) or np.any(t_arr > T):
        raise InvalidInputError(f"diffusion step {t} outside {minimum}..{T}")
    return t_arr


def diffuse(a0: np.ndarray, t, sched: DiffusionSchedule,
            eps: np.ndarray) -> np.ndarray:
    """Closed-form forward kernel: a_t = a_0 + sigma_t * eps.

    ``t`` may be a scalar or a per-row integer array for batched ``a0``.
    t = 0 returns ``a0`` exactly.
    """
    a0 = np.asarray(a0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if a0.shape != eps.shape:
        raise InvalidInputError(
            f"noise shape {eps.shape} != action shape {a0.shape}")
    t_arr = _check_t(t, sched.T)
    sig = sched.sigmas[t_arr]
    if t_arr.ndim > 0 and a0.ndim > 1:
        sig = sig[:, None]
    return a0 + sig * eps


def posterior_mean(a_t: np.ndarray, a0: np.ndarray, t,
                   sched: DiffusionSchedule) -> np.ndarray:
    """Mean of the forward posterior q(a_{t-1} | a_t, a_0).

    Gaussian conjugacy of the one-step kernel and the (t-1)-step marginal
    gives mu_t = (sigma_{t-1}^2 * a_t + beta_t^2 * a_0) / sigma_t^2. At t = 1
    this collapses to a_0 because sigma_0 = 0.
    """
    a_t = np.asarray(a_t, dtype=np.float64)
    a0 = np.asarray(a0, dtype=np.float64)
    t_arr = _check_t(t, sched.T, minimum=1)
    s_prev_sq = sched.sigmas[t_arr - 1] ** 2
    beta_sq = sched.betas[t_arr - 1] ** 2
    s_sq = sched.sigmas[t_arr] ** 2
    if t_arr.ndim > 0 and a_t.ndim > 1:
        s_prev_sq = s_prev_sq[:, None]
        beta_sq = beta_sq[:, None]
        s_sq = s_sq[:, None]
    return (s_prev_sq * a_t + beta_sq * a0) / s_sq


def posterior_var(t: int, sched: DiffusionSchedule) -> float:
    """Variance of q(a_{t-1} | a_t, a_0): sigma_{t-1}^2 beta_t^2 / sigma_t^2."""
    _check_t(t, sched.T, minimum=1)
    return float(sched.sigmas[t - 1] ** 2 * sched.betas[t - 1] ** 2
                 / sched.sigmas[t] ** 2)


class NoiseModel(FeedForwardNet):
    """Noise predictor eps(s, a_t, t) -> action-dim vector.

    A FeedForwardNet on [s, a_t, STEP_INPUT * onehot(t)], with T+1 one-hot
    columns for the step, so the step's rows of the first-layer weight are
    a learned per-step table. With T this small a table is simpler and
    exact compared to sinusoidal features, and it spans every function a
    learned step embedding fed through the same layer could give. The
    training-loss norm is selectable: "l1" (default, works better in
    practice) or "l2". ``flat`` is in ``dtype``.
    """

    def __init__(self, state_dim: int, action_dim: int, T: int,
                 rng: SeededRng, hidden: tuple[int, ...] = (256, 256, 256),
                 norm: str = "l1", dtype=np.float64):
        if norm not in ("l1", "l2"):
            raise InvalidInputError(f"unknown loss norm {norm!r}")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.T = T
        self.norm = norm
        super().__init__([state_dim + action_dim + T + 1, *hidden, action_dim],
                         rng, zero_output=True, dtype=dtype)

    def arch(self) -> dict:
        return {"state_dim": self.state_dim, "action_dim": self.action_dim,
                "T": self.T, "widths": self.widths, "norm": self.norm,
                "dtype": self.flat.dtype.name}

    @staticmethod
    def from_arch(arch: dict) -> "NoiseModel":
        hidden = tuple(arch["widths"][1:-1])
        return NoiseModel(arch["state_dim"], arch["action_dim"], arch["T"],
                          SeededRng(0), hidden=hidden, norm=arch["norm"],
                          dtype=arch_dtype(arch))

    def _inputs(self, s: np.ndarray, a_t: np.ndarray, t) -> np.ndarray:
        """The net's input [s, a_t, STEP_INPUT * onehot(t)] in its dtype: a
        vector for a single state at a scalar ``t``, else one row per state,
        at the scalar ``t`` or at one step per row."""
        if isinstance(t, int):
            # the per-step calls of scoring and of the reverse sampler;
            # checked without numpy's per-call overhead
            if not 0 <= t <= self.T:
                raise InvalidInputError(
                    f"diffusion step {t} outside 0..{self.T}")
            scalar = True
        else:
            t = _check_t(t, self.T)
            scalar = t.ndim == 0
        if not (scalar and np.ndim(s) == 1):
            s, a_t = np.atleast_2d(s), np.atleast_2d(a_t)
        rows = np.shape(s)[:-1]
        if (np.shape(s) != (*rows, self.state_dim)
                or np.shape(a_t) != (*rows, self.action_dim)
                or not (scalar or t.shape == rows)):
            raise InvalidInputError(
                f"states {np.shape(s)}, actions {np.shape(a_t)} and steps "
                f"{np.shape(t)} do not fit the model's {self.state_dim} "
                f"state and {self.action_dim} action columns")
        k = self.state_dim + self.action_dim
        x = np.zeros((*rows, self.widths[0]), dtype=self.flat.dtype)
        x[..., :self.state_dim] = s
        x[..., self.state_dim:k] = a_t
        if scalar:
            x[..., k + t] = STEP_INPUT
        else:
            x[np.arange(len(x)), k + t] = STEP_INPUT
        return x

    def predict(self, s: np.ndarray, a_t: np.ndarray, t) -> np.ndarray:
        """Predicted noise; a vector for a single state."""
        out = self.forward(self._inputs(s, a_t, t))
        return out[0] if out.ndim == 2 and np.ndim(s) == 1 else out


def denoiser_loss(model: NoiseModel, states: np.ndarray, actions: np.ndarray,
                  sched: DiffusionSchedule, rng: SeededRng):
    """Noise-prediction loss over a batch of clean (s, a_0) pairs.

    Per example: t ~ Uniform{1..T}, eps ~ N(0, I), a_t = a_0 + sigma_t eps,
    loss = ||eps - model(s, a_t, t)|| under the configured norm (l1 sums
    absolute entries, l2 sums squared entries), averaged over the batch.
    Returns (loss, gradient vector laid out like ``model.flat``).
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    n = len(states)
    if n == 0:
        raise InvalidInputError("denoiser_loss needs a non-empty batch")
    if len(actions) != n:
        raise InvalidInputError("states/actions batch length mismatch")
    t_arr = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal(actions.shape)
    a_t = diffuse(actions, t_arr, sched, eps)
    pred, acts = model.forward_cached(model._inputs(states, a_t, t_arr))
    resid = pred - eps
    if model.norm == "l1":
        loss = float(np.abs(resid).sum(axis=1).mean())
        upstream = np.sign(resid) / n
    else:
        loss = float((resid ** 2).sum(axis=1).mean())
        upstream = 2.0 * resid / n
    return loss, model.backward(acts, upstream)


def naive_reverse_sample(model, s: np.ndarray, sched: DiffusionSchedule,
                         rng: SeededRng, a_t_init: np.ndarray) -> np.ndarray:
    """Multi-step reverse sampler: recursively denoise from a caller-supplied
    a_T (the diffused prior has no closed simple form here, so there is no
    canonical cold start).

    Each step estimates a_0 from the noise prediction, then samples the
    forward posterior; the final t = 1 step returns the posterior mean so no
    fresh noise lands in the returned action.
    """
    a_t = np.asarray(a_t_init, dtype=np.float64)
    for t in range(sched.T, 0, -1):
        eps_hat = model.predict(s, a_t, t)
        a0_hat = a_t - sched.sigmas[t] * eps_hat
        if t == 1:
            # sigma_0 = 0 collapses the posterior mean onto a0_hat; the
            # final step is noiseless by design
            return a0_hat
        std = np.sqrt(posterior_var(t, sched))
        a_t = (posterior_mean(a_t, a0_hat, t, sched)
               + std * rng.standard_normal(a_t.shape))
    return a_t
