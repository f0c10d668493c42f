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
from .mathcore import FeedForwardNet, FlatParams, SeededRng, arch_dtype

DEFAULT_BETA_MIN = 0.05
DEFAULT_BETA_MAX = 0.6


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


class NoiseModel(FlatParams):
    """Noise predictor eps(s, a_t, t) -> action-dim vector.

    The diffusion step is conditioned through a learned embedding table with
    T+1 rows (width ``embed_dim``) concatenated to (s, a_t); with T this
    small a table is simpler and exact compared to sinusoidal features. The
    training-loss norm is selectable: "l1" (default, works better in
    practice) or "l2". ``flat`` holds the embedding table, then the MLP,
    all in ``dtype``.

    The embedding enters the MLP only through its first layer, as
    embed[t] @ W0[k:] with k = state_dim + action_dim. So the net is fed
    [s, a_t] alone, and each row's step arrives as a row of the table
    embed @ W0[k:] + b0, built once per call and passed as the first
    layer's bias; its gradient flows back through the same table.
    """

    def __init__(self, state_dim: int, action_dim: int, T: int,
                 rng: SeededRng, hidden: tuple[int, ...] = (256, 256, 256),
                 embed_dim: int = 32, norm: str = "l1", dtype=np.float64):
        if norm not in ("l1", "l2"):
            raise InvalidInputError(f"unknown loss norm {norm!r}")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.T = T
        self.embed_dim = embed_dim
        self.norm = norm
        widths = [state_dim + action_dim + embed_dim, *hidden, action_dim]
        n_embed = (T + 1) * embed_dim
        self.flat = np.zeros(n_embed + FeedForwardNet.size(widths),
                             dtype=dtype)
        self.embed = self.flat[:n_embed].reshape(T + 1, embed_dim)
        self.embed[...] = 0.2 * rng.standard_normal(self.embed.shape)
        self.net = FeedForwardNet(widths, rng, zero_output=True,
                                  flat=self.flat[n_embed:])
        self._views = [self.embed] + self.net.params()
        # W0's rows for the embedding columns, and b0
        self._w_e = self.net.weights[0][state_dim + action_dim:]
        self._b0 = self.net.biases[0]

    def arch(self) -> dict:
        return {"state_dim": self.state_dim, "action_dim": self.action_dim,
                "T": self.T, "embed_dim": self.embed_dim,
                "widths": self.net.widths, "norm": self.norm,
                "dtype": self.flat.dtype.name}

    @staticmethod
    def from_arch(arch: dict) -> "NoiseModel":
        hidden = tuple(arch["widths"][1:-1])
        return NoiseModel(arch["state_dim"], arch["action_dim"], arch["T"],
                          SeededRng(0), hidden=hidden,
                          embed_dim=arch["embed_dim"], norm=arch["norm"],
                          dtype=arch_dtype(arch))

    def _inputs(self, s: np.ndarray, a_t: np.ndarray, t):
        """The net's input [s, a_t], cast once to its dtype, and the first
        layer's bias for step ``t``: embed[t] @ W0[k:] + b0 with
        k = state_dim + action_dim, one row for a scalar ``t`` or a row of
        the (T+1)-row table per entry of a ``t`` array. The input is a
        vector for a single state at a scalar ``t``, else a matrix."""
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
        if scalar and getattr(s, "ndim", None) == 1:
            x = np.concatenate([s, a_t], dtype=self.flat.dtype)
        else:
            x = np.concatenate([np.atleast_2d(s), np.atleast_2d(a_t)],
                               axis=1, dtype=self.flat.dtype)
        k = self.state_dim + self.action_dim
        if x.shape[-1] != k:
            raise InvalidInputError(f"state and action columns number "
                                    f"{x.shape[-1]}, the model takes {k}")
        bias = np.dot(self.embed[t] if scalar else self.embed, self._w_e)
        bias += self._b0
        return x, bias if scalar else bias[t]

    def predict(self, s: np.ndarray, a_t: np.ndarray, t) -> np.ndarray:
        """Predicted noise; a vector for a single state."""
        out = self.net.forward(*self._inputs(s, a_t, t))
        return out[0] if out.ndim == 2 and np.ndim(s) == 1 else out

    def forward_cached(self, s: np.ndarray, a_t: np.ndarray, t_arr: np.ndarray):
        out, acts = self.net.forward_cached(*self._inputs(s, a_t, t_arr))
        return out, (acts, t_arr)

    def backward(self, cache, upstream: np.ndarray) -> np.ndarray:
        """Parameter gradients as one vector laid out like ``flat``.

        With G = onehot(t)^T delta0, the gradient of the first-layer bias
        table, the step's rows of W0 get embed^T G and the embedding gets
        G W0[k:]^T.
        """
        acts, t_arr = cache
        net_grads, delta0 = self.net.backward(acts, upstream)
        onehot = np.zeros((self.T + 1, len(t_arr)), dtype=self.flat.dtype)
        onehot[t_arr, np.arange(len(t_arr))] = 1.0
        table_grad = onehot @ delta0
        k = self.state_dim + self.action_dim
        w0_grad = net_grads[:self.net.weights[0].size].reshape(
            self.net.weights[0].shape)
        np.matmul(self.embed.T, table_grad, out=w0_grad[k:])
        embed_grad = table_grad @ self._w_e.T
        return np.concatenate([embed_grad.reshape(-1), net_grads])


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
    pred, cache = model.forward_cached(states, a_t, t_arr)
    resid = pred - eps
    if model.norm == "l1":
        loss = float(np.abs(resid).sum(axis=1).mean())
        upstream = np.sign(resid) / n
    else:
        loss = float((resid ** 2).sum(axis=1).mean())
        upstream = 2.0 * resid / n
    grads = model.backward(cache, upstream)
    return loss, grads


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
