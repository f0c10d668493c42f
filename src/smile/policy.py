"""One-step action generator and a plain behavior-cloning baseline.

The generator is a deterministic state -> action map trained so that, when
its output is substituted into the forward-posterior mean, it matches the
mean implied by the (frozen) noise model. Because the posterior mean is
affine in its clean-action argument, the loss reduces per example to
(beta_t^2 / sigma_t^2)^2 * ||a' - a0_hat||^2, which is what we optimize; the
direct two-mean form stays checkable through posterior_mean.

No gradient ever flows into the noise model here (stop-gradient), and
actions are clipped to environment bounds only at execution time, never
inside losses.
"""

from __future__ import annotations

import numpy as np

from .diffusion import NoiseModel, diffuse
from .mathcore import FeedForwardNet, SeededRng, arch_dtype, loss_batch


class _Actor(FeedForwardNet):
    """Deterministic state -> action net; ``flat`` is in ``dtype``. The
    environment clips its actions to bounds when it executes them."""

    def __init__(self, state_dim: int, action_dim: int, rng: SeededRng,
                 hidden: tuple[int, ...] = (256, 256, 256),
                 dtype=np.float64):
        self.state_dim = state_dim
        self.action_dim = action_dim
        super().__init__([state_dim, *hidden, action_dim], rng,
                         zero_output=True, dtype=dtype)

    def act(self, s: np.ndarray) -> np.ndarray:
        """Raw (unclipped) action for a state or a batch of states."""
        return self.forward(s)

    def arch(self) -> dict:
        return {"state_dim": self.state_dim, "action_dim": self.action_dim,
                "widths": self.widths, "dtype": self.flat.dtype.name}

    @classmethod
    def from_arch(cls, arch: dict):
        hidden = tuple(arch["widths"][1:-1])
        return cls(arch["state_dim"], arch["action_dim"], SeededRng(0),
                   hidden=hidden, dtype=arch_dtype(arch))


class GeneratorPolicy(_Actor):
    """One-step generator: a single forward pass per decision."""

    role = "generator"


class BcBaseline(_Actor):
    """Mean-squared-error behavior cloning on the raw dataset."""

    role = "bc"


def policy_loss(policy: GeneratorPolicy, model: NoiseModel,
                states: np.ndarray, actions: np.ndarray, rng: SeededRng):
    """Posterior-mean matching loss; gradients for the policy only.

    Per example: t ~ Uniform{1..T}, a_t = a_0 + sigma_t eps,
    a0_hat = a_t - sigma_t * model(s, a_t, t), and the loss is
    ||mu_t(a_t, policy(s)) - mu_t(a_t, a0_hat)||^2 averaged over the batch,
    computed through its affine reduction (beta_t^2/sigma_t^2)^2
    * ||policy(s) - a0_hat||^2. The noise model is read-only here.
    """
    states, actions = loss_batch("policy_loss", states, actions)
    n = len(states)
    sched = model.sched
    t_arr = rng.integers(1, sched.T + 1, size=n)
    eps = rng.standard_normal(actions.shape)
    a_t = diffuse(actions, t_arr, sched, eps)
    eps_hat = model.predict(states, a_t, t_arr)
    a0_hat = a_t - sched.sigmas[t_arr][:, None] * eps_hat
    a_gen, acts = policy.forward_cached(states)
    w = (sched.betas[t_arr - 1] ** 2 / sched.sigmas[t_arr] ** 2)[:, None]
    diff = a_gen - a0_hat
    loss = float((w ** 2 * diff ** 2).sum(axis=1).mean())
    upstream = 2.0 * w ** 2 * diff / n
    return loss, policy.backward(acts, upstream)


def bc_loss(baseline: BcBaseline, states: np.ndarray, actions: np.ndarray):
    """Per-example squared error ||b(s) - a_0||^2 averaged over the batch."""
    states, actions = loss_batch("bc_loss", states, actions)
    n = len(states)
    pred, acts = baseline.forward_cached(states)
    diff = pred - actions
    loss = float((diff ** 2).sum(axis=1).mean())
    return loss, baseline.backward(acts, 2.0 * diff / n)
