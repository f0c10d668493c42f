"""One-step action generator and a plain behavior-cloning baseline.

The generator is a deterministic state -> action map trained so that, when
its output is substituted into the forward-posterior mean, it matches the
mean implied by the (frozen) noise model at the denoiser loss's own draw,
so one denoiser forward per training step serves both losses. Because the
posterior mean is affine in its clean-action argument, the loss reduces per
example to (beta_t^2 / sigma_t^2)^2 * ||a' - a0_hat||^2, which is what we
optimize; the direct two-mean form stays checkable through posterior_mean.

No gradient ever flows into the noise model here (stop-gradient), and
actions are clipped to environment bounds only at execution time, never
inside losses.
"""

from __future__ import annotations

import numpy as np

from .diffusion import DiffusionSchedule
from .mathcore import FeedForwardNet, SeededRng, arch_dtype, loss_batch

DEFAULT_ACTOR_HIDDEN = (128, 128, 128)


class _Actor(FeedForwardNet):
    """Deterministic state -> action net; ``flat`` is in ``dtype``. The
    environment clips its actions to bounds when it executes them.

    Its default width, 3x128, is half the noise model's. An actor is a
    state -> action map regressed onto a target, and it never decides what
    the filter drops. At 3x128 beside a 3x256 noise model, the quality bench
    (training seeds 7-16, BENCH_quality.json) accepted SMILE, --no-filter
    and BC as non-inferior to 3x256 actors, and a default SMILE run took a
    third less wall clock (ROADMAP item 4)."""

    def __init__(self, state_dim: int, action_dim: int,
                 rng: SeededRng | None,
                 hidden: tuple[int, ...] = DEFAULT_ACTOR_HIDDEN,
                 dtype=np.float32):
        self.state_dim = state_dim
        self.action_dim = action_dim
        super().__init__([state_dim, *hidden, action_dim], rng, dtype=dtype)

    def act(self, s: np.ndarray) -> np.ndarray:
        """Raw (unclipped) action for a state or a batch of states."""
        return self.forward(s)

    def arch(self) -> dict:
        return {"state_dim": self.state_dim, "action_dim": self.action_dim,
                "widths": self.widths, "dtype": self.flat.dtype.name}

    @classmethod
    def from_arch(cls, arch: dict):
        """The actor ``arch`` describes, with zero parameters (no draws)."""
        hidden = tuple(arch["widths"][1:-1])
        return cls(arch["state_dim"], arch["action_dim"], None,
                   hidden=hidden, dtype=arch_dtype(arch))


class GeneratorPolicy(_Actor):
    """One-step generator: a single forward pass per decision."""

    role = "generator"


class BcBaseline(_Actor):
    """Mean-squared-error behavior cloning on the raw dataset."""

    role = "bc"


def policy_loss(policy: GeneratorPolicy, sched: DiffusionSchedule,
                states: np.ndarray, draw):
    """Posterior-mean matching loss; gradients for the policy only.

    ``draw`` is (t, a_t, eps_hat), one row per state, from denoiser_loss
    under ``sched``: t ~ Uniform{1..T}, a_t = a_0 + sigma_t eps for the
    state's demo action a_0, and the noise model's eps_hat at (s, a_t, t).
    The target is a0_hat = a_t - sigma_t * eps_hat, and the loss is
    ||mu_t(a_t, policy(s)) - mu_t(a_t, a0_hat)||^2 averaged over the batch,
    computed through its affine reduction (beta_t^2/sigma_t^2)^2
    * ||policy(s) - a0_hat||^2. No gradient reaches the noise model.
    """
    t_arr, a_t, eps_hat = draw
    states, a_t = loss_batch("policy_loss", states, a_t)
    n = len(states)
    a0_hat = a_t - sched.sigmas[t_arr][:, None] * eps_hat
    a_gen, acts = policy.forward_cached(states)
    w = (sched.betas[t_arr - 1] ** 2 / sched.sigmas[t_arr] ** 2)[:, None]
    diff = a_gen - a0_hat
    loss = float((w ** 2 * diff ** 2).sum(axis=1).mean())
    return loss, policy.backward(acts, 2.0 * w ** 2 * diff / n)


def bc_loss(baseline: BcBaseline, states: np.ndarray, actions: np.ndarray):
    """Per-example squared error ||b(s) - a_0||^2 averaged over the batch."""
    states, actions = loss_batch("bc_loss", states, actions)
    n = len(states)
    pred, acts = baseline.forward_cached(states)
    diff = pred - actions
    loss = float((diff ** 2).sum(axis=1).mean())
    return loss, baseline.backward(acts, 2.0 * diff / n)
