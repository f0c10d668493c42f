"""Minimal numerical substrate: seeded RNG, feed-forward nets with analytic
gradients, an adaptive-moment optimizer, EMA tracking, and checkpoint I/O.

Everything is float64 numpy. Networks are plain MLPs (tanh hidden layers,
identity output); gradients are computed by hand-rolled backprop, so the
whole stack is deterministic given seeds. Parameter sets travel as
``list[np.ndarray]`` throughout, which keeps the optimizer and EMA tracker
agnostic of what the parameters belong to.

Training is single-writer: parameter mutation happens on one logical thread,
and read-only snapshots (EMA shadows, checkpoints) are full copies.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointVersionError, InvalidInputError, TrainingError

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def derive_seed(root: int, tag: str) -> int:
    """Fan a root seed out to a purpose-tagged sub-seed.

    Stable across platforms and runs: blake2b("{root}:{tag}") truncated to
    63 bits. Every random stream in the package is derived this way from the
    experiment's single root seed.
    """
    digest = hashlib.blake2b(f"{root}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


class SeededRng:
    """PCG64 generator that remembers its seed and exposes its counter state.

    Identical seed + identical call sequence gives an identical stream. The
    full bit-generator state round-trips through checkpoints.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, tag: str) -> "SeededRng":
        return SeededRng(derive_seed(self.seed, tag))

    def standard_normal(self, shape) -> np.ndarray:
        return self.gen.standard_normal(shape)

    def uniform(self, low, high, shape) -> np.ndarray:
        return self.gen.uniform(low, high, shape)

    def integers(self, low, high, size=None) -> np.ndarray:
        return self.gen.integers(low, high, size=size)

    def get_state(self) -> dict:
        return {"seed": self.seed, "state": self.gen.bit_generator.state}

    def set_state(self, payload: dict) -> None:
        self.seed = int(payload["seed"])
        self.gen.bit_generator.state = payload["state"]


# ---------------------------------------------------------------------------
# Feed-forward networks
# ---------------------------------------------------------------------------

class FeedForwardNet:
    """MLP with tanh hidden activations and an identity output layer.

    ``widths`` lists layer sizes input-first, e.g. ``[4, 256, 256, 256, 2]``.
    Weights are Glorot-normal initialized from the supplied rng. The forward
    pass accepts a single vector or a (batch, in) matrix.
    """

    def __init__(self, widths: list[int], rng: SeededRng,
                 zero_output: bool = False):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise InvalidInputError(f"bad layer widths {widths}")
        self.widths = list(widths)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / (n_in + n_out))
            self.weights.append(scale * rng.standard_normal((n_in, n_out)))
            self.biases.append(np.zeros(n_out))
        if zero_output:
            # start at the zero function: sensible prior for noise
            # predictors and centered-action policies, faster early fit
            self.weights[-1][...] = 0.0

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    def params(self) -> list[np.ndarray]:
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_params(self, params: list[np.ndarray]) -> None:
        own = self.params()
        if len(own) != len(params):
            raise InvalidInputError("parameter list length mismatch")
        for dst, src in zip(own, params):
            if dst.shape != src.shape:
                raise InvalidInputError(
                    f"parameter shape mismatch {dst.shape} vs {src.shape}")
            dst[...] = src

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise InvalidInputError(
                f"input dim {x.shape[-1]} != first layer width {self.in_dim}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = np.tanh(h)
        return h

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping the post-activation of every layer for backprop."""
        x = self._check_input(x)
        if x.ndim == 1:
            x = x[None, :]
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                h = np.tanh(h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], upstream: np.ndarray):
        """Backprop of (upstream . output) through the cached forward pass.

        Returns (param_grads, input_grad) with param_grads aligned with
        ``params()``. ``upstream`` must match the cached batch shape.
        """
        delta = np.asarray(upstream, dtype=np.float64)
        if delta.ndim == 1:
            delta = delta[None, :]
        if delta.shape != acts[-1].shape:
            raise InvalidInputError(
                f"upstream shape {delta.shape} != output shape {acts[-1].shape}")
        grads: list[np.ndarray | None] = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            grads[2 * i] = acts[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
            if i > 0:
                # tanh'(z) expressed through the cached post-activation
                delta = delta * (1.0 - acts[i] ** 2)
        return grads, delta


# ---------------------------------------------------------------------------
# Adaptive-moment optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam accumulator state for one parameter list."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def for_params(params: list[np.ndarray], lr: float = 1e-3) -> "OptimizerState":
        return OptimizerState(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def optimizer_step(state: OptimizerState, params: list[np.ndarray],
                   grads: list[np.ndarray]) -> list[np.ndarray]:
    """One bias-corrected adaptive-moment update, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise InvalidInputError("params/grads/moments length mismatch")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient at parameter index {i}")
        if g.shape != params[i].shape:
            raise InvalidInputError(
                f"gradient shape {g.shape} != param shape {params[i].shape} at {i}")
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params


# ---------------------------------------------------------------------------
# Exponential moving average
# ---------------------------------------------------------------------------

@dataclass
class EmaTracker:
    """Shadow copy of a parameter list, EMA-updated after a warmup period.

    ``warmup`` counts update() calls: until then the shadow is a direct copy
    of the live parameters (callers that update every k training iterations
    should divide their intended warmup-in-iterations by k).
    """

    shadow: list[np.ndarray]
    decay: float = 0.995
    warmup: int = 100
    updates: int = 0

    @staticmethod
    def for_params(params: list[np.ndarray], decay: float = 0.995,
                   warmup: int = 100) -> "EmaTracker":
        return EmaTracker(shadow=[p.copy() for p in params], decay=decay,
                          warmup=warmup)


def ema_update(tracker: EmaTracker, params: list[np.ndarray]) -> EmaTracker:
    if len(tracker.shadow) != len(params):
        raise InvalidInputError("shadow/params length mismatch")
    for s, p in zip(tracker.shadow, params):
        if s.shape != p.shape:
            raise InvalidInputError(
                f"shadow shape {s.shape} != param shape {p.shape}")
    tracker.updates += 1
    if tracker.updates <= tracker.warmup:
        for s, p in zip(tracker.shadow, params):
            s[...] = p
    else:
        d = tracker.decay
        for s, p in zip(tracker.shadow, params):
            s *= d
            s += (1.0 - d) * p
    return tracker


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _arrays_to_lists(arrays: list[np.ndarray]) -> list:
    return [a.tolist() for a in arrays]


def _lists_to_arrays(lists: list) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.float64) for a in lists]


def save_checkpoint(path: str, role: str, arch: dict,
                    params: list[np.ndarray],
                    optimizer: OptimizerState | None = None,
                    ema: list[np.ndarray] | None = None,
                    rng_states: dict | None = None) -> None:
    """Write a self-describing JSON checkpoint.

    Floats are serialized via repr so 64-bit values round-trip exactly.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "role": role,
        "arch": arch,
        "params": _arrays_to_lists(params),
    }
    if optimizer is not None:
        payload["optimizer"] = {
            "lr": optimizer.lr, "beta1": optimizer.beta1,
            "beta2": optimizer.beta2, "eps": optimizer.eps,
            "step": optimizer.step,
            "m": _arrays_to_lists(optimizer.m),
            "v": _arrays_to_lists(optimizer.v),
        }
    if ema is not None:
        payload["ema"] = _arrays_to_lists(ema)
    if rng_states is not None:
        payload["rng"] = rng_states
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint; params/ema come back as float64 arrays."""
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint {path} has format_version {version}, "
            f"expected {CHECKPOINT_VERSION}")
    payload["params"] = _lists_to_arrays(payload["params"])
    if "ema" in payload:
        payload["ema"] = _lists_to_arrays(payload["ema"])
    if "optimizer" in payload:
        opt = payload["optimizer"]
        opt["m"] = _lists_to_arrays(opt["m"])
        opt["v"] = _lists_to_arrays(opt["v"])
    return payload
