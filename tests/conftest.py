import json
import tracemalloc
import zlib

import numpy as np
import pytest

from smile.diffusion import build_schedule
from smile.mathcore import FeedForwardNet, SeededRng


@pytest.fixture
def rng():
    return SeededRng(1234)


@pytest.fixture
def sched():
    return build_schedule(10, 0.05, 0.6)


def small_net(widths, seed=0):
    return FeedForwardNet(widths, SeededRng(seed))


def finite_difference_grads(net, x, upstream, h=1e-5):
    """Central-difference gradient of (upstream . net(x)), one entry per
    element of ``net.flat``."""
    grads = np.zeros_like(net.flat)
    for i in range(net.flat.size):
        orig = net.flat[i]
        net.flat[i] = orig + h
        up = float(np.sum(upstream * net.forward(x)))
        net.flat[i] = orig - h
        down = float(np.sum(upstream * net.forward(x)))
        net.flat[i] = orig
        grads[i] = (up - down) / (2 * h)
    return grads


def relative_error(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def float32_rounding_bound(stage_lengths) -> float:
    """First-order worst-case relative error of a float32 computation made
    of rounding stages in sequence: the sum over stages of Higham's
    gamma_n = n u / (1 - n u), with u = 2**-24 the float32 unit roundoff and
    n the number of roundings a stage chains (a dot product of n terms
    chains n; a cast or elementwise operation chains 1)."""
    u = np.finfo(np.float32).eps / 2
    return sum(n * u / (1 - n * u) for n in stage_lengths)


def forward_stage_lengths(widths) -> list[int]:
    """The float32 rounding stages an output of ``FeedForwardNet(widths)``
    passes through: the input cast (1), then per layer the matmul (n_in
    terms), bias add and tanh (n_in + 2)."""
    return [1, *(n_in + 2 for n_in in widths[:-1])]


def backward_stage_lengths(widths, batch: int) -> list[int]:
    """The float32 rounding stages a first-layer weight gradient of
    ``FeedForwardNet(widths)`` passes through: the forward stages; per
    hidden layer on the way back the delta matmul (n_out terms) and the
    three roundings of delta * (1 - a**2) (n_out + 3); and the sum over the
    batch that forms the gradient (batch)."""
    backward = [n_out + 3 for n_out in widths[2:]]
    return [*forward_stage_lengths(widths), *backward, batch]


def reference_forward(net, x):
    """The forward pass as first written, one fresh array per operation:
    h = h @ w + b, then h = tanh(h) on hidden layers. Returns (output,
    post-activations input-first); a vector ``x`` stays a vector."""
    h = np.asarray(x, dtype=net.flat.dtype)
    acts = [h]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def reference_backward(net, acts, upstream):
    """Backprop as first written: tanh' as delta * (1.0 - a ** 2) in fresh
    arrays. Returns the gradient vector laid out like ``net.flat``."""
    delta = np.atleast_2d(np.asarray(upstream, dtype=net.flat.dtype))
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        grads[:0] = [(acts[i].T @ delta).reshape(-1), delta.sum(axis=0)]
        if i > 0:
            delta = delta @ net.weights[i].T
            delta = delta * (1.0 - acts[i] ** 2)
    return np.concatenate(grads)


def reference_optimizer_step(state, flat, grads):
    """The Adam update as first written, one temporary per operation."""
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grads * grads
    flat -= state.lr * (state.m / b1c) / (np.sqrt(state.v / b2c) + state.eps)
    return flat


def reference_q_curve_matrix(model, states, targets, refs, sched):
    """Q scoring as first written: one ``model.predict`` of n rows per step
    t' in 1..T. Returns the (T+1, n) Q matrix."""
    out = np.empty((sched.T + 1, len(states)))
    out[0] = -((targets - refs) ** 2).sum(axis=1)
    for t in range(1, sched.T + 1):
        denoised = refs - sched.sigmas[t] * model.predict(states, refs, t)
        out[t] = -((targets - denoised) ** 2).sum(axis=1)
    return out


def seal_checkpoint(payload: dict) -> dict:
    """Set a checkpoint payload's ``crc32`` to the CRC-32 of the canonical
    JSON (sorted keys) of its other keys, as the format defines it."""
    body = {k: v for k, v in payload.items() if k != "crc32"}
    payload["crc32"] = zlib.crc32(json.dumps(body, sort_keys=True).encode())
    return payload


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, over what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
