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
