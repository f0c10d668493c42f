"""Minimal numerical substrate: seeded RNG, feed-forward nets with analytic
gradients, an adaptive-moment optimizer, EMA tracking, and checkpoint I/O.

Networks are plain MLPs (tanh hidden layers, identity output) on one input
matrix. The noise model and the policies subclass FeedForwardNet and call
its forward/forward_cached/backward on inputs they build; the noise model
feeds the diffusion step as one-hot columns. Gradients are computed by
hand-rolled backprop, so the whole stack is deterministic given seeds. A
network keeps its parameters in one vector ``flat``, which its per-tensor
views (at the ``tensor_layout`` of ``shapes(widths)``) tile; gradients, Adam
moments, EMA shadows and a checkpoint's ``params`` are vectors laid out like
it, which keeps the optimizer and EMA tracker agnostic of what they belong
to; all of them share ``flat``'s dtype.

The dtype of ``flat`` is part of a network's architecture: float32 unless
a caller names float64, since float32 matmuls run about twice as fast at
the default widths and move the final returns far less than a change of
training seed does (CHANGES.md). A network casts its inputs and upstream
gradients to that dtype once, at the boundary, so no matmul mixes dtypes;
everything else (RNG draws, losses, schedules, environments) is float64.
Only a network given an rng draws weights; ``from_arch`` gives none, so a
rebuild starts from zeros and takes its vector from ``set_params``.

Outside the matmuls the kernels work in place: a batch layer's matmul
result is biased and squashed where it lies (a single input's layer is one
product into a per-thread vector, FeedForwardNet), tanh' takes one
temporary, and the Adam update runs through two scratch vectors. Each
keeps the order of operations of the plain expressions, so the results are
the same bits.

Training is single-writer: parameter mutation happens on one logical thread.
An EMA shadow is a network of its live net's type and arch whose ``flat``
only ema_update writes; everything else reads it in place. A checkpoint is a
full copy of a network's ``flat``.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointVersionError, InvalidInputError, TrainingError

CHECKPOINT_VERSION = 3
# the parameter dtypes an arch() may name
DTYPES = ("float32", "float64")
# Adam's moment decays and the floor of its denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
    """PCG64 generator that remembers its seed.

    Identical seed + identical call sequence gives an identical stream.
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


# ---------------------------------------------------------------------------
# Feed-forward networks
# ---------------------------------------------------------------------------

def tensor_layout(shapes) -> list[tuple[slice, tuple[int, ...]]]:
    """(slice, shape) of each tensor of a vector that ``shapes`` tile in
    order, from its start."""
    layout, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        layout.append((slice(start, stop), tuple(shape)))
        start = stop
    return layout


def aligned_zeros(size: int, dtype) -> np.ndarray:
    """A zeroed vector of ``size`` elements of ``dtype`` whose data starts on
    a 64-byte cache-line boundary.

    malloc aligns to 16 bytes only, so where a network's parameters start
    within a cache line would depend on the heap state that earlier code
    left. That moved a single-state act by up to 55%: 13.2 us at offset 0,
    15.3 at 16, 20.4 at 32 and 15.7 at 48 bytes (float32 default widths,
    2 cores, OpenBLAS 0.3.31).
    """
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.zeros(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype)


def keep_temporaries_on_heap() -> None:
    """Allocate and free one 16 MiB block. Under glibc that lifts the
    dynamic mmap and trim thresholds above it, so a loop's temporaries of up
    to 16 MiB stay in the heap between iterations instead of being trimmed
    and faulted in again at each; untouched, the block adds no resident
    memory. Blocks of 4 and 8 MiB left the faults in SMILE runs."""
    np.empty(2 ** 21)


def arch_dtype(arch: dict) -> np.dtype:
    """The parameter dtype an ``arch()`` names; a missing one is an error."""
    name = arch.get("dtype")
    if not isinstance(name, str) or name not in DTYPES:
        raise InvalidInputError(
            f"parameter dtype {name!r} is not one of {DTYPES}")
    return np.dtype(name)


class FeedForwardNet:
    """MLP with tanh hidden activations and an identity output layer.

    ``widths`` lists layer sizes input-first: a default generator on
    pointmass2d is ``[4, 128, 128, 128, 2]``, and its noise model
    ``[17, 256, 256, 256, 2]``.
    Weights are Glorot-normal draws from ``rng`` but the output layer's,
    which start at zero: the zero function is a sensible prior for noise
    predictors and centered-action policies, and fits faster early. With no
    rng every weight is zero. ``forward`` takes a vector or a (batch, in)
    matrix, the others a batch, all in ``dtype``. The parameters [W0, b0,
    W1, b1, ...] tile the fresh vector ``flat`` in that order.

    Each bias directly follows its weight in ``flat``, so a layer's [W; b]
    is one (n_in + 1, n_out) view of it. A vector input, one state, costs
    one product per layer on that view: [h, 1] @ [W; b], with the tanh
    written straight into the head of the next layer's [h, 1], and no
    separate bias add. Against ``h @ W`` then ``+= b`` that took a float32
    3x128 act from about 9.0 to 6.0 us (one BLAS thread, 2 cores, OpenBLAS
    0.3.31) with the same float32 bits; float64 outputs can differ in the
    last bit. Batches keep the two calls, since folding the bias into a
    batch's GEMM was no faster. The [h, 1] vectors are the calling
    thread's own, built on its first vector call, so threads that share a
    network never share them; each starts on a cache-line boundary
    (aligned_zeros).
    """

    def __init__(self, widths: list[int], rng: SeededRng | None,
                 dtype=np.float32):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise InvalidInputError(f"bad layer widths {widths}")
        self.widths = list(widths)
        self.flat = aligned_zeros(self.size(widths), dtype)
        # where each tensor lies in flat, found once here and not on every
        # backward, which slices each fresh gradient vector by it
        self._layout = tensor_layout(self.shapes(widths))
        views = self._tensor_views(self.flat)
        self.weights = views[0::2]
        self.biases = views[1::2]
        # each layer's [W; b]: b directly follows W, so these tile flat too
        self._stacked = [self.flat[at].reshape(shape) for at, shape in
                         tensor_layout((n_in + 1, n_out) for n_in, n_out
                                       in zip(widths[:-1], widths[1:]))]
        # the [h, 1] vectors of the vector path, built per thread
        self._local = threading.local()
        if rng is None:
            return
        for w in self.weights[:-1]:
            n_in, n_out = w.shape
            w[...] = np.sqrt(2.0 / (n_in + n_out)) * rng.standard_normal(
                w.shape)

    @staticmethod
    def size(widths: list[int]) -> int:
        return sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:]))

    @staticmethod
    def shapes(widths: list[int]) -> list[tuple[int, ...]]:
        """The per-tensor shapes [W0, b0, W1, b1, ...] that tile ``flat``."""
        return [shape for n_in, n_out in zip(widths[:-1], widths[1:])
                for shape in ((n_in, n_out), (n_out,))]

    def _tensor_views(self, vector: np.ndarray) -> list[np.ndarray]:
        """The per-tensor views of ``vector``, laid out like ``flat``."""
        return [vector[at].reshape(shape) for at, shape in self._layout]

    def set_params(self, flat: np.ndarray) -> None:
        """Copy ``flat``, a parameter vector laid out like ``self.flat``,
        into it."""
        if np.shape(flat) != self.flat.shape:
            raise InvalidInputError(f"parameter vector shape {np.shape(flat)} "
                                    f"!= {self.flat.shape}")
        self.flat[...] = flat

    def _input(self, x: np.ndarray) -> np.ndarray:
        """``x`` in the net's dtype, checked against the first layer's
        width."""
        x = np.asarray(x, dtype=self.flat.dtype)
        if x.shape[-1] != self.widths[0]:
            raise InvalidInputError(f"input dim {x.shape[-1]} does not fit "
                                    f"first layer width {self.widths[0]}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output for a vector or a (batch, in) matrix ``x``."""
        if np.ndim(x) == 1:
            return self._forward_vector(x)
        # one array per layer: the matmul's result, biased and squashed in
        # place
        h = self._input(x) @ self.weights[0]
        h += self.biases[0]
        for w, b in zip(self.weights[1:], self.biases[1:]):
            np.tanh(h, out=h)
            h = h @ w
            h += b
        return h

    def _forward_vector(self, x) -> np.ndarray:
        """forward of one input vector: one product [h, 1] @ [W; b] per
        layer, each layer's tanh written into the head of the next [h, 1]."""
        try:
            head, layers, last = self._local.vectors
        except AttributeError:
            head, layers, last = self._local.vectors = self._thread_vectors()
        if len(x) != self.widths[0]:
            raise InvalidInputError(f"input dim {len(x)} does not fit "
                                    f"first layer width {self.widths[0]}")
        head[...] = x
        for v, wb, z in layers:
            np.dot(v, wb, out=z)
            np.tanh(z, out=z)
        return np.dot(last, self._stacked[-1])

    def _thread_vectors(self):
        """The calling thread's [h, 1] vector for each layer's input, each on
        a cache-line boundary: the first one's head, (vector, [W; b], head
        of the next vector) for every layer but the last, and the last
        vector."""
        vectors = []
        for n in self.widths[:-1]:
            v = aligned_zeros(n + 1, self.flat.dtype)
            v[-1] = 1
            vectors.append(v)
        layers = [(v, wb, nxt[:-1])
                  for v, wb, nxt in zip(vectors, self._stacked, vectors[1:])]
        return vectors[0][:-1], layers, vectors[-1]

    def forward_cached(self, x: np.ndarray):
        """Forward pass of a (batch, in) matrix ``x``, keeping the input and
        the post-activation of every layer for backprop."""
        x = self._input(x)
        acts = [x]
        h = x @ self.weights[0]
        h += self.biases[0]
        for w, b in zip(self.weights[1:], self.biases[1:]):
            np.tanh(h, out=h)
            acts.append(h)
            h = h @ w
            h += b
        acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray],
                 upstream: np.ndarray) -> np.ndarray:
        """Backprop of (upstream . output) through the cached forward pass.

        Returns the parameter gradients as one vector laid out like
        ``flat``. ``upstream`` must match the cached batch shape; it is cast
        to the network's dtype.
        """
        delta = np.asarray(upstream, dtype=self.flat.dtype)
        if delta.shape != acts[-1].shape:
            raise InvalidInputError(
                f"upstream shape {delta.shape} != output shape {acts[-1].shape}")
        grads = np.empty_like(self.flat)
        views = self._tensor_views(grads)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=views[2 * i])
            delta.sum(axis=0, out=views[2 * i + 1])
            if i > 0:
                delta = delta @ self.weights[i].T
                # tanh'(z) = 1 - a**2 through the cached post-activation, in
                # one temporary; acts stay untouched
                d = np.square(acts[i])
                np.subtract(1.0, d, out=d)
                delta *= d
        return grads


def loss_batch(name: str, states, actions):
    """A loss's batch as two float64 matrices of equal, non-zero length.
    Anything else, a single state or action too, raises InvalidInputError
    naming the loss ``name``."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if states.ndim != 2 or actions.ndim != 2:
        raise InvalidInputError(
            f"{name} needs 2-D batches, got states {states.shape} and "
            f"actions {actions.shape}")
    if len(states) == 0:
        raise InvalidInputError(f"{name} needs a non-empty batch")
    if len(actions) != len(states):
        raise InvalidInputError(
            f"{name}: {len(states)} states but {len(actions)} actions")
    return states, actions


# ---------------------------------------------------------------------------
# Adaptive-moment optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam accumulator state for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    step: int = 0

    @staticmethod
    def for_params(flat: np.ndarray, lr: float = 1e-3) -> "OptimizerState":
        return OptimizerState(m=np.zeros_like(flat), v=np.zeros_like(flat),
                              lr=lr)


def optimizer_step(state: OptimizerState, flat: np.ndarray,
                   grads: np.ndarray) -> np.ndarray:
    """One bias-corrected adaptive-moment update of ``flat``, in place."""
    if not grads.shape == state.m.shape == flat.shape:
        raise InvalidInputError(f"gradient {grads.shape}, moment "
                                f"{state.m.shape}, parameter {flat.shape}")
    if not np.all(np.isfinite(grads)):
        index = int(np.argmin(np.isfinite(grads)))
        raise TrainingError(f"non-finite gradient at parameter index {index}")
    state.step += 1
    b1c = 1.0 - BETA1 ** state.step
    b2c = 1.0 - BETA2 ** state.step
    m, v = state.m, state.v
    # flat -= lr * (m / b1c) / (sqrt(v / b2c) + eps), in the same order of
    # operations but through two scratch vectors a and b
    a = np.multiply(grads, 1.0 - BETA1)
    m *= BETA1
    m += a
    np.multiply(grads, 1.0 - BETA2, out=a)
    a *= grads
    v *= BETA2
    v += a
    np.divide(m, b1c, out=a)
    a *= state.lr
    b = np.divide(v, b2c)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    flat -= a
    return flat


# ---------------------------------------------------------------------------
# Exponential moving average
# ---------------------------------------------------------------------------

@dataclass
class EmaTracker:
    """Shadow copy of a parameter vector, EMA-updated after a warmup period.

    ``warmup`` counts update() calls: until then the shadow is a direct copy
    of the live parameters (callers that update every k training iterations
    should divide their intended warmup-in-iterations by k).
    """

    shadow: np.ndarray
    decay: float = 0.995
    warmup: int = 100
    updates: int = 0


def ema_update(tracker: EmaTracker, flat: np.ndarray) -> EmaTracker:
    if tracker.shadow.shape != flat.shape:
        raise InvalidInputError(
            f"shadow shape {tracker.shadow.shape} != {flat.shape}")
    tracker.updates += 1
    if tracker.updates <= tracker.warmup:
        tracker.shadow[...] = flat
    else:
        d = tracker.decay
        tracker.shadow *= d
        tracker.shadow += (1.0 - d) * flat
    return tracker


# ---------------------------------------------------------------------------
# Atomic file writes
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """A file, opened in ``mode``, whose contents replace ``path`` when the
    block exits cleanly; if the block raises, ``path`` keeps its bytes.

    The file is a temporary one beside ``path``, named by the process id and
    a random token, so processes writing one path at once never share it;
    ``os.replace`` then swaps it in. It is created like ``open`` creates a
    file, so the umask sets its permissions.
    """
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _checkpoint_crc(payload: dict) -> int:
    """CRC-32 of the canonical JSON of every key of ``payload`` but
    ``crc32``."""
    body = {k: v for k, v in payload.items() if k != "crc32"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def save_checkpoint(path: str, net) -> None:
    """Write a self-describing JSON checkpoint of a network: its class
    ``role``, its ``arch()`` and its ``flat``, the one vector a load puts in.

    ``params`` holds it as base64 of its raw little-endian bytes in the
    arch's dtype, so it round-trips bit-exactly, and ``crc32`` guards every
    other key. The text is encoded in one ``json.dumps`` call and written at
    once, through ``atomic_write``.
    """
    le = net.flat.dtype.newbyteorder("<")
    raw = np.asarray(net.flat, dtype=le).tobytes()
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "role": net.role,
        "arch": net.arch(),
        "params": base64.b64encode(raw).decode("ascii"),
    }
    payload["crc32"] = _checkpoint_crc(payload)
    text = json.dumps(payload)
    with atomic_write(path) as fh:
        fh.write(text)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint; ``params`` comes back as one read-only vector of
    the dtype its ``arch`` names (``arch_dtype``), laid out like the
    ``flat`` of the network ``arch["widths"]`` describes.

    A format_version other than ``CHECKPOINT_VERSION`` raises
    CheckpointVersionError. An unreadable or non-UTF-8 file, malformed JSON
    (named as path:line), a missing ``arch``, a missing or unknown dtype or
    bad ``widths`` in it, a missing or non-base64 ``params``, a byte count
    that does not fit ``widths``, a CRC mismatch and a non-finite value each
    raise InvalidInputError. Every message names the path.
    """
    try:
        with open(path, "rb") as fh:
            payload = json.loads(fh.read())
    except OSError as exc:
        raise InvalidInputError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}:{exc.lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInputError(f"checkpoint {path} is not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint {path} has format_version {version}, "
            f"expected {CHECKPOINT_VERSION}")
    arch = payload.get("arch")
    if not isinstance(arch, dict):
        raise InvalidInputError(f"checkpoint {path}: missing or bad 'arch'")
    try:
        dtype = arch_dtype(arch).newbyteorder("<")
    except InvalidInputError as exc:
        raise InvalidInputError(f"checkpoint {path}: {exc}") from exc
    widths = arch.get("widths")
    if not (isinstance(widths, list) and len(widths) >= 2 and all(
            type(n) is int and n > 0 for n in widths)):
        raise InvalidInputError(
            f"checkpoint {path}: missing or bad arch 'widths'")
    size = FeedForwardNet.size(widths)
    try:
        raw = base64.b64decode(payload["params"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"checkpoint {path}: missing or bad 'params': {exc!r}") from exc
    if len(raw) != size * dtype.itemsize:
        raise InvalidInputError(
            f"checkpoint {path}: 'params' holds {len(raw)} bytes, its "
            f"widths need {size} x {dtype.itemsize}")
    if payload.get("crc32") != _checkpoint_crc(payload):
        raise InvalidInputError(f"checkpoint {path}: CRC mismatch")
    vec = np.frombuffer(raw, dtype=dtype)
    if not np.isfinite(vec).all():
        raise InvalidInputError(f"checkpoint {path}: non-finite 'params'")
    payload["params"] = vec
    return payload
