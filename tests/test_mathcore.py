import json
import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smile.errors import (CheckpointVersionError, InvalidInputError,
                          TrainingError)
from smile.diffusion import NoiseModel
from smile.mathcore import (EmaTracker, FeedForwardNet, OptimizerState,
                            SeededRng, atomic_write, derive_seed, ema_update,
                            load_checkpoint, optimizer_step, save_checkpoint,
                            tensor_layout)
from smile.policy import GeneratorPolicy

from conftest import (backward_stage_lengths, finite_difference_grads,
                      float32_rounding_bound, forward_stage_lengths,
                      reference_backward, reference_forward,
                      reference_optimizer_step, relative_error,
                      seal_checkpoint, small_net)


def trained_looking_nets():
    """A default float32 3x128 generator and 3x256 denoiser on pointmass2d,
    with a drawn output layer and biases, as training leaves them, where a
    drawn net has zeros."""
    gen = GeneratorPolicy(4, 2, SeededRng(5))
    den = NoiseModel(4, 2, 10, SeededRng(6))
    for i, net in enumerate((gen, den)):
        rng = SeededRng(7 + i)
        for p in (net.weights[-1], *net.biases):
            p[...] = 0.1 * rng.standard_normal(p.shape)
    return gen, den


class TestNetForward:
    def test_zero_weights_output_bias(self):
        net = small_net([3, 4, 2])
        for w in net.weights:
            w[...] = 0.0
        net.biases[-1][...] = [0.7, -0.3]
        out = net.forward(np.array([1.0, -2.0, 0.5]))
        assert np.allclose(out, [0.7, -0.3])

    def test_single_identity_layer(self):
        net = small_net([3, 3])
        net.weights[0][...] = np.eye(3)
        net.biases[0][...] = 0.0
        x = np.array([0.3, -1.1, 2.0])
        assert np.allclose(net.forward(x), x)

    def test_hand_evaluated_221(self):
        # float64, so the 1e-14 bound bites: approx takes a float32
        # output's difference in float32, where its 2e-8 error rounds to 0
        net = small_net([2, 2, 1], dtype=np.float64)
        net.weights[0][...] = [[0.5, -1.0], [0.25, 0.75]]
        net.biases[0][...] = [0.1, -0.2]
        net.weights[1][...] = [[2.0], [-0.5]]
        net.biases[1][...] = [0.3]
        # hand evaluation of the two layers, independent of the net code
        h1 = math.tanh(1.0 * 0.5 + 0.0 * 0.25 + 0.1)
        h2 = math.tanh(1.0 * -1.0 + 0.0 * 0.75 - 0.2)
        expected = 2.0 * h1 - 0.5 * h2 + 0.3
        out = net.forward(np.array([1.0, 0.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(expected, abs=1e-14)

    def test_a_drawn_net_starts_at_the_zero_function(self):
        # every layer but the output one is drawn; the output layer's
        # weights start at zero, and so, with zero biases, does the output
        net = FeedForwardNet([3, 5, 4, 2], SeededRng(6))
        assert not np.any(net.weights[-1])
        assert all(np.all(w) for w in net.weights[:-1])
        assert not np.any(net.forward(SeededRng(7).standard_normal((4, 3))))

    def test_dim_mismatch_raises(self):
        net = small_net([3, 2])
        with pytest.raises(InvalidInputError):
            net.forward(np.zeros(4))

    def test_batch_matches_single(self):
        net = small_net([3, 5, 2], seed=3)
        xs = SeededRng(4).standard_normal((6, 3))
        batch = net.forward(xs)
        for i in range(6):
            assert np.allclose(batch[i], net.forward(xs[i]))
        # the vector path, one product [h, 1] @ [W; b] per layer, against
        # the batch path at the default float32 generator and denoiser: a
        # gemv against a gemm, each within float32 rounding of the other
        gen, den = trained_looking_nets()
        xs = SeededRng(8).standard_normal((20, 4))
        a_t = SeededRng(9).standard_normal((20, 2))
        t = SeededRng(10).integers(0, den.T + 1, size=20)
        for net, batch, singles in (
                (gen, gen.act(xs), [gen.act(x) for x in xs]),
                (den, den.predict(xs, a_t, t),
                 [den.predict(x, a, int(k)) for x, a, k in zip(xs, a_t, t)])):
            assert net.flat.dtype == np.float32
            bound = 2 * float32_rounding_bound(
                forward_stage_lengths(net.widths))
            for want, got in zip(batch, singles):
                assert got.shape == want.shape == (2,)
                assert (np.linalg.norm((got - want).astype(np.float64))
                        <= bound * np.linalg.norm(want.astype(np.float64)))

    def test_vector_path_is_per_thread(self):
        # 4 threads call one network's vector path at once, each on its own
        # states: every output has the bytes of the same call made alone
        gen, den = trained_looking_nets()
        rng = SeededRng(11)
        calls = [[(gen.act, (x,)) for x in rng.standard_normal((50, 4))]
                 + [(den.predict, (x, a, int(k))) for x, a, k in zip(
                     rng.standard_normal((50, 4)),
                     rng.standard_normal((50, 2)),
                     rng.integers(0, den.T + 1, size=50))]
                 for _ in range(4)]
        alone = [[fn(*args).tobytes() for fn, args in thread_calls]
                 for thread_calls in calls]
        start = threading.Barrier(4)
        got = [None] * 4

        def work(i):
            start.wait()
            # 20 rounds of the thread's 100 calls, against the others'
            got[i] = [[fn(*args).tobytes() for fn, args in calls[i]]
                      for _ in range(20)]

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # threads switch inside every call
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(4):
            assert got[i] == 20 * [alone[i]]

    def test_deterministic(self):
        net = small_net([3, 5, 2], seed=5)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(net.forward(x), net.forward(x))


class TestNetGradients:
    @staticmethod
    def net_gradients(net, x, upstream):
        """Gradient of (upstream . net(x)) w.r.t. every parameter."""
        _, acts = net.forward_cached(x)
        return net.backward(acts, upstream)

    def test_zero_upstream_zero_grads(self):
        net = small_net([3, 4, 2])
        grads = self.net_gradients(net, np.ones((1, 3)), np.zeros((1, 2)))
        assert grads.shape == net.flat.shape
        assert np.all(grads == 0)

    def test_linear_layer_outer_product(self):
        net = small_net([3, 2])
        x = np.array([[1.0, -2.0, 0.5]])
        up = np.array([[0.3, -0.7]])
        grads = self.net_gradients(net, x, up)
        w_grad, b_grad = net._tensor_views(grads)
        assert np.allclose(w_grad, np.outer(x, up))
        assert np.allclose(b_grad, up)

    # the finite-difference checks name float64: a central difference at
    # h = 1e-5 on float32 outputs is mostly rounding
    @pytest.mark.parametrize("widths", [[3, 8, 2], [2, 5, 5, 1], [4, 6, 3]])
    def test_finite_difference_agreement(self, widths):
        net = small_net(widths, seed=sum(widths), dtype=np.float64)
        rng = SeededRng(17)
        x = rng.standard_normal((1, widths[0]))
        up = rng.standard_normal((1, widths[-1]))
        analytic = self.net_gradients(net, x, up)
        numeric = finite_difference_grads(net, x, up)
        assert relative_error(analytic, numeric).max() < 1e-4

    def test_input_gradient_finite_difference(self):
        net = small_net([3, 6, 2], seed=9, dtype=np.float64)
        rng = SeededRng(21)
        x = rng.standard_normal((1, 3))
        up = rng.standard_normal((1, 2))
        # for a single row the first-layer bias gradient is the first
        # layer's pre-activation gradient, so the input gradient is it
        # through W0^T
        b0_grad = net._tensor_views(self.net_gradients(net, x, up))[1]
        input_grad = b0_grad @ net.weights[0].T
        x, up = x[0], up[0]
        h = 1e-5
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (np.sum(up * net.forward(xp))
                  - np.sum(up * net.forward(xm))) / (2 * h)
            assert relative_error(input_grad[i], fd) < 1e-4

    def test_upstream_shape_mismatch(self):
        net = small_net([3, 2])
        with pytest.raises(InvalidInputError):
            self.net_gradients(net, np.ones((1, 3)), np.zeros((1, 4)))

    def test_float32_matches_float64(self):
        # the same weights, batch and upstream (all float32-representable)
        # through a float32 and a float64 net: the float32 gradients are
        # float32 and within the first-order worst-case rounding bound of
        # their stages (measured: 3 u, against a bound of 181 u)
        widths, batch = [5, 32, 32, 3], 64
        net32 = small_net(widths, seed=1, dtype=np.float32)
        net64 = small_net(widths, seed=1, dtype=np.float64)
        net64.flat[...] = net32.flat
        rng = SeededRng(2)
        x = rng.standard_normal((batch, 5)).astype(np.float32)
        up = rng.standard_normal((batch, 3)).astype(np.float32)
        g32 = self.net_gradients(net32, x.astype(np.float64),
                                 up.astype(np.float64))
        g64 = self.net_gradients(net64, x, up)
        assert g32.dtype == np.float32
        bound = float32_rounding_bound(backward_stage_lengths(widths, batch))
        assert np.linalg.norm(g32 - g64) / np.linalg.norm(g64) <= bound


class TestOptimizer:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, 2.0, 3.0])
        state = OptimizerState.for_params(params)
        before = params.copy()
        optimizer_step(state, params, np.zeros(3))
        assert state.step == 1
        assert np.array_equal(params, before)

    def test_single_step_quadratic_hand_value(self):
        # loss (x - 3)^2 at x0 = 0: gradient -6; by hand the bias-corrected
        # update is lr * 6 / (sqrt(36) + eps)
        x = np.array([0.0])
        state = OptimizerState.for_params(x, lr=1e-3)
        optimizer_step(state, x, np.array([-6.0]))
        expected = 1e-3 * 6.0 / (6.0 + 1e-8)
        assert x[0] == pytest.approx(expected, rel=1e-12)

    def test_quadratic_descent_100_steps(self):
        x = np.array([0.0])
        state = OptimizerState.for_params(x, lr=1e-3)
        losses = []
        for _ in range(100):
            losses.append((x[0] - 3.0) ** 2)
            optimizer_step(state, x, np.array([2.0 * (x[0] - 3.0)]))
        losses.append((x[0] - 3.0) ** 2)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert state.step == 100

    def test_non_finite_gradient_names_index(self):
        params = np.zeros(5)
        state = OptimizerState.for_params(params)
        with pytest.raises(TrainingError, match="index 3"):
            optimizer_step(state, params,
                           np.array([0.0, 0.0, 0.0, np.nan, np.inf]))
        assert state.step == 0 and np.all(params == 0.0)

    def test_step_count_strictly_increases(self):
        x = np.array([0.0])
        state = OptimizerState.for_params(x)
        seen = []
        for _ in range(5):
            optimizer_step(state, x, np.array([0.1]))
            seen.append(state.step)
        assert seen == [1, 2, 3, 4, 5]

    def test_gradient_shape_mismatch_raises(self):
        params = np.zeros(3)
        state = OptimizerState.for_params(params)
        with pytest.raises(InvalidInputError):
            optimizer_step(state, params, np.zeros(4))

    def test_flat_step_matches_per_tensor_loop(self):
        # the update is elementwise, so one step on the whole vector equals
        # the same step applied to every tensor on its own, bit for bit
        net = FeedForwardNet([3, 5, 2], SeededRng(2))
        rng = SeededRng(3)
        state = OptimizerState.for_params(net.flat)
        layout = tensor_layout(net.shapes(net.widths))
        tensors = [net.flat[at].copy() for at, _ in layout]
        states = [OptimizerState.for_params(t) for t in tensors]
        for _ in range(3):
            grads = rng.standard_normal(net.flat.shape)
            optimizer_step(state, net.flat, grads)
            pieces = [grads[at] for at, _ in layout]
            for t, tensor_state, g in zip(tensors, states, pieces):
                optimizer_step(tensor_state, t, g)
        assert np.array_equal(np.concatenate(tensors), net.flat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestKernelsMatchReference:
    """The in-place kernels compute the same IEEE operations in the same
    order as the reference expressions in conftest, so their bytes agree."""

    widths = [5, 16, 16, 3]

    def make(self, dtype, batch=7):
        net = small_net(self.widths, seed=31, dtype=dtype)
        rng = SeededRng(32)
        return (net, rng.standard_normal((batch, self.widths[0])),
                rng.standard_normal((batch, self.widths[-1])))

    def test_forward(self, dtype):
        net, x, _ = self.make(dtype)
        for rows in (x, x[0]):
            want, _ = reference_forward(net, rows)
            assert net.forward(rows).tobytes() == want.tobytes()

    def test_forward_cached(self, dtype):
        net, x, _ = self.make(dtype)
        out, acts = net.forward_cached(x)
        want, want_acts = reference_forward(net, x)
        assert out.tobytes() == want.tobytes()
        assert len(acts) == len(want_acts)
        for got, ref in zip(acts, want_acts):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_backward(self, dtype):
        net, x, up = self.make(dtype)
        _, acts = net.forward_cached(x)
        grads = net.backward(acts, up)
        assert grads.tobytes() == reference_backward(net, acts, up).tobytes()

    def test_backward_leaves_cache_unchanged(self, dtype):
        net, x, up = self.make(dtype)
        _, acts = net.forward_cached(x)
        before = [a.tobytes() for a in acts]
        net.backward(acts, up)
        assert [a.tobytes() for a in acts] == before

    def test_optimizer_step(self, dtype):
        net, _, _ = self.make(dtype)
        rng = SeededRng(33)
        flat, ref_flat = net.flat.copy(), net.flat.copy()
        state = OptimizerState.for_params(flat, lr=3e-3)
        ref_state = OptimizerState.for_params(ref_flat, lr=3e-3)
        for _ in range(4):
            grads = rng.standard_normal(flat.shape).astype(dtype)
            optimizer_step(state, flat, grads)
            reference_optimizer_step(ref_state, ref_flat, grads)
            for got, want in ((flat, ref_flat), (state.m, ref_state.m),
                              (state.v, ref_state.v)):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes()


class TestEma:
    def test_decay_one_keeps_shadow(self):
        tracker = EmaTracker(shadow=np.array([1.0]), decay=1.0, warmup=0)
        ema_update(tracker, np.array([5.0]))
        assert tracker.shadow[0] == 1.0

    def test_decay_zero_copies_params(self):
        tracker = EmaTracker(shadow=np.array([1.0]), decay=0.0, warmup=0)
        ema_update(tracker, np.array([5.0]))
        assert tracker.shadow[0] == 5.0

    def test_single_update_after_warmup(self):
        tracker = EmaTracker(shadow=np.array([1.0]), decay=0.995, warmup=0)
        ema_update(tracker, np.array([0.0]))
        assert tracker.shadow[0] == pytest.approx(0.995, abs=1e-15)

    def test_warmup_copies_directly(self):
        tracker = EmaTracker(shadow=np.array([0.0]), decay=0.995, warmup=2)
        ema_update(tracker, np.array([7.0]))
        assert tracker.shadow[0] == 7.0
        ema_update(tracker, np.array([9.0]))
        assert tracker.shadow[0] == 9.0
        ema_update(tracker, np.array([0.0]))  # past warmup: EMA now
        assert tracker.shadow[0] == pytest.approx(9.0 * 0.995, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(decay=st.floats(0.0, 1.0), k=st.integers(1, 40),
           shadow0=st.floats(-5, 5), p=st.floats(-5, 5))
    def test_contraction_property(self, decay, k, shadow0, p):
        tracker = EmaTracker(shadow=np.array([shadow0]), decay=decay,
                             warmup=0)
        for _ in range(k):
            ema_update(tracker, np.array([p]))
        gap0 = abs(shadow0 - p)
        assert abs(tracker.shadow[0] - p) <= decay ** k * gap0 + 1e-9

    def test_shape_mismatch_raises(self):
        tracker = EmaTracker(shadow=np.zeros(2), decay=0.9, warmup=0)
        with pytest.raises(InvalidInputError):
            ema_update(tracker, np.zeros(3))


class TestRng:
    def test_same_seed_identical(self):
        a = SeededRng(42).standard_normal(16)
        b = SeededRng(42).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = SeededRng(1).standard_normal(16)
        b = SeededRng(2).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_monte_carlo_moments(self):
        draws = SeededRng(7).standard_normal((10 ** 6, 2))
        assert np.abs(draws.mean(axis=0)).max() < 0.01
        assert np.abs(draws.var(axis=0) - 1.0).max() < 0.02

    def test_derive_seed_stable_and_tag_sensitive(self):
        assert derive_seed(7, "data") == derive_seed(7, "data")
        assert derive_seed(7, "data") != derive_seed(7, "train")
        assert derive_seed(7, "data") != derive_seed(8, "data")


@pytest.mark.parametrize("make, forward", [
    (lambda: FeedForwardNet([3, 4, 2], SeededRng(1)),
     lambda net: net.forward(np.ones((2, 3)))),
    (lambda: NoiseModel(2, 2, 4, SeededRng(2), hidden=(5, 3)),
     lambda net: net.predict(np.ones((2, 2)), np.ones((2, 2)),
                             np.array([1, 4]))),
    (lambda: GeneratorPolicy(3, 2, SeededRng(3), hidden=(6,)),
     lambda net: net.act(np.ones((2, 3)))),
], ids=["FeedForwardNet", "NoiseModel", "GeneratorPolicy"])
def test_params_are_views_tiling_flat(make, forward):
    net = make()
    # the tensors forward reads, in flat's order [W0, b0, W1, b1, ...]
    params = [p for pair in zip(net.weights, net.biases) for p in pair]
    assert [p.shape for p in params] == net.shapes(net.widths)
    assert all(np.array_equal(p, q) for p, q in zip(
        params, [net.flat[at].reshape(shape) for at, shape in
                 tensor_layout(net.shapes(net.widths))]))
    assert net.flat.dtype == np.float32 and net.flat.flags.c_contiguous
    assert net.flat.ctypes.data % 64 == 0  # starts on a cache line
    assert all(np.shares_memory(p, net.flat) for p in params)
    # the views tile flat exactly: sizes add up and no element is shared
    assert sum(p.size for p in params) == net.flat.size
    for i, p in enumerate(params):
        for q in params[i + 1:]:
            assert not np.shares_memory(p, q)
    # one optimizer step on flat moves the network's output
    out = forward(net)
    state = OptimizerState.for_params(net.flat)
    optimizer_step(state, net.flat, np.ones_like(net.flat))
    assert np.all(forward(net) != out)


@pytest.mark.parametrize("make, forward", [
    (lambda dtype: FeedForwardNet([3, 4, 2], SeededRng(1), dtype=dtype),
     [lambda net: net.forward(np.ones((2, 3))),
      lambda net: net.forward(np.ones(3))]),
    (lambda dtype: NoiseModel(2, 2, 4, SeededRng(2), hidden=(5,),
                              dtype=dtype),
     [lambda net: net.predict(np.ones((2, 2)), np.ones((2, 2)),
                              np.array([1, 4])),
      lambda net: net.predict(np.ones(2), np.ones(2), 3)]),
    (lambda dtype: GeneratorPolicy(3, 2, SeededRng(3), hidden=(6,),
                                   dtype=dtype),
     [lambda net: net.act(np.ones((2, 3))),
      lambda net: net.act(np.ones(3))]),
], ids=["FeedForwardNet", "NoiseModel", "GeneratorPolicy"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_float64_input_gives_net_dtype(make, forward, dtype):
    net = make(dtype)
    assert net.flat.dtype == dtype
    for call in forward:
        assert call(net).dtype == dtype


class TestAtomicWrite:
    def test_a_write_that_raises_keeps_the_old_bytes(self, tmp_path):
        path = str(tmp_path / "f.txt")
        with atomic_write(path) as fh:
            fh.write("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new, half written")
                raise RuntimeError
        assert open(path).read() == "old"
        assert os.listdir(tmp_path) == ["f.txt"]

    def test_writers_of_one_path_at_once_have_their_own_files(self,
                                                              tmp_path):
        path = str(tmp_path / "f.bin")
        with atomic_write(path, "wb") as a, atomic_write(path, "wb") as b:
            a.write(b"a")
            b.write(b"b")
            assert len(os.listdir(tmp_path)) == 2
        assert open(path, "rb").read() == b"a"   # the last one to finish
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_the_file_gets_the_mode_open_gives(self, tmp_path):
        open(tmp_path / "plain", "w").close()
        with atomic_write(str(tmp_path / "atomic")) as fh:
            fh.write("x")
        assert (os.stat(tmp_path / "atomic").st_mode
                == os.stat(tmp_path / "plain").st_mode)


class TestCheckpoint:
    @staticmethod
    def roundtrip(tmp_path, dtype):
        """Save a trained-looking NoiseModel of ``dtype`` with its EMA
        shadow and check that exactly the five keys are written and that
        the shadow loads back bit-exactly in that dtype; return (path,
        shadow)."""
        rng = SeededRng(11)
        model = NoiseModel(2, 2, 4, rng, hidden=(5, 3), dtype=dtype)
        opt = OptimizerState.for_params(model.flat, lr=1e-3)
        optimizer_step(opt, model.flat, rng.standard_normal(model.flat.shape))
        shadow = NoiseModel.from_arch(model.arch())
        shadow.set_params(model.flat)
        ema = EmaTracker(shadow.flat, warmup=0)
        optimizer_step(opt, model.flat, rng.standard_normal(model.flat.shape))
        ema_update(ema, model.flat)
        assert not np.array_equal(shadow.flat, model.flat)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, shadow)
        with open(path) as fh:
            assert list(json.load(fh)) == ["format_version", "role", "arch",
                                           "params", "crc32"]
        loaded = load_checkpoint(path)
        assert set(loaded) == {"format_version", "role", "arch", "params",
                               "crc32"}
        assert loaded["role"] == "denoiser"
        assert loaded["arch"] == model.arch()
        got = loaded["params"]
        assert got.shape == model.flat.shape and got.dtype == dtype
        assert got.tobytes() == shadow.flat.tobytes()
        return path, shadow.flat

    def test_roundtrip_exact(self, tmp_path):
        self.roundtrip(tmp_path, np.float64)

    def test_float32_roundtrip_exact(self, tmp_path):
        path, shadow = self.roundtrip(tmp_path, np.float32)
        loaded = load_checkpoint(path)
        copy = NoiseModel.from_arch(loaded["arch"])
        copy.set_params(loaded["params"])
        assert copy.flat.dtype == np.float32
        assert copy.flat.tobytes() == shadow.tobytes()

    def test_missing_dtype_loads_float64(self, tmp_path):
        # only format-1 and format-2 files, which no longer load, lacked the
        # dtype; an arch without one is a malformed file (exit 1), named
        path, _ = self.roundtrip(tmp_path, np.float64)
        payload = json.load(open(path))
        del payload["arch"]["dtype"]
        with open(path, "w") as fh:
            json.dump(seal_checkpoint(payload), fh)
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"checkpoint {path}: ")):
            load_checkpoint(path)

    def test_version_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "role": "x", "params": []}')
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(str(path))
