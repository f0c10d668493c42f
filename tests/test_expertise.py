import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smile.diffusion import NoiseModel, diffuse
from smile.envs import (DemoStore, Trajectory, default_expert,
                        generate_demos, make_env_spec)
from smile.errors import ConfigError, InvalidInputError
from smile.expertise import (FilterConfig, filter_dataset, q_curve_matrix,
                             save_filter_report, score_dataset,
                             segment_trajectories, spearman,
                             tie_averaged_ranks)
from smile.mathcore import SeededRng
from smile.policy import GeneratorPolicy

from conftest import (float32_rounding_bound, forward_stage_lengths,
                      reference_q_curve_matrix, traced_peak)
from gauss_task import GaussianTask, OracleDenoiser, TablePolicy


def make_traj(states, actions, tid=0, noise_level=None):
    n = len(states)
    terminals = np.zeros(n, dtype=bool)
    terminals[-1] = True
    return Trajectory(traj_id=tid, states=np.asarray(states, float),
                      actions=np.asarray(actions, float), rewards=None,
                      terminals=terminals, noise_level=noise_level)


class _OffsetModel:
    """Stub predictor: claims the noise at each state is a fixed vector over
    sigma_T, so denoising t steps walks the reference linearly and lands on
    target-plus-nothing exactly at t = T. Like TablePolicy it looks rows up
    by state, so it answers any batch of the states it was built from."""

    def __init__(self, states, vecs, sched):
        self.states = np.atleast_2d(states)
        self.vecs = np.atleast_2d(vecs)
        self.sched = sched

    def predict(self, s, a_ref, t):
        idx = [int(np.flatnonzero((self.states == row).all(axis=1))[0])
               for row in np.atleast_2d(s)]
        return self.vecs[idx] / self.sched.sigmas[-1]


def predicted_step(model, policy, traj):
    """(predicted step, mean-Q curve) of one trajectory, scored by
    score_dataset as a store of one unsplit segment."""
    cfg = FilterConfig(min_demos=1, max_demo_len=10 ** 6)
    records, _ = score_dataset(DemoStore([traj]), model, policy, cfg)
    (rec,) = records
    return rec.predicted_step, np.asarray(rec.mean_q)


class TestQValue:
    def test_t0_equal_actions_is_max(self, sched):
        ones = np.ones((1, 2))
        model = _OffsetModel(np.zeros((1, 2)), np.ones((1, 2)), sched)
        q = q_curve_matrix(model, np.zeros((1, 2)), ones, ones)
        assert q[0, 0] == 0.0
        assert q.shape == (sched.T + 1, 1) and np.all(q <= 0.0)

    def test_exact_denoise_gives_zero(self, sched, rng):
        task = GaussianTask(seed=1, action_dim=2)
        oracle = OracleDenoiser(task, sched)
        s = task.sample_states(rng, 1)
        a_ref = rng.standard_normal((1, 2))
        t = 4
        target = a_ref - sched.sigmas[t] * oracle.predict(s, a_ref, t)
        q = q_curve_matrix(oracle, s, target, a_ref)
        assert q[t, 0] == pytest.approx(0.0, abs=1e-20)

    def test_frozen_hand_value(self, sched):
        model = NoiseModel(2, 2, sched.T, SeededRng(3), hidden=(6,))
        s = np.array([0.1, -0.2])
        a_target = np.array([0.5, 0.5])
        a_ref = np.array([-0.3, 0.8])
        t = 6
        denoised = a_ref - sched.sigmas[t] * model.predict(s, a_ref, t)
        expected = -float(((a_target - denoised) ** 2).sum())
        q = q_curve_matrix(model, s[None], a_target[None], a_ref[None])
        assert q[t, 0] == pytest.approx(expected, rel=1e-12)


class _Recorder:
    """Passes predict calls through to a model, under its schedule, and
    keeps every output."""

    def __init__(self, model):
        self.model = model
        self.sched = model.sched
        self.outputs = []

    def predict(self, s, a_t, t):
        out = self.model.predict(s, a_t, t)
        self.outputs.append(out)
        return out


class _Replay:
    """Answers a scalar step t with block t-1 of fixed (T, n, d) noise
    predictions, whatever the states."""

    def __init__(self, eps):
        self.eps = eps

    def predict(self, s, a_t, t):
        return self.eps[t - 1]


class TestQCurveMatchesReference:
    """q_curve_matrix scores all T steps in one forward; the per-step loop
    of conftest.reference_q_curve_matrix is the reference."""

    def inputs(self, n, seed):
        rng = SeededRng(seed)
        return (rng.uniform(-1.0, 1.0, (n, 4)), rng.standard_normal((n, 2)),
                rng.standard_normal((n, 2)))

    # the oracle's mu = states @ M takes OpenBLAS's matrix-vector path at
    # one row, so its rows are independent of the row count only from two
    @pytest.mark.parametrize("n", [2, 7, 33, 100])
    def test_oracle_bit_for_bit(self, sched, n):
        oracle = OracleDenoiser(GaussianTask(seed=30, action_dim=2), sched)
        states, targets, refs = self.inputs(n, 31 + n)
        got = q_curve_matrix(oracle, states, targets, refs)
        want = reference_q_curve_matrix(oracle, states, targets, refs, sched)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 33, 100])
    def test_offset_model_bit_for_bit(self, sched, n):
        states, targets, refs = self.inputs(n, 32 + n)
        model = _OffsetModel(states, SeededRng(33).standard_normal((n, 2)),
                             sched)
        got = q_curve_matrix(model, states, targets, refs)
        want = reference_q_curve_matrix(model, states, targets, refs, sched)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 33, 100])
    def test_float32_noise_model_within_rounding_bound(self, sched, n):
        # The one T*n-row forward and the T n-row forwards run the same
        # operations on the same float32 inputs, but BLAS may sum each
        # matmul in another order at another row count. Each forward is
        # within B = sum of gamma over the net's stages (conftest) of the
        # exact one, so the two are within 2B of each other (here 2B =
        # 304 u; measured: 0 at 100 rows, 0.14-3.4 u at 33 to 1). All
        # that follows the forward is elementwise per row, so with the
        # same noise predictions the Q matrices agree bit for bit.
        model = NoiseModel(4, 2, sched.T, SeededRng(34), hidden=(64, 64),
                           dtype=np.float32)
        # a zero output layer would make every prediction its bias
        model.weights[-1][...] = 0.3 * SeededRng(35).standard_normal(
            model.weights[-1].shape)
        states, targets, refs = self.inputs(n, 36 + n)
        batched, looped = _Recorder(model), _Recorder(model)
        got = q_curve_matrix(batched, states, targets, refs)
        reference_q_curve_matrix(looped, states, targets, refs, sched)
        (eps,) = batched.outputs
        eps = eps.reshape(sched.T, n, 2)
        eps_ref = np.stack(looped.outputs)
        assert eps.dtype == eps_ref.dtype == np.float32
        bound = 2 * float32_rounding_bound(
            forward_stage_lengths(model.widths))
        diff = np.linalg.norm((eps - eps_ref).astype(np.float64))
        assert diff <= bound * np.linalg.norm(eps_ref.astype(np.float64))
        want = reference_q_curve_matrix(_Replay(eps), states, targets, refs,
                                        sched)
        assert got.tobytes() == want.tobytes()


class TestPredictStep:
    def test_identical_actions_oracle_gives_zero(self, sched, rng):
        task = GaussianTask(seed=2, action_dim=2)
        oracle = OracleDenoiser(task, sched)
        states = task.sample_states(rng, 50)
        actions = task.mu(states)
        traj = make_traj(states, actions)
        policy = TablePolicy(states, actions)
        assert predicted_step(oracle, policy, traj)[0] == 0

    @pytest.mark.parametrize("t", [3, 5, 7])
    def test_diffused_reference_recovers_step(self, sched, t):
        # reference = trajectory actions diffused exactly t steps; with the
        # closed-form denoiser the mean-Q curve peaks at t
        task = GaussianTask(seed=3, action_dim=4)
        oracle = OracleDenoiser(task, sched)
        hits = 0
        for trial in range(10):
            rng = SeededRng(100 + 7 * trial + t)
            states = task.sample_states(rng, 300)
            a0 = task.sample_actions(rng, states)
            refs = diffuse(a0, t, sched, rng.standard_normal(a0.shape))
            traj = make_traj(states, a0)
            policy = TablePolicy(states, refs)
            step, curve = predicted_step(oracle, policy, traj)
            assert len(curve) == sched.T + 1
            hits += step == t
        assert hits >= 9

    def test_cleaner_reference_gives_zero(self, sched):
        # trajectory = behavior diffused 2 steps, reference = the clean
        # behavior actions: denoising the reference only moves it away
        task = GaussianTask(seed=4, action_dim=4)
        oracle = OracleDenoiser(task, sched)
        zeros = 0
        for trial in range(10):
            rng = SeededRng(200 + trial)
            states = task.sample_states(rng, 400)
            a0 = task.sample_actions(rng, states)
            noisy = diffuse(a0, 2, sched, rng.standard_normal(a0.shape))
            traj = make_traj(states, noisy)
            policy = TablePolicy(states, a0)
            zeros += predicted_step(oracle, policy, traj)[0] == 0
        assert zeros >= 9

    def test_noisier_reference_keep_direction(self, sched, rng):
        # reference policy is a diffused version of the trajectory behavior:
        # the trajectory is the cleaner side, so the predicted step is > 0
        task = GaussianTask(seed=5, action_dim=4)
        oracle = OracleDenoiser(task, sched)
        states = task.sample_states(rng, 400)
        a0 = task.sample_actions(rng, states)
        refs = diffuse(a0, 6, sched, rng.standard_normal(a0.shape))
        traj = make_traj(states, a0)
        step, _ = predicted_step(oracle, TablePolicy(states, refs), traj)
        assert step > 0

    def test_empty_trajectory_rejected(self, sched):
        traj = Trajectory(traj_id=0, states=np.zeros((0, 2)),
                          actions=np.zeros((0, 2)), rewards=None,
                          terminals=np.zeros(0, dtype=bool))
        with pytest.raises(InvalidInputError):
            predicted_step(None, None, traj)

    def test_tie_breaks_toward_smallest(self, sched, rng):
        # zero offset makes the whole curve flat: argmax must return 0
        states = rng.standard_normal((5, 2))
        actions = rng.standard_normal((5, 2))
        traj = make_traj(states, actions)
        model = _OffsetModel(states, np.zeros((5, 2)), sched)
        policy = TablePolicy(states, actions)
        assert predicted_step(model, policy, traj)[0] == 0


class TestScoreDataset:
    def test_one_policy_call_one_segment_per_denoiser_batch(self, sched):
        # 6 trajectories of 10 transitions, cut into segments of 4, 4 and 2
        task = GaussianTask(seed=20, action_dim=2)
        trajs = []
        for tid in range(6):
            rng = SeededRng(21 + tid)
            states = task.sample_states(rng, 10)
            trajs.append(make_traj(states, task.sample_actions(rng, states),
                                   tid=tid))
        store = DemoStore(trajs)
        states, actions = store.sample_all()
        oracle, table = OracleDenoiser(task, sched), TablePolicy(states,
                                                                 actions)
        calls = []

        class CountingPolicy:
            def act(self, s):
                calls.append(("policy", s))
                return table.act(s)

        class CountingModel:
            sched = oracle.sched

            def predict(self, s, a_t, t):
                calls.append(("denoiser", (s, a_t, t)))
                return oracle.predict(s, a_t, t)

        cfg = FilterConfig(min_demos=1, max_demo_len=4)
        records, _ = score_dataset(store, CountingModel(), CountingPolicy(),
                                   cfg)
        assert [r.stop - r.start for r in records] == [4, 4, 2] * 6
        # per segment, in store order: one policy call on its n rows, then
        # one denoiser call over its n rows at every step
        assert [kind for kind, _ in calls] == ["policy", "denoiser"] * 18
        lo = 0
        for rec, (_, s_pol), (_, (s, a_t, t)) in zip(records, calls[0::2],
                                                     calls[1::2]):
            n = rec.stop - rec.start
            assert np.array_equal(s_pol, states[lo:lo + n])
            assert np.array_equal(s, np.tile(states[lo:lo + n], (sched.T, 1)))
            assert np.array_equal(a_t,
                                  np.tile(actions[lo:lo + n], (sched.T, 1)))
            assert np.array_equal(t, np.repeat(np.arange(1, sched.T + 1), n))
            lo += n


def real_nets(state_dim, action_dim, T, seed=0):
    """A float32 NoiseModel and GeneratorPolicy of the default widths whose
    every parameter is drawn at random, output layers included (a fresh
    net's zero output layer would make every product exact)."""
    model = NoiseModel(state_dim, action_dim, T, SeededRng(seed),
                       dtype=np.float32)
    policy = GeneratorPolicy(state_dim, action_dim, SeededRng(seed + 1),
                             dtype=np.float32)
    for i, net in enumerate((model, policy)):
        net.set_params(0.1 * SeededRng(seed + 2 + i).standard_normal(
            net.flat.size))
    return model, policy


def demo_store(n_traj):
    """n_traj pointmass trajectories of 100 transitions, noise level 0.5."""
    spec = make_env_spec("pointmass2d")
    return generate_demos(spec, default_expert(spec), [0.5], n_traj,
                          SeededRng(40))


class TestScoreDatasetStoreIndependence:
    def test_trajectory_scores_the_same_alone_and_in_a_store(self):
        # BLAS may sum a matmul in another order at another row count, so
        # a policy call over the whole store would round differently
        store = demo_store(50)
        model, policy = real_nets(4, 2, 10)
        cfg = FilterConfig(min_demos=1)
        records, _ = score_dataset(store, model, policy, cfg)
        for tr in store.trajectories[::7]:
            (alone,), _ = score_dataset(DemoStore([tr]), model, policy, cfg)
            (within,) = [r for r in records if r.parent_id == tr.traj_id]
            assert (alone.start, alone.stop, alone.predicted_step) == (
                within.start, within.stop, within.predicted_step)
            assert (np.asarray(alone.mean_q).tobytes()
                    == np.asarray(within.mean_q).tobytes())

    def test_peak_memory_does_not_grow_with_the_store(self):
        model, policy = real_nets(4, 2, 10)
        cfg = FilterConfig(min_demos=1)
        small = demo_store(5)
        large = DemoStore([dataclasses.replace(tr, traj_id=i) for i, tr in
                           enumerate(small.trajectories * 50)])
        peaks = [traced_peak(lambda: score_dataset(s, model, policy, cfg))
                 for s in (small, large)]
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestSegmentation:
    def test_split_at_max_len(self):
        traj = make_traj(np.zeros((25, 2)), np.zeros((25, 2)))
        segs = segment_trajectories([traj], max_demo_len=10)
        assert [(a, b) for _, a, b in segs] == [(0, 10), (10, 20), (20, 25)]

    def test_split_at_terminals(self):
        traj = make_traj(np.zeros((6, 2)), np.zeros((6, 2)))
        traj.terminals[...] = False
        traj.terminals[[2, 5]] = True
        segs = segment_trajectories([traj], max_demo_len=100)
        assert [(a, b) for _, a, b in segs] == [(0, 3), (3, 6)]

    def test_trailing_open_segment_kept(self):
        traj = make_traj(np.zeros((7, 2)), np.zeros((7, 2)))
        traj.terminals[...] = False
        segs = segment_trajectories([traj], max_demo_len=4)
        assert [(a, b) for _, a, b in segs] == [(0, 4), (4, 7)]


def _offset_store(offsets, sched, n=4, dim=2, seed=0):
    """Store + policy + model where segment i's whole-trajectory q-curve
    peaks at T when offsets[i] != 0 and is flat (argmax 0) when 0."""
    rng = SeededRng(seed)
    trajs, refs, vecs = [], [], []
    for tid, off in enumerate(offsets):
        states = rng.standard_normal((n, dim))
        actions = rng.standard_normal((n, dim))
        trajs.append(make_traj(states, actions, tid=tid))
        refs.append(actions + off)
        vecs.append(np.full((n, dim), off))
    store = DemoStore(trajs)
    all_states = np.concatenate([t.states for t in trajs])
    policy = TablePolicy(all_states, np.concatenate(refs))
    model = _OffsetModel(all_states, np.concatenate(vecs), sched)
    return store, policy, model


def _step_store(steps, sched, n=4, dim=2, seed=0):
    """Store + policy + model where segment i's mean-Q curve peaks at
    steps[i] alone: its reference is the action plus 0.5, which the stub's
    noise walks back onto the action at exactly that step (0: no walk, a
    flat curve). Policy and model look rows up by state, so they score any
    reordered or filtered copy of the store."""
    offsets = [0.0 if t == 0 else 0.5 for t in steps]
    store, policy, _ = _offset_store(offsets, sched, n, dim, seed)
    states = np.concatenate([tr.states for tr in store.trajectories])
    vecs = np.repeat([0.0 if t == 0 else 0.5 * sched.sigmas[-1]
                      / sched.sigmas[t] for t in steps], n)
    model = _OffsetModel(states, np.repeat(vecs[:, None], dim, axis=1),
                         sched)
    return store, policy, model


class TestFilterDataset:
    def test_all_high_steps_drop_nothing(self, sched):
        store, policy, model = _offset_store([0.5] * 6, sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg)
        assert report.n_dropped == 0
        assert store.num_trajectories == 6
        assert all(r.predicted_step == sched.T for r in report.records)

    @pytest.mark.parametrize("min_demos, kept", [
        (1, [7]), (3, [5, 5, 7, 5]), (4, [5, 5, 7, 5]),
        (5, [5, 5, 7, 5, 3]), (100, [2, 5, 5, 0, 7, 5, 1, 3])],
        ids=["1", "3", "4", "5", "100"])
    def test_min_demos_floor_keeps_the_top_steps_and_ties(self, sched,
                                                          min_demos, kept):
        # threshold 8 is above every step, which would drop every segment:
        # the pass keeps the min_demos highest steps and all their ties,
        # commits them, and the next pass filters the smaller store again
        steps = [2, 5, 5, 0, 7, 5, 1, 3]
        store, policy, model = _step_store(steps, sched)
        cfg = FilterConfig(min_demos=min_demos, step_threshold=8,
                           max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg)
        assert [r.predicted_step for r in report.records] == steps
        assert [r.predicted_step for r in report.records
                if r.verdict == "keep"] == kept
        assert store.num_trajectories == len(kept)
        again = filter_dataset(store, model, policy, cfg)
        assert again.n_before == len(kept)
        assert again.n_kept == len(kept)

    def test_drop_commits_reduced_store(self, sched):
        store, policy, model = _offset_store([0.0] * 5 + [0.5] * 7, sched)
        cfg = FilterConfig(min_demos=3, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg)
        assert report.n_kept == 7 and report.n_dropped == 5
        assert store.num_trajectories == 7
        assert report.n_kept + report.n_dropped == report.n_before

    def test_never_empties_below_min_demos(self, sched):
        store, policy, model = _offset_store([0.0] * 8, sched)
        cfg = FilterConfig(min_demos=2, step_threshold=1, max_demo_len=100)
        filter_dataset(store, model, policy, cfg)
        assert store.num_trajectories >= 2

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(0, 9), min_demos=st.integers(1, 6))
    def test_threshold_monotonicity(self, lo, min_demos):
        # a segment kept at threshold k stays kept at every threshold < k,
        # at every min_demos from 1 to the segment count
        from smile.diffusion import build_schedule
        sched = build_schedule(10, 0.05, 0.6)
        hi = lo + 1
        steps = [0, 3, 7, 10, 0, 5]
        store_hi, policy, model = _step_store(steps, sched)
        store_lo, _, _ = _step_store(steps, sched)
        cfg_hi = FilterConfig(min_demos=min_demos, step_threshold=hi,
                              max_demo_len=100)
        cfg_lo = FilterConfig(min_demos=min_demos, step_threshold=lo,
                              max_demo_len=100)
        rep_hi = filter_dataset(store_hi, model, policy, cfg_hi)
        rep_lo = filter_dataset(store_lo, model, policy, cfg_lo)
        kept_hi = {r.segment_id for r in rep_hi.records
                   if r.verdict == "keep"}
        kept_lo = {r.segment_id for r in rep_lo.records
                   if r.verdict == "keep"}
        assert kept_hi <= kept_lo
        assert len(kept_hi) >= min_demos

    @pytest.mark.parametrize("threshold", [1, 8])
    def test_verdicts_do_not_depend_on_store_order(self, sched, threshold):
        # the same trajectories in any order keep the same ones, at a
        # threshold and where the min_demos floor decides
        steps = [2, 5, 5, 0, 7, 5, 1, 3]
        store, policy, model = _step_store(steps, sched)
        cfg = FilterConfig(min_demos=3, step_threshold=threshold,
                           max_demo_len=100)
        trajs = store.trajectories
        kept = []
        for order in ([0, 1, 2, 3, 4, 5, 6, 7], [7, 6, 5, 4, 3, 2, 1, 0],
                      [3, 5, 0, 7, 2, 4, 6, 1], [1, 2, 5, 4, 0, 3, 6, 7]):
            records, _ = score_dataset(DemoStore([trajs[i] for i in order]),
                                       model, policy, cfg)
            kept.append(sorted(r.parent_id for r in records
                               if r.verdict == "keep"))
        assert kept[0] == ([0, 1, 2, 4, 5, 7] if threshold == 1
                           else [1, 2, 4, 5])
        assert all(k == kept[0] for k in kept)

    def test_segments_get_fresh_ids_and_provenance(self, sched):
        traj = make_traj(np.zeros((6, 2)), np.zeros((6, 2)), tid=42,
                         noise_level=0.25)
        store = DemoStore([traj])
        policy = TablePolicy(traj.states, traj.actions + 0.5)
        model = _OffsetModel(traj.states, np.full((6, 2), 0.5), sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=3)
        report = filter_dataset(store, model, policy, cfg)
        assert report.n_before == 2
        assert [tr.traj_id for tr in store.trajectories] == [0, 1]
        assert all(tr.noise_level == 0.25 for tr in store.trajectories)
        assert all(r.parent_id == 42 for r in report.records)

    def test_empty_store_rejected(self, sched):
        with pytest.raises(InvalidInputError):
            filter_dataset(DemoStore([]), None, None, FilterConfig())

    def test_bad_config_rejected(self, sched):
        store, policy, model = _offset_store([0.5], sched)
        with pytest.raises(ConfigError):
            filter_dataset(store, model, policy,
                           FilterConfig(min_demos=0))
        with pytest.raises(ConfigError):
            filter_dataset(store, model, policy,
                           FilterConfig(step_threshold=11))


class TestReport:
    def test_report_serialization(self, sched, tmp_path):
        store, policy, model = _offset_store([0.0, 0.5, 0.7], sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg,
                                iteration=2500)
        path = str(tmp_path / "report.json")
        save_filter_report(report, path)
        payload = json.load(open(path))
        assert payload["iteration"] == 2500
        assert payload["n_before"] == 3
        assert len(payload["records"]) == 3
        rec = payload["records"][0]
        assert {"segment_id", "parent_id", "predicted_step", "mean_q",
                "verdict", "noise_level", "ret"} <= set(rec)
        assert len(rec["mean_q"]) == sched.T + 1

    def test_score_dataset_does_not_mutate(self, sched):
        store, policy, model = _offset_store([0.0, 0.5], sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=100)
        before = store.num_trajectories
        records, kept = score_dataset(store, model, policy, cfg)
        assert store.num_trajectories == before
        assert len(records) == 2 and len(kept) == 1


def _level_report(sched, steps, levels):
    """A filter pass over a store whose segment i has predicted step
    steps[i] and noise level levels[i] (threshold 1, floor 1)."""
    store, policy, model = _step_store(steps, sched)
    for tr, level in zip(store.trajectories, levels):
        tr.noise_level = level
    cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=100)
    report = filter_dataset(store, model, policy, cfg, iteration=10)
    assert [r.predicted_step for r in report.records] == list(steps)
    return report


class TestFilterQualityByLevel:
    LEVELS = [0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0]

    def test_kept_by_level_and_rho_of_a_pass(self, sched, tmp_path):
        steps = [5, 5, 3, 0, 0, 2, 0, 0]        # ties in steps and levels
        report = _level_report(sched, steps, self.LEVELS)
        summary = report.summary()
        assert summary["kept_by_level"] == {
            "0.0": [2, 2], "0.25": [1, 2], "0.5": [1, 2], "1.0": [0, 2]}
        want = stats.spearmanr(steps, self.LEVELS).statistic
        assert summary["step_level_spearman"] == pytest.approx(want,
                                                               abs=1e-12)
        assert want < 0      # cleaner levels score higher steps
        path = str(tmp_path / "report.json")
        save_filter_report(report, path)
        payload = json.load(open(path))
        assert {k: payload[k] for k in summary} == summary

    @pytest.mark.parametrize("levels,kept_by_level", [
        ([0.0, 0.0, 0.25, None, 0.5, 0.5, 1.0, 1.0],       # a null level
         {"0.0": [2, 2], "0.25": [1, 1], "0.5": [1, 2], "1.0": [0, 2],
          "null": [0, 1]}),
        ([0.5] * 8, {"0.5": [4, 8]}),                     # every level ties
    ])
    def test_rho_is_null_without_levels_to_rank(self, sched, levels,
                                                 kept_by_level):
        summary = _level_report(sched, [5, 5, 3, 0, 0, 2, 0, 0],
                                levels).summary()
        assert summary["step_level_spearman"] is None
        assert summary["kept_by_level"] == kept_by_level

    def test_rho_is_null_when_every_step_ties(self, sched):
        summary = _level_report(sched, [3] * 8, self.LEVELS).summary()
        assert summary["step_level_spearman"] is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10),
                          st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                min_size=2, max_size=60))
def test_spearman_is_scipys_with_ties(pairs):
    x, y = map(list, zip(*pairs))
    assert np.array_equal(tie_averaged_ranks(x), stats.rankdata(x))
    got = spearman(x, y)
    if len(set(x)) == 1 or len(set(y)) == 1:
        assert got is None
    else:
        assert got == pytest.approx(stats.spearmanr(x, y).statistic,
                                    abs=1e-12)
