import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smile.diffusion import NoiseModel, diffuse
from smile.envs import DemoStore, Trajectory
from smile.errors import ConfigError, InvalidInputError
from smile.expertise import (FilterConfig, filter_dataset, q_curve_matrix,
                             save_filter_report, score_dataset,
                             segment_trajectories)
from smile.mathcore import SeededRng

from conftest import (float32_rounding_bound, forward_stage_lengths,
                      reference_q_curve_matrix)
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


def predicted_step(model, policy, traj, sched):
    """(predicted step, mean-Q curve) of one trajectory, scored by
    score_dataset as a store of one unsplit segment."""
    cfg = FilterConfig(min_demos=1, max_demo_len=10 ** 6)
    records, _ = score_dataset(DemoStore([traj]), model, policy, cfg, sched)
    (rec,) = records
    return rec.predicted_step, np.asarray(rec.mean_q)


class TestQValue:
    def test_t0_equal_actions_is_max(self, sched):
        ones = np.ones((1, 2))
        model = _OffsetModel(np.zeros((1, 2)), np.ones((1, 2)), sched)
        q = q_curve_matrix(model, np.zeros((1, 2)), ones, ones, sched)
        assert q[0, 0] == 0.0
        assert q.shape == (sched.T + 1, 1) and np.all(q <= 0.0)

    def test_exact_denoise_gives_zero(self, sched, rng):
        task = GaussianTask(seed=1, action_dim=2)
        oracle = OracleDenoiser(task, sched)
        s = task.sample_states(rng, 1)
        a_ref = rng.standard_normal((1, 2))
        t = 4
        target = a_ref - sched.sigmas[t] * oracle.predict(s, a_ref, t)
        q = q_curve_matrix(oracle, s, target, a_ref, sched)
        assert q[t, 0] == pytest.approx(0.0, abs=1e-20)

    def test_frozen_hand_value(self, sched):
        model = NoiseModel(2, 2, sched.T, SeededRng(3), hidden=(6,))
        s = np.array([0.1, -0.2])
        a_target = np.array([0.5, 0.5])
        a_ref = np.array([-0.3, 0.8])
        t = 6
        denoised = a_ref - sched.sigmas[t] * model.predict(s, a_ref, t)
        expected = -float(((a_target - denoised) ** 2).sum())
        q = q_curve_matrix(model, s[None], a_target[None], a_ref[None], sched)
        assert q[t, 0] == pytest.approx(expected, rel=1e-12)


class _Recorder:
    """Passes predict calls through to a model and keeps every output."""

    def __init__(self, model):
        self.model = model
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
        got = q_curve_matrix(oracle, states, targets, refs, sched)
        want = reference_q_curve_matrix(oracle, states, targets, refs, sched)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 33, 100])
    def test_offset_model_bit_for_bit(self, sched, n):
        states, targets, refs = self.inputs(n, 32 + n)
        model = _OffsetModel(states, SeededRng(33).standard_normal((n, 2)),
                             sched)
        got = q_curve_matrix(model, states, targets, refs, sched)
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
        got = q_curve_matrix(batched, states, targets, refs, sched)
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
        assert predicted_step(oracle, policy, traj, sched)[0] == 0

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
            step, curve = predicted_step(oracle, policy, traj, sched)
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
            zeros += predicted_step(oracle, policy, traj, sched)[0] == 0
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
        step, _ = predicted_step(oracle, TablePolicy(states, refs), traj,
                                 sched)
        assert step > 0

    def test_empty_trajectory_rejected(self, sched):
        traj = Trajectory(traj_id=0, states=np.zeros((0, 2)),
                          actions=np.zeros((0, 2)), rewards=None,
                          terminals=np.zeros(0, dtype=bool))
        with pytest.raises(InvalidInputError):
            predicted_step(None, None, traj, sched)

    def test_tie_breaks_toward_smallest(self, sched, rng):
        # zero offset makes the whole curve flat: argmax must return 0
        states = rng.standard_normal((5, 2))
        actions = rng.standard_normal((5, 2))
        traj = make_traj(states, actions)
        model = _OffsetModel(states, np.zeros((5, 2)), sched)
        policy = TablePolicy(states, actions)
        assert predicted_step(model, policy, traj, sched)[0] == 0


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
        policy_rows, denoiser_calls = [], []

        class CountingPolicy:
            def act(self, s):
                policy_rows.append(len(s))
                return table.act(s)

        class CountingModel:
            def predict(self, s, a_t, t):
                denoiser_calls.append((s, a_t, t))
                return oracle.predict(s, a_t, t)

        cfg = FilterConfig(min_demos=1, max_demo_len=4)
        records, _ = score_dataset(store, CountingModel(), CountingPolicy(),
                                   cfg, sched)
        assert policy_rows == [store.transition_count]
        assert [r.stop - r.start for r in records] == [4, 4, 2] * 6
        # one denoiser call per segment, over its n rows at every step
        assert [len(s) for s, _, _ in denoiser_calls] == [
            sched.T * n for n in [4, 4, 2] * 6]
        lo = 0
        for (s, a_t, t), rec in zip(denoiser_calls, records):
            n = rec.stop - rec.start
            assert np.array_equal(s, np.tile(states[lo:lo + n], (sched.T, 1)))
            assert np.array_equal(a_t,
                                  np.tile(actions[lo:lo + n], (sched.T, 1)))
            assert np.array_equal(t, np.repeat(np.arange(1, sched.T + 1), n))
            lo += n


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


class TestFilterDataset:
    def test_all_high_steps_drop_nothing(self, sched):
        store, policy, model = _offset_store([0.5] * 6, sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg, sched)
        assert report.n_dropped == 0
        assert not report.stop_filtering
        assert store.num_trajectories == 6
        assert all(r.predicted_step == sched.T for r in report.records)

    def test_min_demos_guard_sets_stop_and_keeps_all(self, sched):
        # 12 segments, 5 scored at step 0 (<= threshold): keeping the rest
        # would leave 7 < 10, so nothing is dropped and filtering stops
        store, policy, model = _offset_store([0.0] * 5 + [0.5] * 7, sched)
        cfg = FilterConfig(min_demos=10, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg, sched)
        assert report.stop_filtering
        assert report.n_before == 12
        assert report.n_kept == 12 and report.n_dropped == 0
        assert store.num_trajectories == 12
        assert all(r.verdict == "keep" for r in report.records)

    def test_drop_commits_reduced_store(self, sched):
        store, policy, model = _offset_store([0.0] * 5 + [0.5] * 7, sched)
        cfg = FilterConfig(min_demos=3, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg, sched)
        assert not report.stop_filtering
        assert report.n_kept == 7 and report.n_dropped == 5
        assert store.num_trajectories == 7
        assert report.n_kept + report.n_dropped == report.n_before

    def test_never_empties_below_min_demos(self, sched):
        store, policy, model = _offset_store([0.0] * 8, sched)
        cfg = FilterConfig(min_demos=2, step_threshold=1, max_demo_len=100)
        filter_dataset(store, model, policy, cfg, sched)
        assert store.num_trajectories >= 2

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(0, 9))
    def test_threshold_monotonicity(self, lo):
        # a segment kept at threshold k stays kept at every threshold < k
        from smile.diffusion import build_schedule
        sched = build_schedule(10, 0.05, 0.6)
        hi = lo + 1
        offsets = [0.0, 0.1, 0.4, 0.8, 0.0, 0.6]
        store_hi, policy, model = _offset_store(offsets, sched)
        store_lo, _, _ = _offset_store(offsets, sched)
        cfg_hi = FilterConfig(min_demos=1, step_threshold=hi,
                              max_demo_len=100)
        cfg_lo = FilterConfig(min_demos=1, step_threshold=lo,
                              max_demo_len=100)
        rep_hi = filter_dataset(store_hi, model, policy, cfg_hi, sched)
        rep_lo = filter_dataset(store_lo, model, policy, cfg_lo, sched)
        kept_hi = {r.segment_id for r in rep_hi.records
                   if r.verdict == "keep" and not rep_hi.stop_filtering}
        kept_lo = {r.segment_id for r in rep_lo.records
                   if r.verdict == "keep" and not rep_lo.stop_filtering}
        if not rep_hi.stop_filtering and not rep_lo.stop_filtering:
            assert kept_hi <= kept_lo

    def test_segments_get_fresh_ids_and_provenance(self, sched):
        traj = make_traj(np.zeros((6, 2)), np.zeros((6, 2)), tid=42,
                         noise_level=0.25)
        store = DemoStore([traj])
        policy = TablePolicy(traj.states, traj.actions + 0.5)
        model = _OffsetModel(traj.states, np.full((6, 2), 0.5), sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=3)
        report = filter_dataset(store, model, policy, cfg, sched)
        assert report.n_before == 2
        assert [tr.traj_id for tr in store.trajectories] == [0, 1]
        assert all(tr.noise_level == 0.25 for tr in store.trajectories)
        assert all(r.parent_id == 42 for r in report.records)

    def test_empty_store_rejected(self, sched):
        with pytest.raises(InvalidInputError):
            filter_dataset(DemoStore([]), None, None, FilterConfig(), sched)

    def test_bad_config_rejected(self, sched):
        store, policy, model = _offset_store([0.5], sched)
        with pytest.raises(ConfigError):
            filter_dataset(store, model, policy,
                           FilterConfig(min_demos=0), sched)
        with pytest.raises(ConfigError):
            filter_dataset(store, model, policy,
                           FilterConfig(step_threshold=11), sched)


class TestReport:
    def test_report_serialization(self, sched, tmp_path):
        store, policy, model = _offset_store([0.0, 0.5, 0.7], sched)
        cfg = FilterConfig(min_demos=1, step_threshold=1, max_demo_len=100)
        report = filter_dataset(store, model, policy, cfg, sched,
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
        records, kept = score_dataset(store, model, policy, cfg, sched)
        assert store.num_trajectories == before
        assert len(records) == 2 and len(kept) == 1
