import dataclasses
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smile.envs import (DemoStore, EnvState, Trajectory, default_expert,
                        env_reset, env_step, expert_act, generate_demos,
                        load_demos, make_env_spec, rollout,
                        rollout_batch_returns, save_demos,
                        undiscounted_return)
from smile.errors import ConfigError, EnvironmentFault, InvalidInputError
from smile.mathcore import SeededRng, derive_seed

from conftest import traced_peak


@pytest.fixture
def pm():
    return make_env_spec("pointmass2d")


@pytest.fixture
def di():
    return make_env_spec("double_integrator_1d")


class TestReset:
    def test_fixed_seed_identical(self, pm):
        a = env_reset(pm, SeededRng(3))
        b = env_reset(pm, SeededRng(3))
        assert np.array_equal(a.obs, b.obs)
        assert a.t == 0

    def test_velocity_zero(self, pm):
        state = env_reset(pm, SeededRng(1))
        assert np.all(state.obs[2:] == 0.0)

    def test_spawn_bounds_monte_carlo(self, pm):
        rng = SeededRng(2)
        pos = np.array([env_reset(pm, rng).obs[:2] for _ in range(10 ** 4)])
        assert pos.min() >= -0.5 and pos.max() <= 0.5
        # fills the region: both corners approached
        assert pos.min() < -0.45 and pos.max() > 0.45


class TestStep:
    def test_zero_action_zero_velocity_static(self, pm):
        state = EnvState(obs=np.array([0.2, -0.1, 0.0, 0.0]), t=0)
        new, r, done = env_step(pm, state, np.zeros(2))
        assert np.allclose(new.obs[:2], [0.2, -0.1])
        assert r == pytest.approx(-((0.2 - 1) ** 2 + (-0.1 - 1) ** 2))
        assert not done

    def test_hand_integrated_step(self):
        # hand integration with dt=0.05, damping=0.05, goal=(1,1):
        # pos' = (0,0) + 0.05*(1,0) = (0.05, 0)
        # vel' = 0.95*(1,0) + 0.05*(0,0) = (0.95, 0)
        # r = -((0.05-1)^2 + (0-1)^2) = -(0.9025 + 1) = -1.9025
        spec = dataclasses.replace(make_env_spec("pointmass2d"),
                                   dt=0.05, damping=0.05)
        state = EnvState(obs=np.array([0.0, 0.0, 1.0, 0.0]), t=0)
        new, r, done = env_step(spec, state, np.zeros(2))
        assert np.allclose(new.obs, [0.05, 0.0, 0.95, 0.0], atol=1e-15)
        assert r == pytest.approx(-1.9025, abs=1e-12)

    def test_reward_zero_at_goal(self, pm):
        state = EnvState(obs=np.array([1.0, 1.0, 0.0, 0.0]), t=0)
        _, r, _ = env_step(pm, state, np.zeros(2))
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_action_clipped_before_integration(self, pm):
        state = EnvState(obs=np.zeros(4), t=0)
        big, _, _ = env_step(pm, state, np.array([10.0, 10.0]))
        one, _, _ = env_step(pm, state, np.array([1.0, 1.0]))
        assert np.array_equal(big.obs, one.obs)

    def test_done_at_horizon(self, pm):
        state = EnvState(obs=np.zeros(4), t=pm.horizon - 1)
        _, _, done = env_step(pm, state, np.zeros(2))
        assert done

    def test_non_finite_state_raises(self, pm):
        state = EnvState(obs=np.array([np.inf, 0.0, 0.0, 0.0]), t=0)
        with pytest.raises(EnvironmentFault):
            env_step(pm, state, np.zeros(2))

    def test_unknown_env_rejected(self):
        with pytest.raises(ConfigError):
            make_env_spec("cartpole")


class TestExpert:
    def test_zero_action_at_goal_rest(self, pm):
        ctrl = default_expert(pm)
        s = np.array([1.0, 1.0, 0.0, 0.0])
        assert np.allclose(expert_act(ctrl, pm, s), 0.0)

    def test_within_bounds(self, pm):
        ctrl = default_expert(pm)
        rng = SeededRng(4)
        states = rng.standard_normal((100, 4)) * 3
        acts = expert_act(ctrl, pm, states)
        assert acts.min() >= pm.action_low and acts.max() <= pm.action_high

    def test_gains_within_5pct_of_grid_best(self, pm):
        # coarse grid-search oracle over PD gains, scored above the
        # random-policy floor
        rng = SeededRng(777)
        rand_rng = SeededRng(778)

        def rand_fn(obs):
            return rand_rng.uniform(-1, 1, (len(obs), pm.action_dim))

        r_rand = rollout_batch_returns(pm, rand_fn, rng.spawn("rand"),
                                       16).mean()
        best = -np.inf
        for kp in (1.0, 2.0, 4.0, 6.0, 9.0, 12.0, 16.0):
            for kd in (0.5, 1.0, 2.0, 4.0, 6.0, 8.0):
                ctrl = dataclasses.replace(default_expert(pm), kp=kp, kd=kd)
                r = rollout_batch_returns(
                    pm, lambda o: expert_act(ctrl, pm, o),
                    SeededRng(777), 16).mean()
                best = max(best, r)
        ours = rollout_batch_returns(
            pm, lambda o: expert_act(default_expert(pm), pm, o),
            SeededRng(777), 16).mean()
        assert (ours - r_rand) >= 0.95 * (best - r_rand)

    def test_reaches_goal_by_horizon(self, pm):
        ctrl = default_expert(pm)
        reached = 0
        for seed in range(200):
            states, actions, _ = rollout(
                pm, lambda o: expert_act(ctrl, pm, o), SeededRng(seed), 1)
            # the last observation precedes the last action; re-step once
            state = EnvState(obs=states[-1, 0], t=0)
            state, _, _ = env_step(pm, state, actions[-1, 0])
            reached += np.linalg.norm(state.obs[:2] - np.array(pm.goal)) < 0.05
        assert reached >= 190


class TestRollout:
    def test_shapes_and_clipped_actions(self, di):
        states, actions, rewards = rollout(
            di, lambda o: np.full((len(o), 1), 3.0), SeededRng(8), 5)
        assert states.shape == (di.horizon, 5, 2)
        assert actions.shape == (di.horizon, 5, 1)
        assert rewards.shape == (di.horizon, 5)
        assert (actions == di.action_high).all()

    def test_batch_returns_are_reward_sums(self, pm):
        ctrl = default_expert(pm)

        def noisy(obs):
            return expert_act(ctrl, pm, obs) + noise.standard_normal(
                (len(obs), pm.action_dim))

        noise = SeededRng(10)
        returns = rollout_batch_returns(pm, noisy, SeededRng(9), 7)
        noise = SeededRng(10)
        rewards = rollout(pm, noisy, SeededRng(9), 7)[2]
        assert returns.tobytes() == rewards.sum(axis=0).tobytes()
        # the same bits as accumulating step by step, as evaluation did
        total = np.zeros(7)
        for r in rewards:
            total += r
        assert returns.tobytes() == total.tobytes()

    def test_one_episode_reproduces_level_zero_demo(self, pm):
        ctrl = default_expert(pm)
        rng = SeededRng(11)
        traj = generate_demos(pm, ctrl, [0.0], 1, rng).trajectories[0]
        spawn = SeededRng(derive_seed(rng.seed, "demo-spawn:0"))
        states, actions, rewards = rollout(
            pm, lambda o: expert_act(ctrl, pm, o), spawn, 1)
        assert traj.states.tobytes() == states[:, 0].tobytes()
        assert traj.actions.tobytes() == actions[:, 0].tobytes()
        assert traj.rewards.tobytes() == rewards[:, 0].tobytes()
        assert traj.ret == float(rewards.sum())


class TestGenerateDemos:
    def test_counts_and_provenance(self, pm):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        store = generate_demos(pm, default_expert(pm), levels, 10,
                               SeededRng(6))
        assert store.num_trajectories == 50
        for lv in levels:
            assert sum(1 for tr in store.trajectories
                       if tr.noise_level == lv) == 10
        assert store.transition_count == 50 * pm.horizon

    def test_level_zero_is_pure_expert(self, pm):
        ctrl = default_expert(pm)
        both = generate_demos(pm, ctrl, [0.0, 0.5], 3, SeededRng(7))
        only_zero = generate_demos(pm, ctrl, [0.0], 3, SeededRng(7))
        for a, b in zip(only_zero.trajectories, both.trajectories[:3]):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)

    def test_returns_decrease_with_level(self, pm):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        store = generate_demos(pm, default_expert(pm), levels, 10,
                               SeededRng(8))
        means = [np.mean([tr.ret for tr in store.trajectories
                          if tr.noise_level == lv]) for lv in levels]
        # empirical degradation analogue: Spearman of level vs return <= -0.9
        from scipy.stats import spearmanr
        rho = spearmanr(levels, means).statistic
        assert rho <= -0.9

    def test_returns_decrease_on_double_integrator(self, di):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        store = generate_demos(di, default_expert(di), levels, 10,
                               SeededRng(9))
        means = [np.mean([tr.ret for tr in store.trajectories
                          if tr.noise_level == lv]) for lv in levels]
        from scipy.stats import spearmanr
        assert spearmanr(levels, means).statistic <= -0.9

    def test_deterministic(self, pm):
        a = generate_demos(pm, default_expert(pm), [0.0, 0.5], 2, SeededRng(10))
        b = generate_demos(pm, default_expert(pm), [0.0, 0.5], 2, SeededRng(10))
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.states, tb.states)
            assert np.array_equal(ta.actions, tb.actions)
            assert np.array_equal(ta.rewards, tb.rewards)

    def test_negative_level_rejected(self, pm):
        with pytest.raises(InvalidInputError):
            generate_demos(pm, default_expert(pm), [-0.1], 1, SeededRng(0))

    def test_terminal_only_at_end(self, pm):
        store = generate_demos(pm, default_expert(pm), [0.0], 2, SeededRng(11))
        for tr in store.trajectories:
            assert not tr.terminals[:-1].any()
            assert tr.terminals[-1]


class TestReturns:
    def _traj(self, rewards):
        n = len(rewards)
        return Trajectory(traj_id=0, states=np.zeros((n, 2)),
                          actions=np.zeros((n, 1)),
                          rewards=np.asarray(rewards, dtype=float),
                          terminals=np.r_[np.zeros(n - 1, bool), True])

    def test_zero_rewards(self):
        assert undiscounted_return(self._traj([0.0, 0.0])) == 0.0

    def test_undiscounted_is_plain_sum(self):
        traj = self._traj([1.0, -2.0, 0.5])
        assert undiscounted_return(traj) == pytest.approx(-0.5)

    def test_missing_rewards(self):
        traj = self._traj([1.0])
        traj.rewards = None
        with pytest.raises(InvalidInputError):
            undiscounted_return(traj)


class TestDemoStore:
    def test_duplicate_ids_rejected(self, pm):
        store = generate_demos(pm, default_expert(pm), [0.0], 2, SeededRng(1))
        t0, t1 = store.trajectories
        t1.traj_id = t0.traj_id
        with pytest.raises(InvalidInputError):
            DemoStore([t0, t1])

    def test_sample_shapes_and_reward_free(self, pm):
        store = generate_demos(pm, default_expert(pm), [0.0], 2, SeededRng(1))
        s, a = store.sample(SeededRng(2), 32)
        assert s.shape == (32, 4) and a.shape == (32, 2)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            DemoStore([]).sample(SeededRng(0), 4)


class TestDemoFile:
    def test_roundtrip_bit_exact(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.0, 0.7], 2,
                               SeededRng(12))
        path = str(tmp_path / "demos.jsonl")
        save_demos(store, path, seed=12)
        loaded = load_demos(path)
        assert loaded.env.name == pm.name
        assert loaded.num_trajectories == store.num_trajectories
        for a, b in zip(store.trajectories, loaded.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)
            assert np.array_equal(a.terminals, b.terminals)
            assert a.noise_level == b.noise_level

    def test_envless_store_roundtrips(self, pm, tmp_path):
        # save_demos writes a null env and horizon for a store without env
        store = generate_demos(pm, default_expert(pm), [0.0], 2,
                               SeededRng(12))
        store.env = None
        path = str(tmp_path / "demos.jsonl")
        save_demos(store, path)
        header = json.loads(open(path).readline())
        assert header["env"] is None and header["horizon"] is None
        loaded = load_demos(path)
        assert loaded.env is None
        assert np.array_equal(loaded.sample_all()[0], store.sample_all()[0])

    def test_save_is_byte_deterministic(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.3], 2, SeededRng(13))
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_demos(store, p1, seed=13)
        save_demos(store, p2, seed=13)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_first_line(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.0], 1, SeededRng(14))
        path = str(tmp_path / "demos.jsonl")
        save_demos(store, path, seed=14)
        first = json.loads(open(path).readline())
        assert first["kind"] == "header"
        assert first["env"] == "pointmass2d"
        assert first["state_dim"] == 4 and first["action_dim"] == 2
        assert first["format_version"] == 1

    def test_reward_strip_flag(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.0], 1, SeededRng(15))
        path = str(tmp_path / "demos.jsonl")
        save_demos(store, path)
        stripped = load_demos(path, include_rewards=False)
        assert all(tr.rewards is None for tr in stripped.trajectories)
        assert all(tr.ret is None for tr in stripped.trajectories)

    def test_peak_memory_below_four_times_the_file(self, pm, tmp_path):
        # the bytes, their text and the list of lines are never all held
        store = generate_demos(pm, default_expert(pm), [0.0, 0.5], 10,
                               SeededRng(16))
        path = str(tmp_path / "demos.jsonl")
        save_demos(store, path)
        peak = traced_peak(lambda: load_demos(path))
        assert peak < 4 * os.path.getsize(path), peak

    def test_crlf_file_loads_the_same_arrays(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.0, 0.7], 2,
                               SeededRng(17))
        path = tmp_path / "demos.jsonl"
        save_demos(store, str(path))
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load_demos(str(path)), load_demos(str(crlf))
        assert a.env == b.env
        for x, y in zip(a.trajectories, b.trajectories):
            for field in ("states", "actions", "rewards", "terminals"):
                assert getattr(x, field).tobytes() == \
                    getattr(y, field).tobytes()
            assert (x.traj_id, x.noise_level, x.ret) == (
                y.traj_id, y.noise_level, y.ret)

    def test_bad_byte_on_a_late_line_names_it(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.3], 2,
                               SeededRng(18))
        path = tmp_path / "demos.jsonl"
        save_demos(store, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = b"\xc3" + lines[-1][1:]   # a cut 2-byte sequence
        path.write_bytes(b"".join(lines))
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"{path}:{len(lines)}: not UTF-8")):
            load_demos(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            load_demos(str(path))

    @pytest.mark.parametrize("steps,levels,bad_line", [
        ([0, 1, 1], [0.5] * 3, 4),           # a repeated record
        ([0, 2], [0.5] * 2, 3),              # a gap
        ([1, 2], [0.5] * 2, 2),              # no step 0
        ([2, 0, 1], [0.5, 0.5, 0.7], 4),     # the level changes at step 1
    ], ids=["repeat", "gap", "no_step_0", "level_changes"])
    def test_malformed_trajectory_rejected(self, tmp_path, steps, levels,
                                           bad_line):
        header = {"kind": "header", "format_version": 1, "state_dim": 1,
                  "action_dim": 1}
        recs = [{"traj_id": 0, "step": step, "s": [0.0], "a": [0.0],
                 "r": 0.0, "terminal": False, "noise_level": level}
                for step, level in zip(steps, levels)]
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in [header, *recs]))
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"{path}:{bad_line}:")):
            load_demos(str(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"kind": "header", "format_version": 99}\n')
        with pytest.raises(InvalidInputError):
            load_demos(str(path))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 3))
    def test_roundtrip_property(self, seed, n):
        import tempfile
        pm = make_env_spec("pointmass2d", horizon=5)
        store = generate_demos(pm, default_expert(pm), [0.0, 1.3], n,
                               SeededRng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/d{seed}_{n}.jsonl"
            save_demos(store, path, seed=seed)
            loaded = load_demos(path)
        for a, b in zip(store.trajectories, loaded.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)
