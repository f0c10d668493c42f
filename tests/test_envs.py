import dataclasses
import hashlib
import json
import math
import os
import random
import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smile.envs as envs
from smile.diffusion import build_schedule
from smile.envs import (DemoStore, EnvState, default_expert, env_reset,
                        env_step, expert_act, generate_demos, load_demos,
                        make_env_spec, rollout, rollout_batch_returns,
                        save_demos)
from smile.errors import ConfigError, EnvironmentFault, InvalidInputError
from smile.expertise import FilterConfig, filter_dataset
from smile.mathcore import SeededRng, derive_seed

from conftest import traced_kept, traced_peak, traj, trajs_of
from gauss_task import TablePolicy


# every registered environment, one point mass at each width
ENV_NAMES = sorted(envs.ENV_WIDTHS)


@pytest.fixture
def pm():
    return make_env_spec("pointmass2d")


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

    def test_hand_integrated_step(self, pm):
        # hand integration with dt=0.1, damping=0.05, goal=(1,1):
        # pos' = (0,0) + 0.1*(1,0) = (0.1, 0)
        # vel' = 0.95*(1,0) + 0.1*(0,0) = (0.95, 0)
        # r = -((0.1-1)^2 + (0-1)^2) = -(0.81 + 1) = -1.81
        state = EnvState(obs=np.array([0.0, 0.0, 1.0, 0.0]), t=0)
        new, r, done = env_step(pm, state, np.zeros(2))
        assert np.allclose(new.obs, [0.1, 0.0, 0.95, 0.0], atol=1e-15)
        assert r == pytest.approx(-1.81, abs=1e-12)

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
        assert acts.min() >= -envs.ACTION_BOUND
        assert acts.max() <= envs.ACTION_BOUND

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_gains_within_5pct_of_grid_best(self, name):
        # coarse grid-search oracle over PD gains, scored above the
        # random-policy floor; the envs share their dynamics, so their gains
        pm = make_env_spec(name)
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
            reached += np.linalg.norm(state.obs[:2] - envs.GOAL) < 0.05
        assert reached >= 190


class TestRollout:
    def test_shapes_and_clipped_actions(self):
        for name in ENV_NAMES:
            spec = make_env_spec(name)
            d = envs.ENV_WIDTHS[name]
            states, actions, rewards = rollout(
                spec, lambda o: np.full((len(o), d), 3.0), SeededRng(8), 5)
            assert states.shape == (spec.horizon, 5, 2 * d), name
            assert actions.shape == (spec.horizon, 5, d), name
            assert rewards.shape == (spec.horizon, 5), name
            assert (actions == envs.ACTION_BOUND).all(), name

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
        store = generate_demos(pm, ctrl, [0.0], 1, rng)
        spawn = SeededRng(derive_seed(rng.seed, "demo-spawn:0"))
        states, actions, rewards = rollout(
            pm, lambda o: expert_act(ctrl, pm, o), spawn, 1)
        assert store.states.tobytes() == states[:, 0].tobytes()
        assert store.actions.tobytes() == actions[:, 0].tobytes()
        assert store.rewards.tobytes() == rewards[:, 0].tobytes()
        assert store.rets == (float(rewards.sum()),)


class TestGenerateDemos:
    """The tests that depend on the width loop over every registered
    environment."""

    @staticmethod
    def generate(name, levels, per_level, seed):
        spec = make_env_spec(name)
        return generate_demos(spec, default_expert(spec), levels, per_level,
                              SeededRng(seed))

    def test_counts_and_provenance(self):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        for name in ENV_NAMES:
            store = self.generate(name, levels, 10, 6)
            d = envs.ENV_WIDTHS[name]
            assert store.num_trajectories == 50, name
            for lv in levels:
                assert sum(1 for row in store.rows if row[2] == lv) == 10
            assert store.states.shape == (50 * store.env.horizon, 2 * d)
            assert store.actions.shape == (50 * store.env.horizon, d)

    def test_level_zero_is_pure_expert(self):
        for name in ENV_NAMES:
            both = self.generate(name, [0.0, 0.5], 3, 7)
            only_zero = self.generate(name, [0.0], 3, 7)
            n = only_zero.transition_count
            assert only_zero.rows == both.rows[:3], name
            assert np.array_equal(only_zero.states, both.states[:n]), name
            assert np.array_equal(only_zero.actions, both.actions[:n]), name

    def test_returns_decrease_with_level(self):
        # empirical degradation analogue: Spearman's rho of level against
        # mean return <= -0.9. With 5 distinct means, rho = 1 - 6 S / 120,
        # S the sum of squared rank differences, so that is S >= 38 (at most
        # one swap of adjacent levels), checked in integers: at S = 38
        # spearmanr returns -0.8999999999999998
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        for name in ENV_NAMES:
            store = self.generate(name, levels, 10, 8)
            means = [np.mean([ret for row, ret in zip(store.rows, store.rets)
                              if row[2] == lv]) for lv in levels]
            assert len(set(means)) == 5, (name, means)
            d = np.argsort(np.argsort(means)) - np.arange(5)
            assert int(d @ d) >= 38, (name, means)

    def test_deterministic(self):
        for name in ENV_NAMES:
            a = self.generate(name, [0.0, 0.5], 2, 10)
            b = self.generate(name, [0.0, 0.5], 2, 10)
            assert a.rows == b.rows, name
            for x, y in zip(a.columns, b.columns):
                assert np.array_equal(x, y), name

    def test_negative_level_rejected(self, pm):
        with pytest.raises(InvalidInputError):
            generate_demos(pm, default_expert(pm), [-0.1], 1, SeededRng(0))

    def test_terminal_only_at_end(self):
        for name in ENV_NAMES:
            store = self.generate(name, [0.0], 2, 11)
            assert (np.flatnonzero(store.terminals) + 1).tolist() == list(
                store.bounds[1:]), name


class TestReturns:
    """A store's ``rets``: each trajectory's undiscounted return."""

    @staticmethod
    def rets(*rewards):
        return DemoStore.of([
            traj(np.zeros((len(r), 2)), np.zeros((len(r), 1)), tid=i,
                 rewards=r) for i, r in enumerate(rewards)]).rets

    def test_zero_rewards(self):
        assert self.rets([0.0, 0.0]) == (0.0,)

    def test_undiscounted_is_plain_sum(self):
        assert self.rets([1.0, -2.0, 0.5], [3.0]) == (
            pytest.approx(-0.5), 3.0)

    def test_missing_rewards(self):
        store = DemoStore.of([traj(np.zeros((2, 2)), np.zeros((2, 1))),
                              traj(np.zeros((1, 2)), np.zeros((1, 1)), tid=1,
                                   rewards=[1.0])])
        assert store.rets == (None, 1.0)

    @pytest.mark.parametrize("copy", [False, True])
    def test_returns_are_the_bits_of_each_episode_s_reward_sum(
            self, pm, tmp_path, monkeypatch, copy):
        # float(np.sum(r)) of the reward array each rollout returned, bit
        # for bit, also for the store read back from its copy:
        # np.add.reduceat over the column sums in another order and changes
        # 27 of these 50 returns
        episodes = []

        def recording(*args):
            out = rollout(*args)
            episodes.append(out[2][:, 0])
            return out

        monkeypatch.setattr(envs, "rollout", recording)
        store = generate_demos(pm, default_expert(pm),
                               list(envs.DEFAULT_NOISE_LEVELS), 10,
                               SeededRng(31))
        if copy:
            path = str(tmp_path / "demos.jsonl")
            save_demos(store, path)
            load_demos(path)                       # the parse writes it
            monkeypatch.setattr(envs, "_parse_demos", None)
            store = load_demos(path)
        assert len(episodes) == len(store.rets) == 50
        assert np.asarray(store.rets).tobytes() == np.asarray(
            [float(np.sum(r)) for r in episodes]).tobytes()


class TestDemoStore:
    def test_duplicate_ids_rejected(self, pm):
        store = generate_demos(pm, default_expert(pm), [0.0], 2, SeededRng(1))
        first, second = store.rows
        with pytest.raises(InvalidInputError, match="unique"):
            DemoStore(store.columns, [first, (first[0], *second[1:])])

    def test_sample_shapes_and_reward_free(self, pm):
        store = generate_demos(pm, default_expert(pm), [0.0], 2, SeededRng(1))
        s, a = store.sample(SeededRng(2), 32)
        assert s.shape == (32, 4) and a.shape == (32, 2)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            DemoStore.of([]).sample(SeededRng(0), 4)


class TestDemoFile:
    def test_roundtrip_bit_exact(self, pm, tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.0, 0.7], 2,
                               SeededRng(12))
        path = str(tmp_path / "demos.jsonl")
        save_demos(store, path, seed=12)
        loaded = load_demos(path)
        assert loaded.env.name == pm.name
        assert (loaded.rows, loaded.rets) == (store.rows, store.rets)
        for a, b in zip(store.columns, loaded.columns):
            assert np.array_equal(a, b)

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
        assert np.array_equal(loaded.states, store.states)

    def test_a_save_that_raises_midway_keeps_the_old_file(self, pm,
                                                          tmp_path):
        store = generate_demos(pm, default_expert(pm), [0.0, 0.5], 2,
                               SeededRng(19))
        path = tmp_path / "demos.jsonl"
        save_demos(store, str(path))
        before = path.read_bytes()
        # not JSON: the save fails at the third trajectory's first line
        store = DemoStore(store.columns, [
            (tid, n, object() if i == 2 else level, had_rewards)
            for i, (tid, n, level, had_rewards) in enumerate(store.rows)],
            store.env)
        with pytest.raises(TypeError):
            save_demos(store, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["demos.jsonl"]

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
        assert [row[3] for row in stripped.rows] == [False]
        assert stripped.rets == (None,)
        assert not stripped.rewards.any()

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
        for x, y in zip(a.columns, b.columns, strict=True):
            assert x.tobytes() == y.tobytes()
        assert (a.rows, a.rets) == (b.rows, b.rets)

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

    @pytest.mark.parametrize("levels,action,named", [
        ([0.5, 0.7, 0.7, 0.7], 0.0,
         "3: noise_level 0.7 differs from 0.5 earlier in trajectory 0"),
        ([0.5] * 4, math.inf, "2: non-finite value in trajectory 0"),
    ], ids=["level_on_line_3", "non_finite_on_line_2"])
    def test_a_trajectory_names_its_earliest_fault(self, tmp_path, levels,
                                                   action, named):
        # step 2 repeats on line 5, after the fault each case puts earlier
        header = {"kind": "header", "format_version": 1, "state_dim": 1,
                  "action_dim": 1}
        recs = [{"traj_id": 0, "step": step, "s": [0.0],
                 "a": [action if line == 2 else 0.0], "r": 0.0,
                 "terminal": False, "noise_level": level}
                for line, step, level in zip((2, 3, 4, 5), (0, 1, 2, 2),
                                             levels)]
        path = tmp_path / "two.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in [header, *recs]))
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"{path}:{named}")):
            load_demos(str(path))

    def test_the_earliest_fault_of_any_trajectory_is_named(self, tmp_path):
        # trajectory 0 is on lines 2, 5 and 6 and repeats step 1 on line 6;
        # trajectory 1 is on lines 3 and 4 and repeats step 0 on line 4
        header = {"kind": "header", "format_version": 1, "state_dim": 1,
                  "action_dim": 1}
        recs = [{"traj_id": tid, "step": step, "s": [0.0], "a": [0.0],
                 "r": 0.0, "terminal": False, "noise_level": 0.5}
                for tid, step in ((0, 0), (1, 0), (1, 0), (0, 1), (0, 1))]
        path = tmp_path / "six.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in [header, *recs]))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}:4: trajectory 1 has step 0 where step 1 belongs")):
            load_demos(str(path))

    def test_a_width_error_names_the_trajectory_s_first_line(self,
                                                             tmp_path):
        # step 1 comes first in the file, on line 2, and step 0 on line 3
        header = {"kind": "header", "format_version": 1, "state_dim": 1,
                  "action_dim": 1}
        recs = [{"traj_id": 0, "step": step, "s": [0.0, 0.0], "a": [0.0],
                 "r": 0.0, "terminal": False, "noise_level": 0.5}
                for step in (1, 0)]
        path = tmp_path / "wide.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in [header, *recs]))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}:2: trajectory 0 has states (2, 2)")):
            load_demos(str(path))

    @pytest.mark.parametrize("steps", [[0, 1, 2, 3], [3, 0, 2, 1]],
                             ids=["in_order", "shuffled"])
    def test_trajectory_past_the_header_horizon_rejected(self, tmp_path,
                                                         steps):
        # the line named is that of step 2, the first past horizon 2
        header = {"kind": "header", "format_version": 1, "env": None,
                  "state_dim": 1, "action_dim": 1, "horizon": 2}
        recs = [{"traj_id": 0, "step": step, "s": [0.0], "a": [0.0],
                 "r": 0.0, "terminal": False, "noise_level": 0.5}
                for step in steps]
        path = tmp_path / "long.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in [header, *recs]))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}:4: trajectory 0 has step 2, past the header's "
                f"horizon 2")):
            load_demos(str(path))
        # steps 0 and 1 alone fill the horizon, and load
        path.write_text("".join(json.dumps(r) + "\n" for r in [
            header, *(rec for rec in recs if rec["step"] < 2)]))
        assert len(load_demos(str(path)).states) == 2

    def test_demos_saved_under_a_shorter_horizon_rejected(self, tmp_path):
        # a horizon-5 store whose file header says horizon 3: the first
        # trajectory's step 3 sits on line 1 + 3 + 1
        spec = make_env_spec("pointmass2d", horizon=5)
        store = generate_demos(spec, default_expert(spec), [0.0, 0.5], 2,
                               SeededRng(19))
        store.env = make_env_spec("pointmass2d", horizon=3)
        path = tmp_path / "demos.jsonl"
        save_demos(store, str(path))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}:5: trajectory 0 has step 3, past the header's "
                f"horizon 3")):
            load_demos(str(path))
        assert not os.path.exists(f"{path}.store")

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
        assert loaded.rows == store.rows
        for a, b in zip(store.columns, loaded.columns):
            assert np.array_equal(a, b)


def fingerprint(store: DemoStore):
    """Every field of a loaded store, columns as dtype, shape and bytes and
    each row with its noise level's Python type."""
    return (store.env, [(a.dtype.str, a.shape, a.tobytes())
                        for a in store.columns],
            [(*row, type(row[2])) for row in store.rows], store.rets)


def outcome(path: str, include_rewards: bool = True, env=None):
    """What a load of ``path`` under ``env`` returns or raises, comparable
    with ==."""
    try:
        return fingerprint(load_demos(path, include_rewards, env=env))
    except InvalidInputError as exc:
        return f"raised {exc}"


def demo_file(pm, tmp_path, case: str) -> str:
    """A demo file of one kind the copy must rebuild exactly."""
    store = generate_demos(pm, default_expert(pm), [0.0, 0.6, 1.0], 2,
                           SeededRng(41))
    path = tmp_path / "demos.jsonl"
    if case == "envless_null_rewards":
        store = DemoStore.of([
            (row, states, actions, None if i in (0, 3) else rewards, ends)
            for i, (row, states, actions, rewards, ends)
            in enumerate(trajs_of(store))])
    if case == "int_levels":
        store = DemoStore.of([((tid, int(level)), *arrays)
                              for (tid, level), *arrays in trajs_of(store)],
                             store.env)
    save_demos(store, str(path), seed=41)
    if case == "crlf":
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    if case == "shuffled":
        head, *records = path.read_bytes().splitlines(keepends=True)
        random.Random(41).shuffle(records)
        path.write_bytes(head + b"".join(records))
    if case == "blank_lines_first":   # the header on line 3
        path.write_bytes(b"\n \n" + path.read_bytes())
    return str(path)


def filter_every_other_segment(store: DemoStore):
    """(the store a filter pass over ``store`` keeps, a mask of its rows):
    a denoiser that predicts the noise (1, 0) everywhere, and references
    sigma_5 off the actions in every other 25-row segment, so those
    segments score step 5 and are kept, the others 0."""
    sched = build_schedule(10, 0.05, 0.6)
    model = SimpleNamespace(sched=sched, predict=lambda s, a, t:
                            np.broadcast_to([1.0, 0.0], a.shape))
    steps = 5 * (np.arange(len(store.actions)) // 25 % 2)
    refs = store.actions + np.outer(sched.sigmas[steps], [1.0, 0.0])
    _, filtered = filter_dataset(store, model,
                                 TablePolicy(store.states, refs),
                                 FilterConfig(min_demos=1, max_demo_len=25))
    return filtered, steps == 5


class TestStoreCopy:
    """The binary copy load_demos keeps beside each demo file it parsed."""

    @staticmethod
    def parse_only(monkeypatch):
        """Make every load parse, as if it found no copy; it still writes
        one."""
        monkeypatch.setattr(envs, "_read_copy",
                            lambda path, source, env: None)

    @pytest.mark.parametrize("case", [
        "generated", "envless_null_rewards", "int_levels", "crlf",
        "shuffled", "blank_lines_first"])
    def test_a_hit_returns_the_parsed_store(self, pm, tmp_path, monkeypatch,
                                            case):
        path = demo_file(pm, tmp_path, case)
        # each load without rewards and with, then with rewards under the
        # file's own env and under another env, which the file does not fit
        loads = [(True, None), (False, None), (True, pm),
                 (True, make_env_spec("double_integrator_1d"))]

        def outcomes():
            return [outcome(path, flag, env) for flag, env in loads]

        with monkeypatch.context() as m:
            self.parse_only(m)
            parsed = outcomes()
        # written by a load that strips rewards, the copy still holds them
        os.remove(path + ".store")
        load_demos(path, include_rewards=False)
        with monkeypatch.context() as m:
            m.setattr(envs, "_parse_demos", None)   # a hit never parses
            hit = outcomes()
        assert hit == parsed
        env, _, rows, rets = parsed[0]
        levels = {type(row[2]) for row in rows}
        assert levels == ({int} if case == "int_levels" else {float})
        if case == "envless_null_rewards":
            assert env is None
            assert [ret is None for ret in rets] == [
                not row[3] for row in rows] == [
                True, False, False, True, False, False]
        _, _, rows, rets = parsed[1]
        assert not any(row[3] for row in rows) and set(rets) == {None}
        # under the run's env the store is of that env, the null-env file's
        # too; a file the env does not fit is refused at its header's line,
        # which the copy keeps
        assert parsed[2] == (pm, *parsed[0][1:])
        head = 3 if case == "blank_lines_first" else 1
        assert parsed[3].startswith(f"raised {path}:{head}: "), parsed[3]

    def test_the_key_covers_the_loader_source_and_the_file_bytes(
            self, pm, tmp_path):
        path = demo_file(pm, tmp_path, "crlf")
        load_demos(path)
        with open(envs.__file__, "rb") as fh:
            key = hashlib.sha256(fh.read() + open(path, "rb").read())
        copy = open(path + ".store", "rb").read()
        assert copy[8:40] == key.digest()
        assert copy[-32:] == hashlib.sha256(copy[:-32]).digest()

    @pytest.mark.parametrize("edit", [
        "flip_to_error", "flip_to_other_value", "cut_mid_line",
        "cut_at_line", "append_record", "append_garbage", "blank_line"])
    def test_a_changed_file_loads_as_with_no_copy(self, pm, tmp_path,
                                                  monkeypatch, edit):
        path = demo_file(pm, tmp_path, "generated")
        before = outcome(path)
        data = open(path, "rb").read()
        lines = data.splitlines(keepends=True)
        if edit == "flip_to_error":
            data = data.replace(b'"step"', b'"stop"', 1)
        elif edit == "flip_to_other_value":
            # the first decimal of line 2's first state entry, one up
            at = len(lines[0]) + lines[1].index(
                b".", lines[1].index(b'"s": [')) + 1
            digit = int(data[at:at + 1])
            data = data[:at] + b"%d" % ((digit + 1) % 10) + data[at + 1:]
        elif edit == "cut_mid_line":
            data = data[:len(data) - 40]
        elif edit == "cut_at_line":
            data = b"".join(lines[:-7])
        elif edit == "append_record":
            rec = json.loads(lines[-1])
            rec.update(traj_id=99, step=0)
            data += json.dumps(rec).encode() + b"\n"
        elif edit == "append_garbage":
            data += b"{not json\n"
        else:
            data += b"\n"
        open(path, "wb").write(data)
        with_copy = outcome(path)
        self.parse_only(monkeypatch)
        assert with_copy == outcome(path)
        if edit in ("flip_to_error", "cut_mid_line", "append_garbage"):
            assert with_copy.startswith(f"raised {path}:")
        else:   # a blank line changes the bytes but not the store
            assert (with_copy == before) == (edit == "blank_line")

    @pytest.mark.parametrize("fault", [
        "missing", "empty", "truncated", "flipped_array_byte",
        "flipped_checksum", "other_loader_source", "copy_of_another_file"])
    def test_a_bad_copy_is_parsed_around_and_rewritten(
            self, pm, tmp_path, monkeypatch, fault):
        path = demo_file(pm, tmp_path, "generated")
        copy = path + ".store"
        with monkeypatch.context() as m:
            self.parse_only(m)
            expected = outcome(path)
        load_demos(path)
        good = open(copy, "rb").read()
        if fault == "missing":
            os.remove(copy)
        elif fault == "empty":
            open(copy, "wb").close()
        elif fault == "truncated":
            open(copy, "wb").write(good[:len(good) // 2])
        elif fault in ("flipped_array_byte", "flipped_checksum"):
            at = len(good) // 2 if fault == "flipped_array_byte" else -1
            bad = bytearray(good)
            bad[at] ^= 0x10
            open(copy, "wb").write(bad)
        elif fault == "other_loader_source":
            os.remove(copy)
            with monkeypatch.context() as m:
                m.setattr(envs, "_source_hash",
                          lambda: hashlib.sha256(b"other loader"))
                load_demos(path)
        else:
            (tmp_path / "other").mkdir()
            other = demo_file(pm, tmp_path / "other", "shuffled")
            load_demos(other)
            os.replace(other + ".store", copy)
        parses = []
        real = envs._parse_demos
        monkeypatch.setattr(envs, "_parse_demos", lambda *a: (
            parses.append(a[0]), real(*a))[1])
        assert outcome(path) == expected
        assert parses == [path]
        assert outcome(path) == expected   # from the rewritten copy
        assert parses == [path]

    def test_no_copy_where_none_can_be_written(self, pm, tmp_path,
                                               monkeypatch):
        path = demo_file(pm, tmp_path, "generated")
        with monkeypatch.context() as m:
            self.parse_only(m)
            expected = outcome(path)
        # a directory in the copy's place: the write fails, the load not
        os.remove(path + ".store")
        os.mkdir(path + ".store")
        assert outcome(path) == expected
        assert os.listdir(tmp_path) == ["demos.jsonl", "demos.jsonl.store"]
        os.rmdir(path + ".store")

        def denied(*args):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(envs, "atomic_write", denied)
        assert outcome(path) == expected
        assert os.listdir(tmp_path) == ["demos.jsonl"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_a_pipe_is_parsed_and_gets_no_copy(self, pm, tmp_path):
        path = demo_file(pm, tmp_path, "generated")
        expected = outcome(path)
        fifo = str(tmp_path / "fifo.jsonl")
        os.mkfifo(fifo)
        # a copy beside the pipe, of another file: hashing the pipe against
        # it would consume the bytes the parse needs
        (tmp_path / "b").mkdir()
        other = demo_file(pm, tmp_path / "b", "shuffled")
        load_demos(other)
        os.replace(other + ".store", fifo + ".store")
        stale = open(fifo + ".store", "rb").read()
        data = open(path, "rb").read()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)
        got = []
        threads = [threading.Thread(target=feed, daemon=True),
                   threading.Thread(target=lambda: got.append(outcome(fifo)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        # a load that opened the pipe twice would wait for a second writer
        assert not any(thread.is_alive() for thread in threads)
        assert got == [expected]
        assert open(fifo + ".store", "rb").read() == stale   # not rewritten

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs a directory the user cannot write")
    def test_read_only_directory_loads_with_no_copy(self, pm, tmp_path):
        path = demo_file(pm, tmp_path, "generated")
        os.chmod(tmp_path, 0o555)
        try:
            store = load_demos(path)
            assert os.listdir(tmp_path) == ["demos.jsonl"]
        finally:
            os.chmod(tmp_path, 0o755)
        assert fingerprint(store) == fingerprint(load_demos(path))

    def test_a_file_replaced_during_the_parse_keys_the_bytes_parsed(
            self, pm, tmp_path, monkeypatch):
        # the parse reads one open file to its end and hashes what it read,
        # so the copy is keyed by the bytes it came from, not by whatever
        # the path holds once the parse is done
        path = demo_file(pm, tmp_path, "generated")
        (tmp_path / "b").mkdir()
        other = demo_file(pm, tmp_path / "b", "shuffled")
        os.replace(other, other + ".new")
        with monkeypatch.context() as m:
            self.parse_only(m)
            first, second = outcome(path), outcome(other + ".new")
        os.remove(path + ".store")
        real = envs._demo_lines

        def swapped_midway(p, digest):
            lines = real(p, digest)
            yield next(lines)
            os.replace(other + ".new", path)
            yield from lines
        with monkeypatch.context() as m:
            m.setattr(envs, "_demo_lines", swapped_midway)
            assert outcome(path) == first
        assert outcome(path) == second
        assert outcome(path) == second

    @staticmethod
    def audit_sized_file(tmp_path) -> str:
        """A demo file of the audit's store size: 250 trajectories of 100
        steps, 25,000 transitions."""
        rng = SeededRng(42)
        trajectories = []
        for tid in range(250):
            trajectories.append(traj(
                rng.standard_normal((100, 4)), rng.standard_normal((100, 2)),
                tid=tid, level=0.25 * (tid % 5),
                rewards=rng.standard_normal(100)))
        path = str(tmp_path / "demos.jsonl")
        save_demos(DemoStore.of(trajectories, env=make_env_spec()), path)
        return path

    def test_a_hit_holds_a_fraction_of_the_parse_s_memory(self, tmp_path):
        path = self.audit_sized_file(tmp_path)
        parse = traced_peak(lambda: load_demos(path))
        hit = traced_peak(lambda: load_demos(path))
        assert hit < parse / 4, (hit, parse)

    def test_each_transition_is_held_once(self, pm, tmp_path, monkeypatch):
        # a parse and a hit of the audit's store size keep at most 1.8 MB:
        # the four columns are 1.43 MB, and a second copy of the states and
        # actions would be another 1.2 MB
        path = self.audit_sized_file(tmp_path)
        parse_kept, parsed = traced_kept(lambda: load_demos(path))
        with monkeypatch.context() as m:
            m.setattr(envs, "_parse_demos", None)   # a hit never parses
            hit_kept, hit = traced_kept(lambda: load_demos(path))
        assert max(parse_kept, hit_kept) <= 1.8e6, (parse_kept, hit_kept)
        generated = generate_demos(pm, default_expert(pm), [0.0, 1.0], 2,
                                   SeededRng(43))
        noisy = generate_demos(pm, default_expert(pm), [0.5], 3,
                               SeededRng(44))
        filtered, kept = filter_every_other_segment(noisy)
        assert np.array_equal(filtered.states, noisy.states[kept])
        for store in (generated, parsed, hit, filtered):
            columns = (store.states, store.actions, store.rewards,
                       store.terminals)
            assert all(column.flags.c_contiguous for column in columns)
            assert store.bounds[-1] == len(store.states)

    def test_every_way_to_build_a_store_gives_read_only_columns(
            self, pm, tmp_path, monkeypatch):
        generated = generate_demos(pm, default_expert(pm), [0.0, 0.5], 3,
                                   SeededRng(45))
        path = str(tmp_path / "demos.jsonl")
        save_demos(generated, path)
        with monkeypatch.context() as m:
            self.parse_only(m)
            parsed, parsed_stripped = [load_demos(path, flag)
                                       for flag in (True, False)]
        read, hits = envs._read_copy, []
        with monkeypatch.context() as m:
            m.setattr(envs, "_parse_demos", None)   # a hit never parses
            m.setattr(envs, "_read_copy",
                      lambda *args: hits.append(read(*args)) or hits[-1])
            hit, hit_stripped = [load_demos(path, flag)
                                 for flag in (True, False)]
        # a load without rewards builds a new store over the hit's arrays,
        # and the hit's own rewards are left as the file has them
        assert hits[0] is hit and hits[1] is not hit_stripped
        for name in ("states", "actions", "terminals"):
            assert getattr(hit_stripped, name) is getattr(hits[1], name)
        assert np.array_equal(hits[1].rewards, generated.rewards)
        for store in (parsed_stripped, hit_stripped):
            assert not store.rewards.any()
            assert not any(row[3] for row in store.rows)
            assert set(store.rets) == {None}
        filtered, _ = filter_every_other_segment(generated)
        for store in (generated, parsed, hit, parsed_stripped, hit_stripped,
                      filtered, DemoStore.of(trajs_of(generated))):
            columns = (store.states, store.actions, store.rewards,
                       store.terminals)
            assert not any(column.flags.writeable for column in columns)
            with pytest.raises(ValueError, match="read-only"):
                store.states[0, 0] = 0.0
