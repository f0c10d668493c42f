import csv
import os

import numpy as np
import pytest

import smile.trainer as trainer_mod
from smile.diffusion import NoiseModel, build_schedule, diffuse
from smile.envs import default_expert, expert_act, generate_demos, \
    make_env_spec, rollout_batch_returns
from smile.errors import ConfigError, InvalidInputError, TrainingError
from smile.expertise import FilterConfig, q_curve_matrix, score_dataset
from smile.mathcore import SeededRng
from smile.policy import GeneratorPolicy
from smile.trainer import (CSV_COLUMNS, TrainConfig, audit_bins,
                           bench_reverse, evaluate, snapshot_policy, train,
                           train_bc)

from gauss_task import (GaussianTask, OracleDenoiser, TablePolicy,
                        denoiser_loss_floor, make_store)


def check_metrics_csv(path, rows):
    """metrics.csv at ``path`` has the CSV_COLUMNS header and one line per
    row of ``rows``: an empty cell where a row has no value, else a cell
    whose float is the value exactly."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        lines = list(reader)
    assert tuple(reader.fieldnames) == CSV_COLUMNS
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        for col in CSV_COLUMNS:
            if col in row:
                assert float(line[col]) == row[col]
            else:
                assert line[col] == ""


def tiny_cfg(**kw):
    base = dict(batch_size=32, transition_budget=32 * 30, hidden=(16, 16),
                eval_every=0, filtering=False, ema_warmup_steps=20)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def gauss_store():
    task = GaussianTask(seed=1, state_dim=3, action_dim=2)
    return make_store(task, SeededRng(2), n_traj=12, traj_len=25)


class TestTrainLoop:
    def test_smoke_denoiser_loss_halves(self):
        # scripted run on the analytic task: after 2000 iterations the
        # denoiser loss's excess over its closed-form floor (the loss of the
        # exact eps*, 0.915 under l1 here) is at most half of its excess in
        # the first 100 iterations. The raw loss cannot halve: half of the
        # early mean lies below the floor under either norm.
        task = GaussianTask(seed=3, state_dim=3, action_dim=2)
        store = make_store(task, SeededRng(4), n_traj=40, traj_len=50)
        cfg = tiny_cfg(batch_size=128, transition_budget=128 * 2000,
                       hidden=(32, 32))
        result = train(cfg, store, SeededRng(5))
        losses = [r["denoiser_loss"] for r in result.metrics.rows]
        early = np.mean(losses[:100])
        late = np.mean(losses[-100:])
        floor = denoiser_loss_floor(task, result.sched, cfg.loss_norm)
        assert late - floor <= 0.5 * (early - floor)

    def test_identical_seed_identical_metrics(self, tmp_path):
        task = GaussianTask(seed=6, state_dim=3, action_dim=2)
        csv = []
        for run in range(2):
            store = make_store(task, SeededRng(7), n_traj=8, traj_len=20)
            out = str(tmp_path / f"run{run}")
            train(tiny_cfg(), store, SeededRng(8), out_dir=out)
            csv.append(open(os.path.join(out, "metrics.csv"), "rb").read())
        assert csv[0] == csv[1]

    def test_transition_accounting_crosses_budget_once(self, gauss_store):
        cfg = tiny_cfg(batch_size=32, transition_budget=1000)
        result = train(cfg, gauss_store, SeededRng(9))
        iters = result.metrics.rows[-1]["iteration"]
        assert iters == 32  # ceil(1000 / 32): halts at first crossing
        assert result.metrics.counters["transitions_consumed"] == 32 * 32
        assert result.metrics.rows[-1]["transitions"] == 32 * 32

    def test_update_asymmetry_counters(self, gauss_store):
        cfg = tiny_cfg(denoiser_optimize_every=10, policy_optimize_every=2)
        result = train(cfg, gauss_store, SeededRng(10))
        c = result.metrics.counters
        assert c["denoiser_grad_evals"] / c["policy_grad_evals"] == 10 / 2
        assert c["denoiser_optimizer_steps"] == c["policy_optimizer_steps"]

    def test_no_filter_leaves_store_untouched(self, gauss_store):
        ids_before = [tr.traj_id for tr in gauss_store.trajectories]
        result = train(tiny_cfg(filtering=False), gauss_store, SeededRng(11))
        assert result.metrics.counters["filter_passes"] == 0
        assert [tr.traj_id for tr in result.store.trajectories] == ids_before
        assert result.filter_reports == []

    def test_filter_uses_ema_snapshots(self, gauss_store, monkeypatch):
        captured = {}
        real = trainer_mod.filter_dataset

        def spy(store, model, policy, cfg, sched, iteration=None):
            captured["model"] = [p.copy() for p in model.params()]
            captured["policy"] = [p.copy() for p in policy.params()]
            return real(store, model, policy, cfg, sched,
                        iteration=iteration)

        monkeypatch.setattr(trainer_mod, "filter_dataset", spy)
        n_iters = 20
        cfg = tiny_cfg(batch_size=32, transition_budget=32 * n_iters,
                       filtering=True, update_ema_every=1,
                       ema_warmup_steps=1)
        cfg.filter = FilterConfig(filter_every=n_iters, min_demos=1,
                                  step_threshold=0, max_demo_len=25)
        result = train(cfg, gauss_store, SeededRng(12))
        # filter fired on the last iteration, right after an EMA update:
        # the scored parameters must be the EMA shadow, not the live ones
        for got, ema in zip(captured["model"],
                            result.ema_noise_model.params()):
            assert np.array_equal(got, ema)
        for got, live in zip(captured["model"], result.noise_model.params()):
            assert not np.array_equal(got, live)
        for got, ema in zip(captured["policy"], result.ema_policy.params()):
            assert np.array_equal(got, ema)

    def test_filter_pass_records_and_stop_flag(self, gauss_store):
        cfg = tiny_cfg(filtering=True)
        # min_demos exceeds the segment count: first pass must set the stop
        # flag, keep everything, and later passes must be skipped
        cfg.filter = FilterConfig(filter_every=10, min_demos=100,
                                  step_threshold=10, max_demo_len=25)
        result = train(cfg, gauss_store, SeededRng(13))
        assert len(result.filter_reports) == 1
        assert result.filter_reports[0].stop_filtering
        assert result.store.num_trajectories == 12

    def test_non_finite_loss_aborts_with_diagnostics(self, gauss_store,
                                                     tmp_path, monkeypatch):
        def bad_loss(model, s, a, sched, rng):
            return float("nan"), np.zeros_like(model.flat)

        monkeypatch.setattr(trainer_mod, "denoiser_loss", bad_loss)
        out = str(tmp_path / "run")
        with pytest.raises(TrainingError, match="non-finite"):
            train(tiny_cfg(), gauss_store, SeededRng(14), out_dir=out)
        assert os.path.exists(os.path.join(out, "diagnostic_denoiser.json"))
        assert os.path.exists(os.path.join(out, "diagnostic_generator.json"))

    def test_artifacts_written(self, gauss_store, tmp_path):
        out = str(tmp_path / "run")
        result = train(tiny_cfg(), gauss_store, SeededRng(15), out_dir=out)
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "denoiser.json"))
        assert os.path.exists(os.path.join(out, "generator.json"))
        check_metrics_csv(os.path.join(out, "metrics.csv"),
                          result.metrics.rows)

    def test_empty_store_rejected(self):
        from smile.envs import DemoStore
        with pytest.raises(InvalidInputError):
            train(tiny_cfg(), DemoStore([]), SeededRng(0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_cfg(batch_size=0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(transition_budget=1).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(loss_norm="l3").validate()
        with pytest.raises(ConfigError):
            TrainConfig(filter=FilterConfig(step_threshold=99)).validate()


class TestEvaluate:
    def setup_method(self):
        self.spec = make_env_spec("pointmass2d")
        self.ctrl = default_expert(self.spec)

    class _Wrap:
        def __init__(self, fn):
            self.fn = fn

        def act_clipped(self, obs):
            return self.fn(obs)

    def _expert_policy(self):
        return self._Wrap(lambda o: expert_act(self.ctrl, self.spec, o))

    def test_expert_matches_recorded_baseline(self):
        expert = self._expert_policy()
        mean, std = evaluate(expert, self.spec, 200, SeededRng(200))
        # same seed: evaluate is exactly the rollout mean and std
        same = rollout_batch_returns(self.spec, expert.act_clipped,
                                     SeededRng(200), 200)
        assert (mean, std) == (same.mean(), same.std())
        assert std > 0
        # oracle baseline computed with an independent seed: the two
        # 200-episode means differ within 4 standard errors of their
        # difference, taken from the two samples' own spreads
        baseline = rollout_batch_returns(self.spec, expert.act_clipped,
                                         SeededRng(100), 200)
        se = np.sqrt(baseline.var(ddof=1) / len(baseline)
                     + same.var(ddof=1) / len(same))
        assert abs(mean - baseline.mean()) <= 4 * se

    def test_zero_policy_below_expert(self):
        zero = self._Wrap(lambda o: np.zeros((len(o), 2)))
        z_mean, _ = evaluate(zero, self.spec, 50, SeededRng(300))
        e_mean, _ = evaluate(self._expert_policy(), self.spec, 50,
                             SeededRng(300))
        assert z_mean < e_mean

    def test_single_episode_zero_std(self):
        _, std = evaluate(self._expert_policy(), self.spec, 1, SeededRng(1))
        assert std == 0.0

    def test_bad_episode_count(self):
        with pytest.raises(InvalidInputError):
            evaluate(self._expert_policy(), self.spec, 0, SeededRng(1))


class TestAuditBins:
    def _setup(self, sched, max_demo_len=100, refs=None):
        """Store with returns 0, 10, ..., 50 and score_dataset's records of
        it under an oracle denoiser and a table policy (default: the store's
        own actions)."""
        task = GaussianTask(seed=20, action_dim=2)
        rng = SeededRng(21)
        store = make_store(task, rng, n_traj=6, traj_len=10)
        for i, tr in enumerate(store.trajectories):
            tr.ret = float(i * 10)
        states, actions = store.sample_all()
        policy = TablePolicy(states, actions if refs is None else refs)
        records, _ = score_dataset(
            store, OracleDenoiser(task, sched), policy,
            FilterConfig(min_demos=1, max_demo_len=max_demo_len), sched)
        return store, records

    def test_single_bin_covers_all(self, sched):
        store, records = self._setup(sched)
        rows = audit_bins(store, records, [-1.0, 100.0])
        assert len(rows) == 1
        assert rows[0]["count"] == 6

    def test_empty_bins_absent(self, sched):
        store, records = self._setup(sched)
        rows = audit_bins(store, records, [-100.0, -50.0, 0.0, 50.0, 100.0])
        # no returns in [-100, -50) or [-50, 0): those rows are absent
        assert [(r["bin_lo"], r["count"]) for r in rows] == [
            (0.0, 5), (50.0, 1)]

    def test_split_trajectory_scores_as_a_whole(self, sched):
        # segments of 3, 3, 3 and 1 transitions: the length-weighted mean of
        # their curves is the whole trajectory's mean-Q curve. References
        # are the actions diffused 0..5 steps, so the steps differ.
        _, actions = self._setup(sched)[0].sample_all()
        t_rows = np.repeat(np.arange(6), 10)
        refs = diffuse(actions, t_rows, sched,
                       SeededRng(22).standard_normal(actions.shape))
        store, records = self._setup(sched, max_demo_len=3, refs=refs)
        assert len(records) == 4 * store.num_trajectories
        oracle = OracleDenoiser(GaussianTask(seed=20, action_dim=2), sched)
        # one bin per trajectory, so each row's mean step is one step
        rows = audit_bins(store, records, np.arange(-5.0, 60.0, 10.0))
        steps = [int(np.argmax(q_curve_matrix(
                     oracle, tr.states, tr.actions, refs[10 * i:10 * i + 10],
                     sched).mean(axis=1)))
                 for i, tr in enumerate(store.trajectories)]
        assert [row["mean_step"] for row in rows] == steps
        assert len(set(steps)) > 1

    def test_empty_store_rejected(self, sched):
        from smile.envs import DemoStore
        with pytest.raises(InvalidInputError):
            audit_bins(DemoStore([]), [], [0, 1])

    def test_missing_returns_rejected(self, sched):
        store, records = self._setup(sched)
        store.trajectories[0].ret = None
        with pytest.raises(InvalidInputError):
            audit_bins(store, records, [-1.0, 100.0])

    def test_bad_edges_rejected(self, sched):
        store, records = self._setup(sched)
        with pytest.raises(InvalidInputError):
            audit_bins(store, records, [1.0, 1.0])


class TestBench:
    def test_single_step_schedule_ratio_near_one(self):
        spec = make_env_spec("pointmass2d")
        sched = build_schedule(1, 0.3, 0.3)
        model = NoiseModel(4, 2, 1, SeededRng(1), hidden=(16, 16))
        policy = GeneratorPolicy(4, 2, SeededRng(2), hidden=(16, 16))
        out = bench_reverse(model, policy, spec, sched, trials=400,
                            rng=SeededRng(3))
        assert 0.3 < out["latency_ratio"] < 2.5
        assert out["trials"] == 400

    def test_reports_all_fields(self, sched):
        spec = make_env_spec("pointmass2d")
        model = NoiseModel(4, 2, sched.T, SeededRng(1), hidden=(8,))
        policy = GeneratorPolicy(4, 2, SeededRng(2), hidden=(8,))
        out = bench_reverse(model, policy, spec, sched, trials=50,
                            rng=SeededRng(3))
        assert {"one_step_s_per_1000", "naive_s_per_1000", "latency_ratio",
                "mean_abs_discrepancy"} <= set(out)
        assert out["mean_abs_discrepancy"] >= 0


class TestBc:
    def test_bc_runs_and_snapshot_acts(self, gauss_store):
        cfg = tiny_cfg()
        snap, live, metrics = train_bc(cfg, gauss_store, SeededRng(30))
        assert metrics.rows[-1]["iteration"] == cfg.num_iterations
        s, _ = gauss_store.sample(SeededRng(31), 4)
        assert snap.act(s).shape == (4, 2)
        assert snap.role == "bc"

    def test_bc_loss_decreases(self, gauss_store):
        cfg = tiny_cfg(batch_size=64, transition_budget=64 * 400)
        _, _, metrics = train_bc(cfg, gauss_store, SeededRng(32))
        losses = [r["policy_loss"] for r in metrics.rows]
        assert np.mean(losses[-50:]) < 0.5 * np.mean(losses[:50])


def test_trained_networks_are_float32(gauss_store):
    result = train(tiny_cfg(), gauss_store, SeededRng(33))
    snap, live, _ = train_bc(tiny_cfg(), gauss_store, SeededRng(34))
    for net in (result.noise_model, result.policy, result.ema_noise_model,
                result.ema_policy, snap, live):
        assert net.flat.dtype == np.float32
        assert net.arch()["dtype"] == "float32"


class TestMetricsLog:
    def test_csv_format_and_monotone_iterations(self, tmp_path):
        spec = make_env_spec("pointmass2d")
        store = generate_demos(spec, default_expert(spec), [0.0], 2,
                               SeededRng(16))
        out = str(tmp_path / "run")
        _, _, log = train_bc(tiny_cfg(transition_budget=32 * 20,
                                      eval_every=10, eval_episodes=2),
                             store, SeededRng(17), out_dir=out)
        path = os.path.join(out, "metrics.csv")
        assert open(path).readline() == (
            "iteration,transitions,denoiser_loss,policy_loss,eval_mean,"
            "eval_std,store_size\n")
        # BC rows carry no denoiser loss, and only every tenth an eval
        assert [sorted(row) for row in log.rows[9:11]] == [
            ["eval_mean", "eval_std", "iteration", "policy_loss",
             "store_size", "transitions"],
            ["iteration", "policy_loss", "store_size", "transitions"]]
        check_metrics_csv(path, log.rows)
        with pytest.raises(InvalidInputError):
            log.add_row(iteration=20, transitions=384)

    def test_snapshot_policy_is_independent_copy(self):
        p = GeneratorPolicy(3, 2, SeededRng(1), hidden=(8,))
        snap = snapshot_policy(p, p.flat + 1.0)
        for a, b in zip(snap.params(), p.params()):
            assert np.allclose(a, b + 1.0)
        p.params()[0][...] = 99.0
        assert not np.allclose(snap.params()[0], 99.0)
