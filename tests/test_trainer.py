import csv
import dataclasses
import json
import os
import types

import numpy as np
import pytest

import smile.trainer as trainer_mod
from smile.diffusion import NoiseModel, denoiser_loss, diffuse
from smile.envs import DemoStore, default_expert, expert_act, \
    generate_demos, make_env_spec, rollout_batch_returns
from smile.errors import ConfigError, InvalidInputError, TrainingError
from smile.expertise import FilterConfig, q_curve_matrix, score_dataset
from smile.mathcore import FeedForwardNet, SeededRng, load_checkpoint
from smile.policy import BcBaseline, GeneratorPolicy
from smile.trainer import (CSV_COLUMNS, TrainConfig, audit_bins,
                           bench_reverse, evaluate, snapshot_policy, train,
                           train_bc)

from conftest import backward_stage_lengths, float32_rounding_bound
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


class _FixedDraws:
    """Stands in for denoiser_loss's rng: hands out the given steps and
    noise."""

    def __init__(self, t, eps):
        self.t, self.eps = t, eps

    def integers(self, low, high, size=None):
        assert size == len(self.t)
        return self.t

    def standard_normal(self, shape):
        assert shape == self.eps.shape
        return self.eps


def tiny_cfg(**kw):
    base = dict(batch_size=32, transition_budget=32 * 30,
                denoiser_hidden=(16, 16), actor_hidden=(16, 16),
                eval_every=0, ema_warmup_steps=20)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def gauss_store():
    task = GaussianTask(seed=1, state_dim=3, action_dim=2)
    return make_store(task, SeededRng(2), n_traj=12, traj_len=25)


class TestTrainLoop:
    def test_smoke_denoiser_loss_halves(self, tmp_path):
        # scripted run on the analytic task: after 2000 iterations the
        # denoiser loss's excess over its closed-form floor (the loss of the
        # exact eps*, 0.915 here) is at most half of its excess in the
        # first 100 iterations. The raw loss cannot halve: half of the
        # early mean lies below the floor.
        task = GaussianTask(seed=3, state_dim=3, action_dim=2)
        store = make_store(task, SeededRng(4), n_traj=40, traj_len=50)
        cfg = tiny_cfg(batch_size=128, transition_budget=128 * 2000,
                       denoiser_hidden=(32, 32), actor_hidden=(32, 32))
        result = train(cfg, store, SeededRng(5), str(tmp_path))
        losses = [r["denoiser_loss"] for r in result.metrics.rows]
        early = np.mean(losses[:100])
        late = np.mean(losses[-100:])
        floor = denoiser_loss_floor(task, result.noise_model.sched)
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

    def test_unfiltered_denoiser_ignores_the_actor_width(self, gauss_store,
                                                         tmp_path):
        # without filtering nothing the denoiser reads comes from the
        # generator: init, batches and loss draws are streams of their own
        a, b = (train(tiny_cfg(actor_hidden=width), gauss_store, SeededRng(9),
                      str(tmp_path / f"w{width[0]}"), filtering=False)
                for width in ((8,), (16,)))
        assert a.policy.widths != b.policy.widths
        for net in ("noise_model", "ema_noise_model"):
            assert (getattr(a, net).flat.tobytes()
                    == getattr(b, net).flat.tobytes())
        assert ([r["denoiser_loss"] for r in a.metrics.rows]
                == [r["denoiser_loss"] for r in b.metrics.rows])

    def test_transition_accounting_crosses_budget_once(self, gauss_store,
                                                        tmp_path):
        cfg = tiny_cfg(batch_size=32, transition_budget=1000)
        result = train(cfg, gauss_store, SeededRng(9), str(tmp_path))
        iters = result.metrics.rows[-1]["iteration"]
        assert iters == 32  # ceil(1000 / 32): halts at first crossing
        assert result.metrics.counters["transitions_consumed"] == 32 * 32
        assert result.metrics.rows[-1]["transitions"] == 32 * 32

    def test_update_asymmetry_counters(self, gauss_store, tmp_path,
                                       monkeypatch):
        # each step the denoiser's loss sees the batch tiled
        # denoiser_optimize_every times and the policy's the batch once
        rows = {"denoiser": [], "policy": []}
        real_den, real_pol = trainer_mod.denoiser_loss, trainer_mod.policy_loss

        def den(model, s, a, rng):
            rows["denoiser"].append(len(s))
            return real_den(model, s, a, rng)

        def pol(policy, sched, s, draw):
            rows["policy"].append(len(s))
            return real_pol(policy, sched, s, draw)

        monkeypatch.setattr(trainer_mod, "denoiser_loss", den)
        monkeypatch.setattr(trainer_mod, "policy_loss", pol)
        cfg = tiny_cfg(denoiser_optimize_every=10)
        result = train(cfg, gauss_store, SeededRng(10), str(tmp_path))
        n = cfg.num_iterations
        assert rows == {"denoiser": [32 * 10] * n, "policy": [32] * n}
        c = result.metrics.counters
        assert c["denoiser_optimizer_steps"] == c["policy_optimizer_steps"] \
            == n

    def test_one_denoiser_forward_per_iteration(self, gauss_store, tmp_path,
                                                monkeypatch):
        # the policy's target comes from the denoiser loss's own forward:
        # an unfiltered, unevaluated run makes one denoiser forward per
        # iteration, and the policy loss gets the first block of that
        # iteration's draw, which np.tile makes the batch's own rows
        forwards, den_calls, pol_calls = [], [], []
        real_den, real_pol = trainer_mod.denoiser_loss, trainer_mod.policy_loss
        for name in ("forward", "forward_cached"):
            real = getattr(NoiseModel, name)

            def counted(net, x, real=real):
                forwards.append(len(np.atleast_2d(x)))
                return real(net, x)
            monkeypatch.setattr(NoiseModel, name, counted)

        def den(model, s, a, rng):
            loss, grads, draw = real_den(model, s, a, rng)
            den_calls.append((s.copy(), [x.copy() for x in draw]))
            return loss, grads, draw

        def pol(policy, sched, s, draw):
            pol_calls.append((s.copy(), [x.copy() for x in draw]))
            return real_pol(policy, sched, s, draw)

        monkeypatch.setattr(trainer_mod, "denoiser_loss", den)
        monkeypatch.setattr(trainer_mod, "policy_loss", pol)
        cfg = tiny_cfg(denoiser_optimize_every=3)
        train(cfg, gauss_store, SeededRng(10), str(tmp_path), filtering=False)
        n, b = cfg.num_iterations, cfg.batch_size
        assert forwards == [3 * b] * n
        assert len(den_calls) == len(pol_calls) == n
        for (den_s, den_draw), (pol_s, pol_draw) in zip(den_calls,
                                                         pol_calls):
            assert np.array_equal(pol_s, den_s[:b])
            for got, tiled in zip(pol_draw, den_draw):
                assert len(got) == b
                assert np.array_equal(got, tiled[:b])

    # the ids name the loss, so each case keeps the id it had when an L2
    # case ran beside it
    @pytest.mark.parametrize("k", [5, 10], ids=["5-l1", "10-l1"])
    def test_tiled_batch_gives_the_mean_gradient(self, k):
        # the accumulation identity: the gradient of the batch tiled k times
        # equals the mean of the k gradients of the batch alone, when copy j
        # draws the steps and noise of tiled block j. Each side is within
        # the float32 rounding bound of its stages of the exact gradient:
        # the tiled batch sums k * n rows, each copy sums n (and the copies
        # are averaged in float64), so their distance is within the sum
        # (measured: 3.2-4.2 u of the mean's norm, against 489-669 u)
        n = 32
        model = NoiseModel(3, 2, 10, SeededRng(40), hidden=(32, 32),
                           dtype=np.float32)
        # a zero output layer would zero every other gradient
        model.weights[-1][...] = 0.3 * SeededRng(41).standard_normal(
            model.weights[-1].shape)
        draws = SeededRng(42)
        states = draws.standard_normal((n, 3))
        actions = draws.standard_normal((n, 2))
        t = draws.integers(1, model.T + 1, size=(k, n))
        eps = draws.standard_normal((k, n, 2))
        _, tiled, _ = denoiser_loss(model, np.tile(states, (k, 1)),
                                    np.tile(actions, (k, 1)),
                                    _FixedDraws(t.reshape(-1),
                                                eps.reshape(-1, 2)))
        copies = np.array([
            denoiser_loss(model, states, actions,
                          _FixedDraws(t[j], eps[j]))[1] for j in range(k)],
            dtype=np.float64)
        mean = copies.mean(axis=0)
        bound_tiled = float32_rounding_bound(
            backward_stage_lengths(model.widths, k * n) + [1])
        bound_copy = float32_rounding_bound(
            backward_stage_lengths(model.widths, n) + [1])
        assert np.linalg.norm(tiled - mean) <= (
            bound_tiled * np.linalg.norm(mean)
            + bound_copy * np.linalg.norm(copies, axis=1).mean())

    def test_run_manifest(self, gauss_store, tmp_path):
        cfg = tiny_cfg()
        cfg.filter = FilterConfig(filter_every=10, min_demos=1,
                                  step_threshold=0, max_demo_len=25)
        out = str(tmp_path / "run")
        result = train(cfg, gauss_store, SeededRng(17), out_dir=out)
        _, _, bc_metrics = train_bc(cfg, gauss_store, SeededRng(18),
                                    out_dir=str(tmp_path / "bc"))
        for path, metrics, reports, seed, filtering in (
                (out, result.metrics, result.filter_reports, 17, True),
                (str(tmp_path / "bc"), bc_metrics, [], 18, False)):
            with open(os.path.join(path, "run.json")) as fh:
                manifest = json.load(fh)
            assert set(manifest) == {
                "config", "filtering", "train_seed", "numpy", "blas",
                "openblas_num_threads", "workers", "wall_clock",
                "counters", "filter_summaries"}
            assert manifest["config"] == json.loads(json.dumps(
                dataclasses.asdict(cfg)))
            assert manifest["filtering"] is filtering
            assert manifest["train_seed"] == seed
            assert manifest["numpy"] == np.__version__
            assert set(manifest["blas"]) == {"name", "version"}
            assert manifest["workers"] == 1   # no entry set a budget
            assert manifest["counters"] == metrics.counters
            assert manifest["wall_clock"] == metrics.wall_clock
            assert manifest["filter_summaries"] == [
                report.summary() for report in reports]
        assert set(result.metrics.wall_clock) == {"denoiser", "policy",
                                                  "ema", "filter"}
        assert len(manifest["filter_summaries"]) == 0  # BC never filters
        assert len(result.filter_reports) == 3

    def test_a_manifest_write_that_raises_keeps_the_old_run_json(
            self, gauss_store, tmp_path, monkeypatch):
        out = str(tmp_path / "run")
        train_bc(tiny_cfg(), gauss_store, SeededRng(18), out_dir=out)
        path = os.path.join(out, "run.json")
        before = open(path, "rb").read()

        def unserializable(*args, **kwargs):
            raise TypeError("Object of type object is not JSON serializable")
        monkeypatch.setattr(trainer_mod, "json",
                            types.SimpleNamespace(dumps=unserializable))
        with pytest.raises(TypeError):
            train_bc(tiny_cfg(), gauss_store, SeededRng(19), out_dir=out)
        assert open(path, "rb").read() == before
        assert not any(name.endswith(".tmp") for name in os.listdir(out))

    def test_no_filter_leaves_store_untouched(self, gauss_store, tmp_path):
        rows_before = gauss_store.rows
        cfg = tiny_cfg()
        # passes that would run every 10 iterations with filtering on
        cfg.filter = FilterConfig(filter_every=10, min_demos=1,
                                  step_threshold=0, max_demo_len=25)
        result = train(cfg, gauss_store, SeededRng(11), str(tmp_path),
                       filtering=False)
        assert result.metrics.counters["filter_passes"] == 0
        assert result.store.rows == rows_before
        assert result.filter_reports == []

    def test_dropping_passes_leave_the_given_store_as_it_was(self, tmp_path):
        # threshold 10 is above every step and the floor keeps 5 and ties:
        # the first two passes drop, and the run returns the store the
        # last pass kept, while the store it was given keeps its columns,
        # ids and env bit for bit
        spec = make_env_spec("pointmass2d")
        store = generate_demos(spec, default_expert(spec), [0.0, 0.5, 1.0],
                               4, SeededRng(16))
        columns = (store.states, store.actions, store.rewards,
                   store.terminals)
        before = [column.tobytes() for column in columns]
        rows = store.rows
        cfg = tiny_cfg()
        cfg.filter = FilterConfig(filter_every=10, min_demos=5,
                                  step_threshold=10, max_demo_len=25)
        result = train(cfg, store, SeededRng(18), str(tmp_path))
        assert [r.n_dropped > 0 for r in result.filter_reports] == [
            True, True, False]
        last = result.filter_reports[-1]
        assert result.store is not store
        assert result.store.env is store.env is spec
        assert [row[0] for row in result.store.rows] == [
            r.segment_id for r in last.records if r.verdict == "keep"]
        assert all(now is then for now, then in zip(
            (store.states, store.actions, store.rewards, store.terminals),
            columns))
        assert [column.tobytes() for column in columns] == before
        assert store.rows == rows

    def test_filter_uses_ema_snapshots(self, gauss_store, tmp_path,
                                       monkeypatch):
        captured = {}
        real = trainer_mod.filter_dataset

        def spy(store, model, policy, cfg, iteration=None):
            captured["model"] = model.flat.copy()
            captured["policy"] = policy.flat.copy()
            return real(store, model, policy, cfg, iteration=iteration)

        monkeypatch.setattr(trainer_mod, "filter_dataset", spy)
        n_iters = 20
        cfg = tiny_cfg(batch_size=32, transition_budget=32 * n_iters,
                       update_ema_every=1, ema_warmup_steps=1)
        cfg.filter = FilterConfig(filter_every=n_iters, min_demos=1,
                                  step_threshold=0, max_demo_len=25)
        result = train(cfg, gauss_store, SeededRng(12), str(tmp_path))
        # filter fired on the last iteration, right after an EMA update:
        # the scored parameters must be the EMA shadow, not the live ones
        assert np.array_equal(captured["model"], result.ema_noise_model.flat)
        assert not np.array_equal(captured["model"], result.noise_model.flat)
        assert np.array_equal(captured["policy"], result.ema_policy.flat)

    def test_each_shadow_is_built_once_and_read_in_place(self, tmp_path,
                                                         monkeypatch):
        spec = make_env_spec("pointmass2d")
        store = generate_demos(spec, default_expert(spec), [0.0, 1.0], 2,
                               SeededRng(16))
        built, filtered, evaluated = [], [], []
        real_snap = trainer_mod.snapshot_policy
        real_filter = trainer_mod.filter_dataset
        real_eval = trainer_mod.evaluate

        def snap(net, flat):
            built.append(net.role)
            return real_snap(net, flat)

        def filt(store, model, policy, cfg, iteration=None):
            filtered.append((model, policy))
            return real_filter(store, model, policy, cfg, iteration=iteration)

        def ev(policy, spec, episodes, rng):
            evaluated.append(policy)
            return real_eval(policy, spec, episodes, rng)

        monkeypatch.setattr(trainer_mod, "snapshot_policy", snap)
        monkeypatch.setattr(trainer_mod, "filter_dataset", filt)
        monkeypatch.setattr(trainer_mod, "evaluate", ev)
        cfg = tiny_cfg(eval_every=10, eval_episodes=2)
        cfg.filter = FilterConfig(filter_every=10, min_demos=1,
                                  max_demo_len=25)
        result = train(cfg, store, SeededRng(18), str(tmp_path / "smile"))
        assert built == ["denoiser", "generator"]
        assert len(filtered) == len(evaluated) == 3
        for model, policy in filtered:
            assert model is result.ema_noise_model
            assert policy is result.ema_policy
        assert all(policy is result.ema_policy for policy in evaluated)

        built.clear()
        evaluated.clear()
        bc_ema, _, _ = train_bc(cfg, store, SeededRng(18),
                                str(tmp_path / "bc"))
        assert built == ["bc"]
        assert len(evaluated) == 3
        assert all(policy is bc_ema for policy in evaluated)

    @pytest.mark.parametrize("min_demos", [5, 100])
    def test_every_scheduled_pass_runs(self, gauss_store, tmp_path,
                                       min_demos):
        # threshold 10 is above every step, so each pass keeps only its
        # min_demos highest-step segments and their ties (every segment
        # when min_demos exceeds their count), and the next pass still runs
        cfg = tiny_cfg()
        cfg.filter = FilterConfig(filter_every=10, min_demos=min_demos,
                                  step_threshold=10, max_demo_len=25)
        result = train(cfg, gauss_store, SeededRng(13), str(tmp_path))
        assert [r.iteration for r in result.filter_reports] == [10, 20, 30]
        assert result.metrics.counters["filter_passes"] == 3
        for report in result.filter_reports:
            steps = sorted(r.predicted_step for r in report.records)
            s_k = steps[-min(min_demos, len(steps))]
            assert [r.verdict for r in report.records] == [
                "keep" if r.predicted_step >= s_k else "drop"
                for r in report.records]
            assert report.n_kept >= min(min_demos, report.n_before)
        if min_demos == 100:
            assert result.store.num_trajectories == 12
            assert all(r.n_dropped == 0 for r in result.filter_reports)

    def test_non_finite_loss_aborts_with_diagnostics(self, gauss_store,
                                                     tmp_path, monkeypatch):
        # no draw: the run stops before the policy loss would read one
        def bad_loss(model, s, a, rng):
            return float("nan"), np.zeros_like(model.flat), ()

        monkeypatch.setattr(trainer_mod, "denoiser_loss", bad_loss)
        out = str(tmp_path / "run")
        with pytest.raises(TrainingError, match="non-finite"):
            train(tiny_cfg(), gauss_store, SeededRng(14), out_dir=out)
        assert os.path.exists(os.path.join(out, "diagnostic_denoiser.json"))
        assert os.path.exists(os.path.join(out, "diagnostic_generator.json"))

    def test_diagnostics_hold_the_live_parameters(self, gauss_store,
                                                  tmp_path, monkeypatch):
        # <role>.json holds the EMA shadow; a diagnostic holds the live
        # vector that gave the non-finite loss
        nets = {}
        real_den, real_pol = trainer_mod.denoiser_loss, trainer_mod.policy_loss

        def den(model, s, a, rng):
            nets["denoiser"] = model
            return real_den(model, s, a, rng)

        def late_nan(policy, sched, s, draw):
            nets["generator"] = policy
            nets["calls"] = nets.get("calls", 0) + 1
            loss, grads = real_pol(policy, sched, s, draw)
            return (float("nan") if nets["calls"] == 10 else loss), grads

        monkeypatch.setattr(trainer_mod, "denoiser_loss", den)
        monkeypatch.setattr(trainer_mod, "policy_loss", late_nan)
        out = str(tmp_path / "run")
        with pytest.raises(TrainingError, match="non-finite"):
            train(tiny_cfg(update_ema_every=1, ema_warmup_steps=1),
                  gauss_store, SeededRng(14), out_dir=out)
        for role in ("denoiser", "generator"):
            net = nets[role]
            loaded = load_checkpoint(
                os.path.join(out, f"diagnostic_{role}.json"))
            assert loaded["role"] == role
            assert loaded["params"].tobytes() == net.flat.tobytes()

    def test_non_finite_gradient_writes_the_diagnostics(self, gauss_store,
                                                         tmp_path,
                                                         monkeypatch):
        # a NaN loss usually comes with a NaN gradient, which the optimizer
        # step would reject before any check after both steps ran
        nets = {}

        def nan_loss(model, s, a, rng):
            nets["denoiser"] = model
            return float("nan"), np.full_like(model.flat, np.nan), ()

        monkeypatch.setattr(trainer_mod, "denoiser_loss", nan_loss)
        out = str(tmp_path / "run")
        cfg = tiny_cfg()
        with pytest.raises(TrainingError, match="non-finite denoiser loss"):
            train(cfg, gauss_store, SeededRng(14), out_dir=out)
        denoiser = load_checkpoint(
            os.path.join(out, "diagnostic_denoiser.json"))
        assert denoiser["params"].tobytes() == nets["denoiser"].flat.tobytes()
        # the generator never stepped: its live vector is its initial one
        generator = load_checkpoint(
            os.path.join(out, "diagnostic_generator.json"))
        arch = generator["arch"]
        init = GeneratorPolicy(arch["state_dim"], arch["action_dim"],
                               SeededRng(14).spawn("init-policy"),
                               hidden=cfg.actor_hidden)
        assert generator["params"].tobytes() == init.flat.tobytes()

    def test_checkpoints_hold_the_ema_shadow(self, gauss_store, tmp_path):
        out, bc_out = str(tmp_path / "run"), str(tmp_path / "bc")
        cfg = tiny_cfg(update_ema_every=1, ema_warmup_steps=1)
        result = train(cfg, gauss_store, SeededRng(15), out_dir=out)
        bc_ema, bc_live, _ = train_bc(cfg, gauss_store, SeededRng(15),
                                      out_dir=bc_out)
        for path, role, ema, live in (
                (out, "denoiser", result.ema_noise_model, result.noise_model),
                (out, "generator", result.ema_policy, result.policy),
                (bc_out, "bc", bc_ema, bc_live)):
            loaded = load_checkpoint(os.path.join(path, f"{role}.json"))
            assert set(loaded) == {"format_version", "role", "arch",
                                   "params", "crc32"}
            assert (loaded["role"], loaded["arch"]) == (role, ema.arch())
            got = loaded["params"]
            assert got.tobytes() == ema.flat.tobytes()
            assert got.tobytes() != live.flat.tobytes()

    def test_artifacts_written(self, gauss_store, tmp_path):
        out = str(tmp_path / "run")
        result = train(tiny_cfg(), gauss_store, SeededRng(15), out_dir=out)
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "denoiser.json"))
        assert os.path.exists(os.path.join(out, "generator.json"))
        check_metrics_csv(os.path.join(out, "metrics.csv"),
                          result.metrics.rows)

    def test_denoiser_carries_the_config_schedule(self, gauss_store,
                                                  tmp_path):
        cfg = tiny_cfg(diffusion_steps=4, beta_min=0.1, beta_max=0.9,
                       transition_budget=32 * 2)
        out = str(tmp_path / "run")
        result = train(cfg, gauss_store, SeededRng(16), out_dir=out)
        for model in (result.noise_model, result.ema_noise_model):
            assert (model.sched.T, model.sched.beta_min,
                    model.sched.beta_max) == (4, 0.1, 0.9)
        arch = load_checkpoint(os.path.join(out, "denoiser.json"))["arch"]
        assert (arch["T"], arch["beta_min"], arch["beta_max"]) == (4, 0.1,
                                                                   0.9)

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            train(tiny_cfg(), DemoStore.of([]), SeededRng(0), str(tmp_path))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_cfg(batch_size=0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(transition_budget=1).validate()
        with pytest.raises(ConfigError):
            TrainConfig(filter=FilterConfig(step_threshold=99)).validate()
        for bad in (dict(diffusion_steps=0), dict(beta_min=-1.0),
                    dict(beta_min=0.5, beta_max=0.4),
                    dict(beta_max=float("nan")),
                    dict(ema_warmup_steps=-5)):
            with pytest.raises(ConfigError):
                tiny_cfg(**bad).validate()


class TestEvaluate:
    def setup_method(self):
        self.spec = make_env_spec("pointmass2d")
        self.ctrl = default_expert(self.spec)

    class _Wrap:
        def __init__(self, fn):
            self.fn = fn

        def act(self, obs):
            return self.fn(obs)

    def _expert_policy(self):
        return self._Wrap(lambda o: expert_act(self.ctrl, self.spec, o))

    def test_expert_matches_recorded_baseline(self):
        expert = self._expert_policy()
        mean, std = evaluate(expert, self.spec, 200, SeededRng(200))
        # same seed: evaluate is exactly the rollout mean and std
        same = rollout_batch_returns(self.spec, expert.act,
                                     SeededRng(200), 200)
        assert (mean, std) == (same.mean(), same.std())
        assert std > 0
        # oracle baseline computed with an independent seed: the two
        # 200-episode means differ within 4 standard errors of their
        # difference, taken from the two samples' own spreads
        baseline = rollout_batch_returns(self.spec, expert.act,
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
    @staticmethod
    def with_rets(store, rets):
        """``store`` with rewards that sum to ``rets``: each trajectory's
        return on its first row, and zeros after it."""
        rewards = np.zeros(store.transition_count)
        rewards[list(store.bounds[:-1])] = rets
        return DemoStore((store.states, store.actions, rewards,
                          store.terminals),
                         [(*row[:3], True) for row in store.rows])

    def _setup(self, sched, max_demo_len=100, refs=None):
        """Store with returns 0, 10, ..., 50 and score_dataset's records of
        it under an oracle denoiser and a table policy (default: the store's
        own actions)."""
        task = GaussianTask(seed=20, action_dim=2)
        rng = SeededRng(21)
        store = self.with_rets(make_store(task, rng, n_traj=6, traj_len=10),
                               [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        assert store.rets == (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
        states, actions = store.states, store.actions
        policy = TablePolicy(states, actions if refs is None else refs)
        records, _ = score_dataset(
            store, OracleDenoiser(task, sched), policy,
            FilterConfig(min_demos=1, max_demo_len=max_demo_len))
        return store, records

    def test_single_bin_covers_all(self, sched):
        store, records = self._setup(sched)
        rows = audit_bins(store, records, 100.0)
        assert rows == [{"bin_lo": 0.0, "bin_hi": 100.0, "count": 6,
                         "mean_step": rows[0]["mean_step"]}]

    def test_empty_bins_absent(self, sched):
        store, records = self._setup(sched)
        store = self.with_rets(store, [*store.rets[:-1], 200.0])
        rows = audit_bins(store, records, 50.0)
        # no returns in [50, 100) or [100, 150): those rows are absent, and
        # the last bin holds its right edge
        assert [(r["bin_lo"], r["bin_hi"], r["count"]) for r in rows] == [
            (0.0, 50.0, 5), (150.0, 200.0, 1)]

    def test_split_trajectory_scores_as_a_whole(self, sched):
        # segments of 3, 3, 3 and 1 transitions: the length-weighted mean of
        # their curves is the whole trajectory's mean-Q curve. References
        # are the actions diffused 0..5 steps, so the steps differ.
        actions = self._setup(sched)[0].actions
        t_rows = np.repeat(np.arange(6), 10)
        refs = diffuse(actions, t_rows, sched,
                       SeededRng(22).standard_normal(actions.shape))
        store, records = self._setup(sched, max_demo_len=3, refs=refs)
        assert len(records) == 4 * store.num_trajectories
        oracle = OracleDenoiser(GaussianTask(seed=20, action_dim=2), sched)
        # one bin per trajectory (returns 0, 10, ..., 50 at edges 0, 7,
        # ..., 56), so each row's mean step is one step
        rows = audit_bins(store, records, 7.0)
        assert len(rows) == store.num_trajectories
        steps = [int(np.argmax(q_curve_matrix(
                     oracle, store.states[a:b], store.actions[a:b],
                     refs[a:b]).mean(axis=1)))
                 for a, b in zip(store.bounds, store.bounds[1:])]
        assert [row["mean_step"] for row in rows] == steps
        assert len(set(steps)) > 1

    def test_empty_store_rejected(self, sched):
        with pytest.raises(InvalidInputError):
            audit_bins(DemoStore.of([]), [], 1.0)

    def test_missing_returns_rejected(self, sched):
        store, records = self._setup(sched)
        store = DemoStore(store.columns, [(*row[:3], i > 0) for i, row
                                          in enumerate(store.rows)])
        assert store.rets[0] is None
        with pytest.raises(InvalidInputError, match="no return"):
            audit_bins(store, records, 100.0)

    def test_bad_edges_rejected(self, sched):
        # a width below the spacing of floats at the returns gives no
        # rising edges, and one of 10^-15 over returns 0..50 more than 2^53
        store, records = self._setup(sched)
        with pytest.raises(InvalidInputError, match="too fine"):
            audit_bins(store, records, 1e-15)
        store = self.with_rets(store, np.asarray(store.rets) + 1e6)
        with pytest.raises(InvalidInputError, match="too fine"):
            audit_bins(store, records, 1e-12)

    def test_bins_are_those_of_the_arange_edges(self, sched):
        # at widths whose multiples are exact floats (the default 20 among
        # them), bin k = floor((ret - lo) / width) is the bin of
        # np.arange(lo, hi + width / 2, width) that holds ret, each closed
        # on the right only if last, and the printed edges are its edges
        store, records = self._setup(sched)
        draws = np.random.default_rng(0)
        for _ in range(300):
            width = float(draws.choice([0.25, 0.5, 1.0, 2.0, 5.0, 20.0]))
            rets = draws.uniform(-60, 10, store.num_trajectories)
            lo = np.floor(rets.min() / width) * width
            on_edge = lo + draws.integers(0, 4, len(rets)) * width
            rets = np.where(draws.random(len(rets)) < 0.5, on_edge, rets)
            store = self.with_rets(store, rets)
            lo = np.floor(rets.min() / width) * width
            hi = np.ceil(rets.max() / width) * width
            if hi <= lo:
                hi = lo + width
            edges = np.arange(lo, hi + width / 2, width)
            want = []
            for i, (b_lo, b_hi) in enumerate(zip(edges[:-1], edges[1:])):
                last = i == len(edges) - 2
                members = [r for r in rets
                           if b_lo <= r and (r <= b_hi if last else r < b_hi)]
                if members:
                    want.append((repr(float(b_lo)), repr(float(b_hi)),
                                 len(members)))
            assert [(repr(r["bin_lo"]), repr(r["bin_hi"]), r["count"])
                    for r in audit_bins(store, records, width)] == want

    def test_each_trajectory_in_exactly_one_bin(self, sched):
        # at widths from 10^-12 to 10^2, half the returns put on edges:
        # the counts add up to the trajectories, the bins rise, and each
        # return lies between its bin's edges up to float rounding
        store, records = self._setup(sched)
        n = store.num_trajectories
        draws = np.random.default_rng(1)
        for _ in range(600):
            width = float(10 ** draws.uniform(-12, 2))
            rets = draws.uniform(-30, 10, n)
            lo = np.floor(rets.min() / width) * width
            on_edge = lo + draws.integers(0, 4, n) * width
            rets = np.where(draws.random(n) < 0.5, on_edge, rets)
            store = self.with_rets(store, rets)
            rows = audit_bins(store, records, width)
            assert sum(row["count"] for row in rows) == n
            los = [row["bin_lo"] for row in rows]
            assert los == sorted(set(los))
            tol = 4 * np.spacing(30.0 + width)
            for ret in rets:
                assert sum(row["bin_lo"] - tol <= ret <= row["bin_hi"] + tol
                           for row in rows) >= 1

    @pytest.mark.parametrize("width", [1e-9, 1e-12])
    def test_fine_width_counts_every_return(self, sched, width):
        # 200 returns in [-23, 0], each counted once down to 10^-12
        task = GaussianTask(seed=20, action_dim=2)
        store = self.with_rets(
            make_store(task, SeededRng(21), n_traj=200, traj_len=2),
            np.random.default_rng(2).uniform(-23, 0, 200))
        states, actions = store.states, store.actions
        records, _ = score_dataset(
            store, OracleDenoiser(task, sched), TablePolicy(states, actions),
            FilterConfig(min_demos=1))
        rows = audit_bins(store, records, width)
        assert sum(row["count"] for row in rows) == 200


class TestBench:
    def test_single_step_schedule_ratio_near_one(self):
        spec = make_env_spec("pointmass2d")
        model = NoiseModel(4, 2, 1, SeededRng(1), hidden=(16, 16),
                           beta_min=0.3, beta_max=0.3)
        policy = GeneratorPolicy(4, 2, SeededRng(2), hidden=(16, 16))
        out = bench_reverse(model, policy, spec, trials=400,
                            rng=SeededRng(3))
        assert 0.3 < out["latency_ratio"] < 2.5
        assert out["trials"] == 400

    def test_reports_all_fields(self, sched):
        spec = make_env_spec("pointmass2d")
        model = NoiseModel(4, 2, sched.T, SeededRng(1), hidden=(8,))
        policy = GeneratorPolicy(4, 2, SeededRng(2), hidden=(8,))
        out = bench_reverse(model, policy, spec, trials=50,
                            rng=SeededRng(3))
        assert {"one_step_s_per_1000", "naive_s_per_1000", "latency_ratio",
                "mean_abs_discrepancy"} <= set(out)
        assert out["mean_abs_discrepancy"] >= 0


class TestBc:
    def test_bc_runs_and_snapshot_acts(self, gauss_store, tmp_path):
        cfg = tiny_cfg()
        snap, live, metrics = train_bc(cfg, gauss_store, SeededRng(30),
                                       str(tmp_path))
        assert metrics.rows[-1]["iteration"] == cfg.num_iterations
        s, _ = gauss_store.sample(SeededRng(31), 4)
        assert snap.act(s).shape == (4, 2)
        assert snap.role == "bc"

    def test_bc_loss_decreases(self, gauss_store, tmp_path):
        cfg = tiny_cfg(batch_size=64, transition_budget=64 * 400)
        _, _, metrics = train_bc(cfg, gauss_store, SeededRng(32),
                                 str(tmp_path))
        losses = [r["policy_loss"] for r in metrics.rows]
        assert np.mean(losses[-50:]) < 0.5 * np.mean(losses[:50])


def test_trained_networks_are_float32(gauss_store, tmp_path):
    result = train(tiny_cfg(), gauss_store, SeededRng(33),
                   str(tmp_path / "smile"))
    snap, live, _ = train_bc(tiny_cfg(), gauss_store, SeededRng(34),
                             str(tmp_path / "bc"))
    for net in (result.noise_model, result.policy, result.ema_noise_model,
                result.ema_policy, snap, live):
        assert net.flat.dtype == np.float32
        assert net.arch()["dtype"] == "float32"


def test_networks_default_to_float32():
    # a network built without a dtype has the one training gives it;
    # float64 is had by naming it
    for cls, args in ((FeedForwardNet, ([3, 4, 2], SeededRng(1))),
                      (NoiseModel, (2, 2, 4, SeededRng(2))),
                      (GeneratorPolicy, (3, 2, SeededRng(3))),
                      (BcBaseline, (3, 2, SeededRng(4)))):
        assert cls(*args).flat.dtype == np.float32
        assert cls(*args, dtype=np.float64).flat.dtype == np.float64


def test_networks_default_to_the_width_training_gives_them():
    # the noise model is twice as wide as the actors (NoiseModel, _Actor),
    # and a network built without a width has its role's
    cfg = TrainConfig()
    assert cfg.denoiser_hidden == (256, 256, 256)
    assert cfg.actor_hidden == (128, 128, 128)
    for net, hidden in ((NoiseModel(2, 2, 4, None), cfg.denoiser_hidden),
                        (GeneratorPolicy(3, 2, None), cfg.actor_hidden),
                        (BcBaseline(3, 2, None), cfg.actor_hidden)):
        assert tuple(net.widths[1:-1]) == hidden


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_rebuild_draws_no_weights(monkeypatch, dtype):
    nets = [NoiseModel(2, 2, 4, SeededRng(2), hidden=(5,), dtype=dtype),
            GeneratorPolicy(3, 2, SeededRng(3), hidden=(6,), dtype=dtype),
            BcBaseline(3, 2, SeededRng(4), hidden=(6,), dtype=dtype)]

    def refuse(self, shape):
        raise AssertionError("a rebuild drew weights")

    monkeypatch.setattr(SeededRng, "standard_normal", refuse)
    for net in nets:
        rebuilt = type(net).from_arch(net.arch())
        assert rebuilt.arch() == net.arch() and not rebuilt.flat.any()
        snap = snapshot_policy(net, net.flat)
        assert type(snap) is type(net) and snap.arch() == net.arch()
        assert snap.flat.tobytes() == net.flat.tobytes()


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

    def test_snapshot_policy_is_independent_copy(self):
        p = GeneratorPolicy(3, 2, SeededRng(1), hidden=(8,))
        snap = snapshot_policy(p, p.flat + 1.0)
        assert np.array_equal(snap.flat, p.flat + 1.0)
        p.weights[0][...] = 99.0
        assert not np.allclose(snap.weights[0], 99.0)

    def test_snapshot_rejects_a_vector_of_another_shape(self):
        p = GeneratorPolicy(3, 2, SeededRng(1), hidden=(8,))
        for bad in (p.flat[:-1], p.flat[None, :]):
            with pytest.raises(InvalidInputError,
                               match="parameter vector shape"):
                snapshot_policy(p, bad)
