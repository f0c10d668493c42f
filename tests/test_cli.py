import base64
import configparser
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smile
import smile.cli as cli
import smile.config as config_mod
import smile.envs as envs_mod
from smile.config import DataConfig, load_config
from smile.diffusion import NoiseModel
from smile.envs import ENV_WIDTHS, load_demos, make_env_spec
from smile.errors import ValidationError
from smile.expertise import filter_dataset, save_filter_report
from smile.mathcore import (FeedForwardNet, SeededRng, derive_seed,
                            load_checkpoint, save_checkpoint, tensor_layout)
from smile.policy import GeneratorPolicy
from smile.trainer import TrainConfig, train_bc

from conftest import seal_checkpoint


def write_config(path, out_dir, data="per_level = 2"):
    path.write_text(f"""\
[experiment]
output_dir = {out_dir}
seed = 3

[data]
{data}

[train]
batch_size = 32
transition_budget = 640
eval_every = 20
eval_episodes = 4

[filter]
filter_every = 10
min_demos = 1
""")
    return str(path)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny gen-data then train run: (config path, output dir)."""
    out = tmp_path_factory.mktemp("run")
    cfg = write_config(out / "cfg.ini", out)
    assert cli.main(["gen-data", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg]) == 0
    return cfg, out


def audit_argv(cfg, out, demos=None):
    return ["audit", "--config", cfg, "--denoiser", str(out / "denoiser.json"),
            "--generator", str(out / "generator.json"),
            "--demos", demos or str(out / "demos.jsonl"),
            "--out", str(out / "audit.json")]


def test_a_fresh_audit_loads_neither_numpy_random_nor_numpy_ma(run,
                                                               tmp_path):
    # the checkpoints are rebuilt without drawing weights, and the return
    # bins are found without np.unique, which imports numpy.ma
    cfg, out = run
    argv = audit_argv(cfg, out)
    argv[-1] = str(tmp_path / "audit.json")
    code = ("import sys\nimport smile.cli\n"
            f"assert smile.cli.main({argv!r}) == 0\n"
            "print([m for m in ('numpy.random', 'numpy.ma') "
            "if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(smile.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get(
        "PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_gen_data_train_audit(run, capsys):
    cfg, out = run
    assert cli.main(["gen-data", "--config", cfg]) == 0
    gen = capsys.readouterr().out.splitlines()
    assert gen[1] == "noise_level,episodes,mean_return"
    for line in gen[2:]:
        level, episodes, mean = line.split(",")
        assert episodes == "2" and float(mean) < 0  # a plain float repr
    rows = open(out / "metrics.csv").read().splitlines()
    assert len(rows) == 1 + 20 and rows[-1].startswith("20,640,")
    assert cli.main(audit_argv(cfg, out)) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("bin_lo,bin_hi,count,mean_step") + 1:-1]
    assert sum(int(row.split(",")[2]) for row in table) == 10
    report = json.load(open(out / "audit.json"))
    assert len(report["records"]) == report["n_before"] == 10


def test_gen_data_summarizes_each_level_once(tmp_path, capsys):
    # a repeated noise level gets one line, in first-seen order, over every
    # episode at that level
    cfg = write_config(tmp_path / "cfg.ini", tmp_path,
                       "noise_levels = 0.0, 0.5, 1.0, 1.0, 1.0\nper_level = 2")
    assert cli.main(["gen-data", "--config", cfg]) == 0
    table = [line.split(",")
             for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[:2] for row in table] == [["0.0", "2"], ["0.5", "2"],
                                          ["1.0", "6"]]
    store = load_demos(str(tmp_path / "demos.jsonl"), include_rewards=True)
    for level, _, mean in table:
        rets = [ret for row, ret in zip(store.rows, store.rets)
                if row[2] == float(level)]
        assert float(mean) == pytest.approx(np.mean(rets), rel=1e-12)


def test_audit_scores_once(run, monkeypatch):
    cfg, out = run
    scored, acted = [], []
    real_score, real_act = cli.score_dataset, GeneratorPolicy.act

    def score(*args, **kwargs):
        scored.append(1)
        return real_score(*args, **kwargs)

    def act(self, s):
        acted.append(s)
        return real_act(self, s)

    monkeypatch.setattr(cli, "score_dataset", score)
    monkeypatch.setattr(GeneratorPolicy, "act", act)
    assert cli.main(audit_argv(cfg, out)) == 0
    assert scored == [1]
    # one policy call per 100-transition segment, on its rows, in store order
    assert [len(s) for s in acted] == [100] * 10
    states = load_demos(str(out / "demos.jsonl")).states
    assert np.array_equal(np.concatenate(acted), states)


def test_the_filtered_file_keeps_the_demo_rewards_and_audits(run, tmp_path):
    # train reads the demo file with its rewards: the filtered file keeps
    # each transition's r and the filter reports each segment's return, so
    # an audit takes the filtered file
    cfg, out = run

    def rewards(path):
        with open(path) as fh:
            next(fh)
            return {(rec["traj_id"], rec["step"]): rec["r"]
                    for rec in map(json.loads, fh)}
    demo = rewards(out / "demos.jsonl")
    kept = rewards(out / "filtered_demos.jsonl")
    assert kept and all(kept[key] == demo[key] for key in kept)
    store = load_demos(str(out / "demos.jsonl"))
    rets = dict(zip((row[0] for row in store.rows), store.rets))
    for path in ("filter_report_000010.json", "filter_report_000020.json"):
        for rec in json.load(open(out / path))["records"]:
            assert rec["ret"] == rets[rec["segment_id"]], (path, rec)
    argv = audit_argv(cfg, out, str(out / "filtered_demos.jsonl"))
    argv[-1] = str(tmp_path / "audit.json")
    assert cli.main(argv) == 0


def test_training_reads_no_reward(run, tmp_path):
    # the demo file with every r null trains to the same bytes and verdicts
    cfg, out = run
    with open(out / "demos.jsonl") as fh:
        head, *records = fh.readlines()
    demos = tmp_path / "demos.jsonl"
    demos.write_text(head + "".join(
        json.dumps({**json.loads(line), "r": None}) + "\n"
        for line in records))
    other = tmp_path / "null-r.ini"
    write_config(other, tmp_path)
    assert cli.main(["train", "--config", str(other), "--demos",
                     str(demos)]) == 0
    for name in ("metrics.csv", "denoiser.json", "generator.json"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    for name in ("filter_report_000010.json", "filter_report_000020.json"):
        verdicts = [[(rec["segment_id"], rec["verdict"])
                     for rec in json.load(open(d / name))["records"]]
                    for d in (out, tmp_path)]
        assert verdicts[0] == verdicts[1]
    # the filtered files differ in their r alone
    kept = [[{**json.loads(line), "r": None}
             for line in open(d / "filtered_demos.jsonl")]
            for d in (out, tmp_path)]
    assert kept[0] == kept[1]


def test_bc_checkpoint_audits_and_benches(run, tmp_path):
    # `train --bc-baseline` writes its EMA snapshot to bc.json, which audit
    # and bench take as the generator
    cfg, out = run
    bc_cfg = write_config(tmp_path / "bc.ini", tmp_path)
    demos = str(out / "demos.jsonl")
    assert cli.main(["train", "--config", bc_cfg, "--demos", demos,
                     "--bc-baseline"]) == 0
    loaded = load_checkpoint(str(tmp_path / "bc.json"))
    exp = load_config(bc_cfg)
    store = load_demos(demos)
    store.env = exp.env
    snap, _, _ = train_bc(exp.train, store,
                          SeededRng(derive_seed(exp.seed, "train")),
                          str(tmp_path / "replay"))
    assert loaded["role"] == "bc"
    assert loaded["params"].tobytes() == snap.flat.tobytes()
    generator = ["--denoiser", str(out / "denoiser.json"),
                 "--generator", str(tmp_path / "bc.json")]
    assert cli.main(["audit", "--config", cfg, *generator,
                     "--demos", demos]) == 0
    assert cli.main(["bench", "--config", cfg, *generator,
                     "--trials", "2"]) == 0


@pytest.mark.parametrize("command,flag,value", [
    ("audit", "--bin-width", "0"), ("audit", "--bin-width", "-5"),
    ("audit", "--bin-width", "nan"), ("audit", "--bin-width", "inf"),
    ("bench", "--trials", "0"), ("bench", "--trials", "-3"),
])
def test_bad_flag_value_exits_1(run, capsys, command, flag, value):
    cfg, out = run
    argv = [command, "--config", cfg,
            "--denoiser", str(out / "denoiser.json"),
            "--generator", str(out / "generator.json")]
    if command == "audit":
        argv += ["--demos", str(out / "demos.jsonl")]
    assert cli.main(argv + [flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} ")


def corrupt_demos(out, tmp_path, edit):
    """Copy the run's demo file with line 3 (a record) passed through
    ``edit``; return the copy's path."""
    lines = open(out / "demos.jsonl").read().splitlines()
    lines[2] = edit(lines[2])
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("edit", [
    lambda ln: ln[:len(ln) // 2],                       # truncated JSON
    lambda ln: json.dumps({**json.loads(ln), "s": [float("nan")] * 4}),
    lambda ln: json.dumps({**json.loads(ln), "step": 0}),
    lambda ln: json.dumps({**json.loads(ln), "step": "1"}),
    lambda ln: json.dumps({**json.loads(ln), "noise_level": 0.123}),
    lambda ln: json.dumps({**json.loads(ln), "s": ["0.37"] * 4}),
    lambda ln: json.dumps({**json.loads(ln), "r": "-0.67"}),
    lambda ln: json.dumps({**json.loads(ln), "a": [True, False]}),
    lambda ln: json.dumps({**json.loads(ln), "a": [0.5, None]}),
    lambda ln: json.dumps({**json.loads(ln), "terminal": "false"}),
    lambda ln: json.dumps({**json.loads(ln), "terminal": 0}),
], ids=["truncated", "nan", "repeated_step", "string_step",
        "noise_level_changes", "string_state", "string_reward",
        "bool_action", "null_action", "string_terminal", "number_terminal"])
def test_bad_demo_line_exits_1(run, tmp_path, capsys, edit):
    cfg, out = run
    bad = corrupt_demos(out, tmp_path, edit)
    for argv in (["train", "--config", cfg, "--demos", bad],
                 audit_argv(cfg, out, demos=bad)):
        assert cli.main(argv) == 1
        assert f"{bad}:3:" in capsys.readouterr().err


def test_integer_beyond_float_range_exits_1(run, tmp_path, capsys):
    # the float conversion of a trajectory fails as a whole, so the message
    # names the trajectory's first line, as a width error does
    cfg, out = run
    bad = corrupt_demos(out, tmp_path, lambda ln: json.dumps(
        {**json.loads(ln), "r": 10 ** 400}))
    assert cli.main(["train", "--config", cfg, "--demos", bad]) == 1
    assert f"{bad}:2: bad values in trajectory 0" in capsys.readouterr().err


@pytest.mark.parametrize("level", [math.inf, -0.5, "loud", True],
                         ids=["infinite", "negative", "string", "bool"])
def test_bad_noise_level_exits_1(run, tmp_path, capsys, level):
    # every record of the file carries the level, so no trajectory's level
    # changes and the first record (line 2) is the one to name
    cfg, out = run
    lines = open(out / "demos.jsonl").read().splitlines()
    lines[1:] = [json.dumps({**json.loads(ln), "noise_level": level})
                 for ln in lines[1:]]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["train", "--config", cfg, "--demos", str(bad)],
                 audit_argv(cfg, out, demos=str(bad))):
        assert cli.main(argv) == 1
        assert f"{bad}:2: noise_level" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    pytest.param("steps = 5", id="5"), pytest.param("steps = 12", id="12"),
    pytest.param("beta_max = 1.5", id="beta_max")])
@pytest.mark.parametrize("command", ["audit", "bench"])
def test_schedule_steps_must_match_denoiser(run, tmp_path, capsys, command,
                                            line):
    # the denoiser checkpoint carries its schedule, so the steps scored are
    # the denoiser's whatever the config's [schedule] says: audit and bench
    # give the same bytes as under the training run's own config
    cfg, out = run
    other = tmp_path / "other.ini"
    other.write_text(open(cfg).read() + f"\n[schedule]\n{line}\n")
    report = tmp_path / "audit.json"
    outputs = []
    for path in (cfg, str(other)):
        if command == "audit":
            argv = audit_argv(path, out)[:-1] + [str(report)]
        else:
            argv = bench_argv(path, out / "denoiser.json",
                              out / "generator.json")
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        if command == "audit":
            outputs.append((lines, report.read_bytes()))
        else:  # the timings differ from run to run; these lines do not
            kept = [ln for ln in lines if ln.startswith(
                ("trials,", "mean_abs_discrepancy,"))]
            assert len(kept) == 2
            outputs.append(kept)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threshold", [0, 10])
def test_audit_report_is_the_filter_pass_report(run, tmp_path, threshold):
    # the same store, checkpoints and config: audit --out writes the report
    # a filter pass gives, also where the min_demos floor decides it
    # (threshold 10 is above every step, so only the top steps are kept)
    cfg, out = run
    other = tmp_path / "other.ini"
    other.write_text(open(cfg).read().replace(
        "[filter]\n", f"[filter]\nstep_threshold = {threshold}\n"))
    assert cli.main(audit_argv(str(other), out)[:-1]
                    + [str(tmp_path / "audit.json")]) == 0
    exp = load_config(str(other))
    store = load_demos(str(out / "demos.jsonl"), include_rewards=True)
    report, _ = filter_dataset(
        store, cli._load_actor(exp, str(out / "denoiser.json"), "denoiser"),
        cli._load_actor(exp, str(out / "generator.json"), "generator"),
        exp.train.filter)
    steps = [r.predicted_step for r in report.records]
    cut = threshold if threshold == 0 else max(steps) - 1
    assert [r.verdict for r in report.records] == [
        "keep" if step > cut else "drop" for step in steps]
    save_filter_report(report, str(tmp_path / "pass.json"))
    assert (tmp_path / "audit.json").read_bytes() \
        == (tmp_path / "pass.json").read_bytes()


def test_fine_bin_width_costs_nothing_extra(run, capsys):
    # 1e-9 over returns that span tens of units is some 10^10 bins, of
    # which only the occupied ones are visited
    cfg, out = run
    start = time.perf_counter()
    assert cli.main(audit_argv(cfg, out) + ["--bin-width", "1e-9"]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("bin_lo,bin_hi,count,mean_step") + 1:-1]
    assert len(table) == 10
    assert all(row.split(",")[2] == "1" for row in table)


def test_floor_above_the_segment_count_keeps_every_pass(run, tmp_path,
                                                         capsys):
    # min_demos 100 over 10 segments: both scheduled passes run, each keeps
    # every segment, so the store keeps its 1,000 transitions
    cfg, out = run
    other = write_config(tmp_path / "cfg.ini", tmp_path)
    text = open(other).read().replace("min_demos = 1", "min_demos = 100")
    open(other, "w").write(text)
    assert cli.main(["train", "--config", other, "--demos",
                     str(out / "demos.jsonl")]) == 0
    stdout = capsys.readouterr().out
    assert "store_size=1000 filter_passes=2" in stdout
    summaries = json.load(open(tmp_path / "run.json"))["filter_summaries"]
    assert [(s["iteration"], s["n_kept"]) for s in summaries] == [
        (10, 10), (20, 10)]


@pytest.mark.parametrize("line", [
    "loss_norm = l1", "policy_optimize_every = 1", "filtering = true",
    "warp_factor = 9"])
def test_unknown_train_key_exits_1(tmp_path, capsys, line):
    cfg = write_config(tmp_path / "cfg.ini", tmp_path)
    text = open(cfg).read().replace("[train]\n", f"[train]\n{line}\n")
    open(cfg, "w").write(text)
    no = text.splitlines().index(line) + 1
    assert cli.main(["gen-data", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {cfg}:{no}: unknown key {line.split()[0]!r} in [train]")


@pytest.mark.parametrize("flag,progress_at", [
    ("", [10, 20]),                     # passes at 10 and 20, eval at 20
    ("--no-filter", [20]), ("--bc-baseline", [20])])
def test_progress_goes_to_stderr_and_stdout_keeps_its_line(
        run, tmp_path, capsys, flag, progress_at):
    cfg, out = run
    other = write_config(tmp_path / "cfg.ini", tmp_path)
    assert cli.main(["train", "--config", other, "--demos",
                     str(out / "demos.jsonl"), *filter(None, [flag])]) == 0
    captured = capsys.readouterr()
    rows = {int(r["iteration"]): r
            for r in csv.DictReader(open(tmp_path / "metrics.csv"))}
    last = rows[20]
    if flag == "--bc-baseline":
        assert captured.out == ("bc run complete: iterations=20 "
                                f"final_eval_mean={float(last['eval_mean'])}"
                                "\n")
    else:
        passes = json.load(open(tmp_path / "run.json"))["counters"][
            "filter_passes"]
        assert captured.out == (
            f"run complete: iterations=20 transitions=640 "
            f"final_eval_mean={float(last['eval_mean'])} "
            f"store_size={last['store_size']} filter_passes={passes}\n")
    lines = captured.err.splitlines()
    assert len(lines) == len(progress_at)
    for line, idx in zip(lines, progress_at):
        row = rows[idx]
        fields = [f"{key}={float(row[key]):.4g}"
                  for key in ("denoiser_loss", "policy_loss", "eval_mean")
                  if row.get(key)]
        assert re.fullmatch(rf"iteration {idx}/20 {' '.join(fields)} "
                            r"[\d,]+ transitions/s ETA \d+ s", line), line


@pytest.mark.parametrize("flag", ["--no-filter", "--bc-baseline"])
def test_manifest_says_the_run_did_not_filter(run, tmp_path, capsys, flag):
    cfg, out = run
    other = write_config(tmp_path / "cfg.ini", tmp_path)
    assert cli.main(["train", "--config", other, "--demos",
                     str(out / "demos.jsonl"), flag]) == 0
    if flag == "--no-filter":
        assert "filter_passes=0" in capsys.readouterr().out
    assert json.load(open(tmp_path / "run.json"))["filtering"] is False
    assert json.load(open(out / "run.json"))["filtering"] is True


def test_step_threshold_beyond_denoiser_exits_1(run, tmp_path, capsys):
    # a config whose own schedule admits the threshold, scoring a denoiser
    # of fewer steps: the message names both files
    cfg, out = run
    other = tmp_path / "other.ini"
    other.write_text(open(cfg).read().replace(
        "[filter]\n", "[filter]\nstep_threshold = 11\n")
        + "\n[schedule]\nsteps = 12\n")
    assert cli.main(audit_argv(str(other), out)) == 1
    assert capsys.readouterr().err == (
        f"error: config {other} does not fit denoiser {out / 'denoiser.json'}"
        f": step_threshold 11 outside 0..10\n")


@pytest.mark.parametrize("command", ["train", "audit"])
def test_header_only_demo_file_exits_1(run, tmp_path, capsys, command):
    cfg, out = run
    header = (out / "demos.jsonl").read_text().splitlines()[0]
    bad = tmp_path / "header_only.jsonl"
    bad.write_text(header + "\n")
    argv = (["train", "--config", cfg, "--demos", str(bad)]
            if command == "train" else audit_argv(cfg, out, demos=str(bad)))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: demo file {bad} holds no transitions\n")


@pytest.mark.parametrize("line,key,value", [
    (1, "horizon", "abc"),
    (1, "horizon", 100.5),
    (1, "env", "pendulum"),
    (1, "state_dim", 3),
    (2, "traj_id", "a"),
    (2, "traj_id", None),
    (2, "traj_id", 0.5),
    (2, "traj_id", True),       # would have merged with trajectory 1
    (3, "step", True),          # would have loaded as step 1
], ids=["string_horizon", "fractional_horizon", "unknown_env",
        "header_dims_not_the_envs", "string_traj_id", "null_traj_id",
        "fractional_traj_id", "bool_traj_id", "bool_step"])
def test_bad_demo_header_or_traj_id_exits_1(run, tmp_path, capsys, line, key,
                                            value):
    cfg, out = run
    lines = open(out / "demos.jsonl").read().splitlines()
    lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), key: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["train", "--config", cfg, "--demos", str(bad)],
                 audit_argv(cfg, out, demos=str(bad))):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: "), err
        assert key in err or "dims" in err, err


@pytest.mark.parametrize("line", [
    "beta_min = -1", "beta_min = 0", "beta_max = 0.01", "steps = 0"])
@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_bad_schedule_config_exits_1(tmp_path, capsys, command, line):
    cfg = write_config(tmp_path / "cfg.ini", tmp_path)
    with open(cfg, "a") as fh:
        fh.write(f"\n[schedule]\n{line}\n")
    no = open(cfg).read().splitlines().index(line) + 1
    assert cli.main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{no}: ")
    assert not os.path.exists(tmp_path / "demos.jsonl")


def test_non_utf8_demo_exits_1(run, tmp_path, capsys):
    cfg, out = run
    lines = (out / "demos.jsonl").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:20] + b"\xff" + lines[2][21:]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    argv = ["train", "--config", cfg, "--demos", str(bad), "--bc-baseline"]
    assert cli.main(argv) == 1
    assert f"{bad}:3:" in capsys.readouterr().err


def test_non_utf8_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.ini", tmp_path)
    data = bytearray(open(cfg, "rb").read())
    data[data.index(b"seed") + 1] = 0x84  # on line 3
    open(cfg, "wb").write(data)
    assert cli.main(["gen-data", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3:")
    assert not os.path.exists(tmp_path / "demos.jsonl")


def test_missing_demos_exits_1(run, tmp_path, capsys):
    cfg, _ = run
    missing = str(tmp_path / "nowhere.jsonl")
    assert cli.main(["train", "--config", cfg, "--demos", missing]) == 1
    assert missing in capsys.readouterr().err


def test_empty_noise_levels_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini", tmp_path, data="noise_levels =")
    assert cli.main(["gen-data", "--config", cfg]) == 1
    assert f"{cfg}:6:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "demos.jsonl")


@pytest.mark.parametrize("section,line", [
    ("data", "noise_levels = 0.0, nan"), ("data", "noise_levels = 0.0, inf"),
    ("train", "learning_rate = nan"), ("train", "ema_decay = -inf"),
    ("schedule", "beta_min = nan"), ("schedule", "beta_max = inf"),
])
def test_non_finite_config_value_exits_1(tmp_path, capsys, section, line):
    cfg = write_config(tmp_path / "cfg.ini", tmp_path)
    text = open(cfg).read()
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    else:
        text += f"\n[{section}]\n{line}\n"
    open(cfg, "w").write(text)
    no = text.splitlines().index(line) + 1
    assert cli.main(["gen-data", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{no}:")
    assert not os.path.exists(tmp_path / "demos.jsonl")


@pytest.mark.parametrize("text,bad", [
    ("[train]\nbatch_size = 0\n", "batch_size = 0"),
    ("[train]\nema_decay = 2\n", "ema_decay = 2"),
    ("[train]\neval_episodes = 0\n", "eval_episodes = 0"),
    ("[train]\nlearning_rate = -0.1\n", "learning_rate = -0.1"),
    ("[env]\nhorizon = 0\n", "horizon = 0"),
    ("[filter]\nmin_demos = 0\n", "min_demos = 0"),
    # cross-field checks name whichever of their keys the file sets: here
    # the budget under the default batch size of 128, then a batch size
    # over the default budget, then a threshold over the file's steps
    ("[train]\ntransition_budget = 5\n", "transition_budget = 5"),
    ("[train]\nbatch_size = 600000\n", "batch_size = 600000"),
    ("[schedule]\nsteps = 4\n\n[filter]\nstep_threshold = 6\n",
     "step_threshold = 6"),
    # configparser reads keys in any case, and their line is found so too
    ("[train]\nBatch_Size = 0\n", "Batch_Size = 0"),
    ("[train]\nBatch_Size = x\n", "Batch_Size = x"),
], ids=["batch_size", "ema_decay", "eval_episodes", "learning_rate",
        "horizon", "min_demos", "budget_under_batch", "batch_over_budget",
        "threshold_over_steps", "mixed_case_range", "mixed_case_value"])
def test_bad_config_value_names_its_line(tmp_path, capsys, text, bad):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[experiment]\noutput_dir = {tmp_path}\nseed = 3\n\n"
                   f"{text}")
    no = cfg.read_text().splitlines().index(bad) + 1
    assert cli.main(["gen-data", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{no}: ")
    assert not os.path.exists(tmp_path / "demos.jsonl")


def test_print_config_holds_the_defaults(tmp_path, capsys):
    # the text CI and scripts/quality.py start from sets every key, and
    # every one outside [experiment] to the code's default, so a changed
    # default cannot leave the printed config behind; [experiment] names
    # a run and a seed of its own on purpose
    assert cli.main(["print-config"]) == 0
    text = capsys.readouterr().out
    parsed = configparser.ConfigParser()
    parsed.read_string(text)
    assert {section: set(parsed[section]) for section in parsed.sections()} \
        == {section: set(keys) for section, keys in config_mod._SCHEMA.items()}
    path = tmp_path / "default.ini"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg.env == make_env_spec()
    assert cfg.data == DataConfig()
    assert cfg.train == TrainConfig()  # with [schedule] and [filter]
    default = config_mod.ExperimentConfig()
    assert (cfg.run_id, cfg.output_dir, cfg.seed) == (
        "pointmass-default", "runs/pointmass-default", 7)
    assert (default.run_id, default.output_dir, default.seed) == (
        "run", "runs/run", 0)


def test_unset_keys_take_the_dataclass_defaults(tmp_path, monkeypatch):
    # load_config passes only the keys a file sets, so a changed dataclass
    # default reaches a config that does not set the key
    @dataclasses.dataclass
    class Experiment(config_mod.ExperimentConfig):
        run_id: str = "other"
        seed: int = 5

    @dataclasses.dataclass
    class Train(TrainConfig):
        diffusion_steps: int = 12
        beta_min: float = 0.01
        beta_max: float = 0.9

    monkeypatch.setattr(config_mod, "ExperimentConfig", Experiment)
    monkeypatch.setattr(config_mod, "TrainConfig", Train)
    path = tmp_path / "empty.ini"
    path.write_text("")
    cfg = load_config(str(path))
    assert (cfg.run_id, cfg.output_dir, cfg.seed) == ("other", "runs/other",
                                                      5)
    assert (cfg.train.diffusion_steps, cfg.train.beta_min,
            cfg.train.beta_max) == (12, 0.01, 0.9)


def bench_argv(cfg, denoiser, generator):
    return ["bench", "--config", cfg, "--denoiser", str(denoiser),
            "--generator", str(generator), "--trials", "2"]


def rewrite_checkpoint(src, dst, edit, seal=True):
    """Copy checkpoint ``src`` to ``dst`` with its payload passed through
    ``edit`` and, with ``seal``, its CRC made to fit; return the copy's
    path."""
    payload = json.load(open(src))
    edit(payload)
    dst.write_text(json.dumps(seal_checkpoint(payload) if seal else payload))
    return str(dst)


def vector(payload, key):
    """A checkpoint's ``key`` vector, decoded in the dtype its arch names."""
    dtype = np.dtype(payload["arch"]["dtype"]).newbyteorder("<")
    return np.frombuffer(base64.b64decode(payload[key]), dtype=dtype)


def set_vector(payload, key, vec):
    payload[key] = base64.b64encode(vec.tobytes()).decode("ascii")


def shapes(payload):
    """The per-tensor shapes of a checkpoint's ``params``."""
    return FeedForwardNet.shapes(payload["arch"]["widths"])


def set_params_value(payload, value):
    # the first value of the second tensor, as written in the arch's dtype
    params = vector(payload, "params").copy()
    params[math.prod(shapes(payload)[0])] = value
    set_vector(payload, "params", params)


def drop_params(payload):
    del payload["params"]


def wrong_shape(payload):
    # the second tensor of params one value short
    params = vector(payload, "params")
    end = math.prod(shapes(payload)[0]) + math.prod(shapes(payload)[1])
    set_vector(payload, "params",
               np.concatenate([params[:end - 1], params[end:]]))


def nan_in_ema(payload):
    # params holds the EMA shadow training saved
    set_params_value(payload, np.nan)


def float32_overflow(payload):
    # the float32 bit pattern of +inf, to which a decimal 1e39 would round
    assert payload["arch"]["dtype"] == "float32"
    set_params_value(payload, np.float32(np.inf))


def bad_arch(payload):
    payload["arch"] = "generator"


def unknown_dtype(payload):
    payload["arch"]["dtype"] = "float16"


def non_string_dtype(payload):
    payload["arch"]["dtype"] = ["float32"]


def missing_dtype(payload):
    del payload["arch"]["dtype"]


def version_1(payload):
    # the first format: per-tensor decimal lists of the live and the EMA
    # vectors, no crc32
    flat = vector(payload, "params")
    payload["params"] = payload["ema"] = [
        flat[at].reshape(shape).tolist()
        for at, shape in tensor_layout(shapes(payload))]
    payload["format_version"] = 1
    del payload["crc32"]


def version_2(payload):
    # the second format: base64 live and EMA vectors beside a per-tensor
    # shapes list, and a generator arch with action bounds
    payload["format_version"] = 2
    payload["shapes"] = [list(shape) for shape in shapes(payload)]
    payload["ema"] = payload["params"]
    payload["arch"].update(action_low=-1.0, action_high=1.0)


def no_widths(payload):
    del payload["arch"]["widths"]


def bad_widths(payload):
    payload["arch"]["widths"][1] = 0


def string_widths(payload):
    payload["arch"]["widths"] = "4,256,256,256,2"


def other_widths(payload):
    # widths whose tensors need more bytes than params holds
    payload["arch"]["widths"][1] += 1


def bad_crc(payload):
    payload["crc32"] ^= 1


def no_betas(payload):
    del payload["arch"]["beta_min"], payload["arch"]["beta_max"]


def nan_beta(payload):
    payload["arch"]["beta_max"] = float("nan")


def zero_beta_min(payload):
    payload["arch"]["beta_min"] = 0.0


def string_beta(payload):
    payload["arch"]["beta_min"] = "0.05"


def step_embedding(payload):
    # a denoiser saved while the step entered through a learned embedding:
    # a (T+1) x 32 table ahead of the tensors its widths give, and W0
    # taking 32 embedding columns in place of the T+1 one-hot ones
    arch = payload["arch"]
    arch["embed_dim"] = 32
    arch["widths"][0] = arch["state_dim"] + arch["action_dim"] + 32
    size = (arch["T"] + 1) * 32 + FeedForwardNet.size(arch["widths"])
    set_vector(payload, "params",
               np.zeros(size, dtype=vector(payload, "params").dtype))


@pytest.mark.parametrize("fault", ["missing", "truncated", "not_utf8",
                                   "no_params", "wrong_shape", "nan_in_ema",
                                   "float32_overflow", "bad_arch",
                                   "unknown_dtype", "non_string_dtype",
                                   "missing_dtype",
                                   "version_1", "bad_crc", "step_embedding",
                                   "no_betas", "nan_beta", "zero_beta_min",
                                   "string_beta", "version_2", "no_widths",
                                   "bad_widths", "string_widths",
                                   "other_widths"])
def test_bad_checkpoint_exits_1(run, tmp_path, capsys, fault):
    cfg, out = run
    denoiser_faults = ("step_embedding", "no_betas", "nan_beta",
                       "zero_beta_min", "string_beta")
    role = "denoiser" if fault in denoiser_faults else "generator"
    good = out / f"{role}.json"
    bad = tmp_path / "bad.json"
    if fault == "missing":
        where = str(bad)
    elif fault == "truncated":
        bad.write_bytes(good.read_bytes()[:35])
        where = f"{bad}:1:"
    elif fault == "not_utf8":
        data = good.read_bytes()
        bad.write_bytes(data[:40] + b"\xff" + data[41:])
        where = str(bad)
    else:
        edit = {"no_params": drop_params, "wrong_shape": wrong_shape,
                "nan_in_ema": nan_in_ema, "float32_overflow": float32_overflow,
                "bad_arch": bad_arch, "unknown_dtype": unknown_dtype,
                "non_string_dtype": non_string_dtype,
                "missing_dtype": missing_dtype, "version_1": version_1,
                "bad_crc": bad_crc, "step_embedding": step_embedding,
                "no_betas": no_betas, "nan_beta": nan_beta,
                "zero_beta_min": zero_beta_min,
                "string_beta": string_beta, "version_2": version_2,
                "no_widths": no_widths, "bad_widths": bad_widths,
                "string_widths": string_widths,
                "other_widths": other_widths}[fault]
        rewrite_checkpoint(good, bad, edit,
                           seal=fault not in ("version_1", "bad_crc"))
        where = {"version_1": f"{bad} has format_version 1",
                 "version_2": f"{bad} has format_version 2",
                 "bad_crc": f"{bad}: CRC mismatch",
                 "no_widths": f"{bad}: missing or bad arch 'widths'",
                 "bad_widths": f"{bad}: missing or bad arch 'widths'",
                 "string_widths": f"{bad}: missing or bad arch 'widths'",
                 "other_widths": f"{bad}: 'params' holds",
                 "wrong_shape": f"{bad}: 'params' holds",
                 "step_embedding": f"{bad}: 'params' holds",
                 }.get(fault, str(bad))
    paths = {"denoiser": out / "denoiser.json",
             "generator": out / "generator.json", role: bad}
    assert cli.main(bench_argv(cfg, paths["denoiser"], paths["generator"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err


@pytest.mark.parametrize("command,denoiser,generator", [
    ("audit", "generator", "denoiser"), ("audit", "denoiser", "denoiser"),
    ("bench", "generator", "generator"),
])
def test_wrong_role_exits_1(run, capsys, command, denoiser, generator):
    cfg, out = run
    argv = [command, "--config", cfg,
            "--denoiser", str(out / f"{denoiser}.json"),
            "--generator", str(out / f"{generator}.json")]
    argv += (["--demos", str(out / "demos.jsonl")] if command == "audit"
             else ["--trials", "2"])
    assert cli.main(argv) == 1
    wrong = "generator" if denoiser == "generator" else "denoiser"
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {out / wrong}.json holds role "
                          f"'{wrong}'")


@pytest.mark.parametrize("swapped", ["both", "denoiser", "generator"])
@pytest.mark.parametrize("command", ["audit", "bench"])
def test_checkpoint_of_another_env_exits_1(run, tmp_path, capsys, command,
                                           swapped):
    # double_integrator_1d checkpoints (state 2, action 1) under the run's
    # pointmass2d config (state 4, action 2)
    cfg, out = run
    env = make_env_spec("double_integrator_1d")
    nets = {"denoiser": NoiseModel(env.state_dim, env.action_dim, 10,
                                   SeededRng(1), hidden=(4,)),
            "generator": GeneratorPolicy(env.state_dim, env.action_dim,
                                         SeededRng(2), hidden=(4,))}
    paths = {role: out / f"{role}.json" for role in nets}
    for role, net in nets.items():
        if swapped in (role, "both"):
            paths[role] = tmp_path / f"{role}.json"
            save_checkpoint(str(paths[role]), net)
    argv = [command, "--config", cfg, "--denoiser", str(paths["denoiser"]),
            "--generator", str(paths["generator"])]
    argv += (["--demos", str(out / "demos.jsonl")] if command == "audit"
             else ["--trials", "2"])
    assert cli.main(argv) == 1
    bad = paths["generator" if swapped == "generator" else "denoiser"]
    assert capsys.readouterr().err == (
        f"error: checkpoint {bad} dims (state 2, action 1) do not match "
        f"config env pointmass2d dims (state 4, action 2)\n")


def refusals(argvs, demos, capsys, monkeypatch):
    """Run each argv, which must exit 1, on the demo file at ``demos`` from
    its ``.store`` copy (which the run fixture's train left), then with the
    copy removed. Returns the stderr of each, which must be the same bytes
    both ways; the parse that refuses the file writes no copy."""
    copy = demos + ".store"
    saved = open(copy, "rb").read()
    errs = []
    for argv in argvs:
        with monkeypatch.context() as m:
            m.setattr(envs_mod, "_parse_demos", None)   # a hit never parses
            assert cli.main(argv) == 1
        errs.append(capsys.readouterr().err)
        os.remove(copy)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == errs[-1]
        assert not os.path.exists(copy)
        open(copy, "wb").write(saved)
    return errs


def test_demos_of_another_env_exit_1(run, tmp_path, capsys, monkeypatch):
    # the run's pointmass2d demo file under every other registered env
    cfg, out = run
    demos = str(out / "demos.jsonl")
    for name in sorted(set(ENV_WIDTHS) - {"pointmass2d"}):
        other = tmp_path / f"{name}.ini"
        other.write_text(open(cfg).read() + f"\n[env]\nname = {name}\n")
        errs = refusals([["train", "--config", str(other), "--demos", demos],
                         audit_argv(str(other), out)], demos, capsys,
                        monkeypatch)
        assert errs == 2 * [
            f"error: {demos}:1: demo file header env pointmass2d "
            f"(horizon 100) is not config env {name} (horizon 100)\n"]


def test_demos_of_another_horizon_exit_1(run, tmp_path, capsys, monkeypatch):
    # the header names the run's env at horizon 100; a horizon-50 config
    # neither trains on the file nor audits it, and writes nothing
    cfg, out = run
    other = tmp_path / "h50.ini"
    write_config(other, tmp_path / "h50")
    other.write_text(other.read_text() + "\n[env]\nhorizon = 50\n")
    demos = str(out / "demos.jsonl")
    errs = refusals([["train", "--config", str(other), "--demos", demos],
                     audit_argv(str(other), out)], demos, capsys, monkeypatch)
    assert errs == 2 * [
        f"error: {demos}:1: demo file header env pointmass2d (horizon "
        f"100) is not config env pointmass2d (horizon 50)\n"]
    assert not (tmp_path / "h50").exists()


def test_the_env_is_checked_before_the_body_is_read(run, tmp_path, capsys):
    # a malformed line 3 under another env's config: the header's line is
    # named, not line 3's; and a valid file under that config is refused
    # before it is parsed to the end, so it gets no copy
    cfg, out = run
    lines = (out / "demos.jsonl").read_bytes().splitlines(keepends=True)
    other = tmp_path / "di1d.ini"
    write_config(other, tmp_path / "di1d")
    other.write_text(other.read_text()
                     + "\n[env]\nname = double_integrator_1d\n")
    refused = (f"demo file header env pointmass2d (horizon 100) is not "
               f"config env double_integrator_1d (horizon 100)\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(
        [*lines[:2], lines[2].replace(b'"step"', b'"stop"', 1), *lines[3:]]))
    assert cli.main(["train", "--config", cfg, "--demos", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:3: bad demo record")
    valid = tmp_path / "valid.jsonl"
    valid.write_bytes(b"".join(lines))
    for path in (bad, valid):
        for argv in (["train", "--config", str(other), "--demos", str(path)],
                     audit_argv(str(other), out, str(path))):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error: {path}:1: {refused}"
    assert sorted(os.listdir(tmp_path)) == ["bad.jsonl", "di1d.ini",
                                            "valid.jsonl"]


def test_envless_demos_are_checked_by_width(run, tmp_path, capsys):
    # a header whose env is null names no horizon: its widths must be the
    # config env's
    cfg, out = run
    lines = (out / "demos.jsonl").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header.update(env=None, horizon=None)
    demos = tmp_path / "envless.jsonl"
    demos.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    other = tmp_path / "di1d.ini"
    write_config(other, tmp_path / "di1d")
    other.write_text(other.read_text()
                     + "\n[env]\nname = double_integrator_1d\n")
    for argv in (["train", "--config", str(other), "--demos", str(demos)],
                 audit_argv(str(other), out, str(demos))):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {demos}:1: header dims (state 4, action 2) do not match "
            f"env double_integrator_1d dims (state 2, action 1)\n")


def test_envless_demos_longer_than_the_horizon_exit_1(run, tmp_path, capsys):
    # a null-env, null-horizon file of horizon-150 trajectories under a
    # horizon-100 config: refused at the line of trajectory 0's step 100,
    # the same bytes from the copy a load under no env left and from a
    # parse, with nothing written
    cfg, out = run
    long_cfg = write_config(tmp_path / "h150.ini", tmp_path / "h150")
    with open(long_cfg, "a") as fh:
        fh.write("\n[env]\nhorizon = 150\n")
    assert cli.main(["gen-data", "--config", long_cfg]) == 0
    demos = tmp_path / "h150" / "demos.jsonl"
    lines = demos.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header.update(env=None, horizon=None)
    demos.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert load_demos(str(demos)).rows[0][1] == 150
    copy = open(f"{demos}.store", "rb").read()
    short_cfg = write_config(tmp_path / "h100.ini", tmp_path / "h100")
    audit = audit_argv(short_cfg, out, str(demos))
    audit[-1] = str(tmp_path / "audit.json")
    refused = (f"error: {demos}:102: trajectory 0 has step 100, past env "
               f"pointmass2d's horizon 100\n")
    for argv in (["train", "--config", short_cfg, "--demos", str(demos)],
                 audit):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == refused
        assert open(f"{demos}.store", "rb").read() == copy
        os.remove(f"{demos}.store")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == refused
        assert not os.path.exists(f"{demos}.store")
        open(f"{demos}.store", "wb").write(copy)
    assert sorted(os.listdir(tmp_path)) == ["h100.ini", "h150", "h150.ini"]
    assert sorted(os.listdir(tmp_path / "h150")) == ["demos.jsonl",
                                                     "demos.jsonl.store"]


@pytest.fixture(scope="module")
def small_run(run, tmp_path_factory):
    """Small-network checkpoints for the run's env and a copy of its demo
    file: (config path, denoiser, generator, demo bytes, scratch dir)."""
    cfg, out = run
    env = load_config(cfg).env
    tmp = tmp_path_factory.mktemp("small")
    nets = {"denoiser": NoiseModel(env.state_dim, env.action_dim, 10,
                                   SeededRng(1), hidden=(4,)),
            "generator": GeneratorPolicy(env.state_dim, env.action_dim,
                                         SeededRng(2), hidden=(4,))}
    paths = {}
    for role, net in nets.items():
        paths[role] = tmp / f"{role}.json"
        save_checkpoint(str(paths[role]), net)
    assert cli.main(bench_argv(cfg, paths["denoiser"],
                               paths["generator"])) == 0
    return (cfg, paths["denoiser"], paths["generator"],
            (out / "demos.jsonl").read_bytes(), tmp)


def quiet_main(argv):
    """cli.main's exit code and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0, exclude_max=True))
def test_cut_checkpoint_exits_1(small_run, frac):
    cfg, denoiser, generator, _, tmp = small_run
    data = generator.read_bytes()
    cut = tmp / "cut.json"
    cut.write_bytes(data[:int(frac * len(data))])
    code, _, err = quiet_main(bench_argv(cfg, denoiser, cut))
    assert code == 1
    assert err.startswith("error:") and str(cut) in err


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0))
def test_cut_demo_file_never_raises(small_run, frac):
    cfg, denoiser, generator, demos, tmp = small_run
    cut = tmp / "cut.jsonl"
    cut.write_bytes(demos[:int(frac * len(demos))])
    code, _, err = quiet_main(["audit", "--config", cfg, "--denoiser",
                               str(denoiser), "--generator", str(generator),
                               "--demos", str(cut)])
    assert code in (0, 1)
    assert code == 0 or err.startswith("error:")


def flip_byte(data: bytes, frac: float, delta: int) -> bytes:
    """``data`` with the byte at fraction ``frac`` of its length changed by
    adding ``delta`` (1 to 255) modulo 256."""
    flipped = bytearray(data)
    at = int(frac * len(data))
    flipped[at] = (flipped[at] + delta) % 256
    return bytes(flipped)


@settings(max_examples=40, deadline=None)
@given(role=st.sampled_from(["denoiser", "generator"]),
       frac=st.floats(0.0, 1.0, exclude_max=True),
       delta=st.integers(1, 255))
def test_flipped_checkpoint_byte_is_caught(small_run, role, frac, delta):
    _, denoiser, generator, _, tmp = small_run
    good = {"denoiser": denoiser, "generator": generator}[role]
    flipped = tmp / "flipped.json"
    flipped.write_bytes(flip_byte(good.read_bytes(), frac, delta))
    try:
        got = load_checkpoint(str(flipped))
    except ValidationError as exc:
        assert str(flipped) in str(exc)
        return
    # a change that leaves the JSON's meaning intact, such as other whitespace
    want = load_checkpoint(str(good))
    assert (got["role"], got["arch"]) == (want["role"], want["arch"])
    assert got["params"].tobytes() == want["params"].tobytes()


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0, exclude_max=True),
       delta=st.integers(1, 255))
def test_flipped_config_byte_never_raises(small_run, frac, delta):
    cfg, denoiser, generator, demos, tmp = small_run
    flipped = tmp / "flipped.ini"
    flipped.write_bytes(flip_byte(open(cfg, "rb").read(), frac, delta))
    demo_path = tmp / "demos.jsonl"
    demo_path.write_bytes(demos)
    code, _, err = quiet_main(["audit", "--config", str(flipped),
                               "--denoiser", str(denoiser), "--generator",
                               str(generator), "--demos", str(demo_path)])
    assert code in (0, 1)
    assert code == 0 or err.startswith("error:")
