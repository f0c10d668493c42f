import base64
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smile.cli as cli
import smile.config as config_mod
from smile.config import DataConfig, load_config
from smile.diffusion import NoiseModel
from smile.envs import load_demos, make_env_spec
from smile.errors import ValidationError
from smile.expertise import filter_dataset, save_filter_report
from smile.mathcore import (FeedForwardNet, SeededRng, derive_seed,
                            load_checkpoint, reshape_views, save_checkpoint)
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
    states, _ = load_demos(str(out / "demos.jsonl")).sample_all()
    assert np.array_equal(np.concatenate(acted), states)


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
    store = load_demos(demos, include_rewards=False)
    store.env = exp.env
    snap, _, _ = train_bc(exp.train, store,
                          SeededRng(derive_seed(exp.seed, "train")))
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
    report = filter_dataset(
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
    assert cli.main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
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


def test_print_config_holds_the_defaults(tmp_path, capsys):
    assert cli.main(["print-config"]) == 0
    path = tmp_path / "default.ini"
    path.write_text(capsys.readouterr().out)
    cfg = load_config(str(path))
    assert cfg.env == make_env_spec("pointmass2d")
    assert cfg.data == DataConfig()
    assert cfg.train == TrainConfig()  # with [schedule] and [filter]


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
    payload["params"] = payload["ema"] = [a.tolist() for a in reshape_views(
        vector(payload, "params"), shapes(payload))]
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


def test_demos_of_another_env_exit_1(run, tmp_path, capsys):
    cfg, out = run
    other = tmp_path / "other.ini"
    other.write_text(open(cfg).read()
                     + "\n[env]\nname = double_integrator_1d\n")
    demos = str(out / "demos.jsonl")
    for argv in (["train", "--config", str(other), "--demos", demos],
                 audit_argv(str(other), out)):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: demo file {demos} dims (state 4, action 2) do not match "
            f"config env double_integrator_1d dims (state 2, action 1)\n")


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
