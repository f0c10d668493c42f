import base64
import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smile.cli as cli
import smile.config as config_mod
from smile.config import DataConfig, load_config
from smile.diffusion import NoiseModel
from smile.envs import make_env_spec
from smile.errors import ValidationError
from smile.mathcore import (SeededRng, load_checkpoint, reshape_views,
                            save_checkpoint)
from smile.policy import GeneratorPolicy
from smile.trainer import TrainConfig

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
        acted.append(len(s))
        return real_act(self, s)

    monkeypatch.setattr(cli, "score_dataset", score)
    monkeypatch.setattr(GeneratorPolicy, "act", act)
    assert cli.main(audit_argv(cfg, out)) == 0
    assert scored == [1]
    assert acted == [1000]  # one policy call over all 10 x 100 transitions


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
], ids=["truncated", "nan", "repeated_step", "string_step",
        "noise_level_changes"])
def test_bad_demo_line_exits_1(run, tmp_path, capsys, edit):
    cfg, out = run
    bad = corrupt_demos(out, tmp_path, edit)
    for argv in (["train", "--config", cfg, "--demos", bad],
                 audit_argv(cfg, out, demos=bad)):
        assert cli.main(argv) == 1
        assert f"{bad}:3:" in capsys.readouterr().err


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


@pytest.mark.parametrize("steps", [5, 12])
@pytest.mark.parametrize("command", ["audit", "bench"])
def test_schedule_steps_must_match_denoiser(run, tmp_path, capsys, command,
                                            steps):
    cfg, out = run
    other = tmp_path / "steps.ini"
    other.write_text(open(cfg).read() + f"\n[schedule]\nsteps = {steps}\n")
    argv = (audit_argv(str(other), out) if command == "audit" else
            bench_argv(str(other), out / "denoiser.json",
                       out / "generator.json"))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {out / 'denoiser.json'} has a T = 10 step "
        f"denoiser, but the config's [schedule] steps = {steps}\n")


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


def set_ema_value(payload, value):
    # the first value of the second tensor, as written in the arch's dtype
    ema = vector(payload, "ema").copy()
    ema[math.prod(payload["shapes"][0])] = value
    set_vector(payload, "ema", ema)


def drop_params(payload):
    del payload["params"]


def wrong_shape(payload):
    # the second tensor of ema one value short
    ema = vector(payload, "ema")
    end = math.prod(payload["shapes"][0]) + math.prod(payload["shapes"][1])
    set_vector(payload, "ema", np.concatenate([ema[:end - 1], ema[end:]]))


def nan_in_ema(payload):
    set_ema_value(payload, np.nan)


def float32_overflow(payload):
    # the float32 bit pattern of +inf, to which a decimal 1e39 would round
    assert payload["arch"]["dtype"] == "float32"
    set_ema_value(payload, np.float32(np.inf))


def bad_arch(payload):
    payload["arch"] = "generator"


def unknown_dtype(payload):
    payload["arch"]["dtype"] = "float16"


def non_string_dtype(payload):
    payload["arch"]["dtype"] = ["float32"]


def version_1(payload):
    # the previous format: per-tensor decimal lists, no shapes or crc32
    for key in ("params", "ema"):
        payload[key] = [a.tolist() for a in reshape_views(
            vector(payload, key), payload["shapes"])]
    payload["format_version"] = 1
    del payload["shapes"], payload["crc32"]


def bad_crc(payload):
    payload["crc32"] ^= 1


def step_embedding(payload):
    # a denoiser saved while the step entered through a learned embedding:
    # a (T+1) x 32 table first, and W0 taking 32 embedding columns in place
    # of the T+1 one-hot ones
    arch = payload["arch"]
    k = arch["state_dim"] + arch["action_dim"]
    arch["embed_dim"] = 32
    arch["widths"][0] = k + 32
    payload["shapes"][:1] = [[arch["T"] + 1, 32], [k + 32, arch["widths"][1]]]
    size = sum(math.prod(shape) for shape in payload["shapes"])
    for key in ("params", "ema"):
        set_vector(payload, key,
                   np.zeros(size, dtype=vector(payload, key).dtype))


@pytest.mark.parametrize("fault", ["missing", "truncated", "not_utf8",
                                   "no_params", "wrong_shape", "nan_in_ema",
                                   "float32_overflow", "bad_arch",
                                   "unknown_dtype", "non_string_dtype",
                                   "version_1", "bad_crc", "step_embedding"])
def test_bad_checkpoint_exits_1(run, tmp_path, capsys, fault):
    cfg, out = run
    role = "denoiser" if fault == "step_embedding" else "generator"
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
                "non_string_dtype": non_string_dtype, "version_1": version_1,
                "bad_crc": bad_crc, "step_embedding": step_embedding}[fault]
        rewrite_checkpoint(good, bad, edit,
                           seal=fault not in ("version_1", "bad_crc"))
        where = {"version_1": f"{bad} has format_version 1",
                 "bad_crc": f"{bad}: CRC mismatch"}.get(fault, str(bad))
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
        save_checkpoint(str(paths[role]), role, net, net.flat)
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
    for key in ("params", "ema"):
        assert [a.tobytes() for a in got[key]] == \
            [a.tobytes() for a in want[key]]


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
