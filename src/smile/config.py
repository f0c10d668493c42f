"""Experiment configuration: a flat, sectioned INI file that fully determines
a run. Unknown sections or keys are rejected with the offending line number,
as are unparseable and non-finite values, so a config either loads fully
validated or not at all.

The diffusion schedule lives here as (steps, beta_min, beta_max) — raw sigma
arrays are never serialized. All randomness in a run flows from the single
[experiment] seed, fanned out as derive_seed(seed, purpose_tag).
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field

from .envs import DEFAULT_NOISE_LEVELS, EnvSpec, make_env_spec
from .errors import ConfigError
from .expertise import FilterConfig
from .trainer import TrainConfig


@dataclass
class DataConfig:
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    per_level: int = 10
    demo_file: str = "demos.jsonl"


@dataclass
class ExperimentConfig:
    run_id: str = "run"
    output_dir: str | None = None  # runs/<run_id> when unset
    seed: int = 0
    env: EnvSpec = field(default_factory=make_env_spec)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.output_dir is None:
            self.output_dir = f"runs/{self.run_id}"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw.strip()!r}")
    return value


def _parse_levels(raw: str) -> tuple[float, ...]:
    levels = tuple(_parse_float(x) for x in raw.split(",") if x.strip())
    if not levels or min(levels) < 0:
        raise ValueError("need one or more noise levels, all >= 0")
    return levels


def _parse_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


# section -> key -> parser
_SCHEMA = {
    "experiment": {"run_id": str, "output_dir": str, "seed": int},
    "env": {"name": str, "horizon": int},
    "data": {"noise_levels": _parse_levels, "per_level": _parse_count,
             "demo_file": str},
    "schedule": {"steps": int, "beta_min": _parse_float,
                 "beta_max": _parse_float},
    "train": {"batch_size": int, "learning_rate": _parse_float,
              "denoiser_optimize_every": int, "policy_optimize_every": int,
              "update_ema_every": int, "ema_decay": _parse_float,
              "ema_warmup_steps": int, "transition_budget": int,
              "eval_every": int, "eval_episodes": int,
              "loss_norm": str, "filtering": _parse_bool},
    "filter": {"filter_every": int, "min_demos": int, "step_threshold": int,
               "max_demo_len": int},
}


def _line_of(lines: list[str], pattern: str) -> int | None:
    rx = re.compile(pattern)
    for i, line in enumerate(lines, start=1):
        if rx.match(line):
            return i
    return None


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        no = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{no}: not UTF-8: {exc.reason}") from exc
    lines = text.splitlines()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values: dict[str, dict] = {sec: {} for sec in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            line = _line_of(lines, rf"\s*\[{re.escape(section)}\]")
            raise ConfigError(
                f"{path}:{line}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                line = _line_of(lines, rf"\s*{re.escape(key)}\s*[=:]")
                raise ConfigError(
                    f"{path}:{line}: unknown key {key!r} in [{section}]")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except (ValueError, TypeError) as exc:
                line = _line_of(lines, rf"\s*{re.escape(key)}\s*[=:]")
                raise ConfigError(
                    f"{path}:{line}: bad value for {section}.{key}: {exc}"
                ) from exc

    try:
        env = make_env_spec(**values["env"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # only the keys the file sets, so the dataclasses hold the defaults
    renamed = {"learning_rate": "lr", "steps": "diffusion_steps"}
    train = TrainConfig(filter=FilterConfig(**values["filter"]), **{
        renamed.get(key, key): value
        for key, value in {**values["schedule"], **values["train"]}.items()})
    try:
        train.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig(**values["experiment"], env=env,
                            data=DataConfig(**values["data"]), train=train)


DEFAULT_CONFIG = """\
[experiment]
run_id = pointmass-default
output_dir = runs/pointmass-default
seed = 7

[env]
name = pointmass2d
horizon = 100

[data]
noise_levels = 0.0, 0.25, 0.5, 0.75, 1.0
per_level = 10
demo_file = demos.jsonl

[schedule]
steps = 10
beta_min = 0.05
beta_max = 0.6

[train]
batch_size = 128
learning_rate = 1e-3
denoiser_optimize_every = 10
policy_optimize_every = 1
update_ema_every = 10
ema_decay = 0.95
ema_warmup_steps = 200
transition_budget = 500000
eval_every = 2500
eval_episodes = 10
loss_norm = l1
filtering = true

[filter]
filter_every = 2500
min_demos = 10
step_threshold = 1
max_demo_len = 100
"""
