"""Command-line surface: data generation, training, dataset auditing, and the
reverse-process benchmark, all driven by one config file.

Commands never mutate a demo file in place — training filters an in-memory
copy and writes the surviving store to a new file. Exit codes are stable for
scripting: 0 success, 1 validation error, 2 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import envs as envs_mod
from .config import DEFAULT_CONFIG, ExperimentConfig, load_config
from .diffusion import NoiseModel
from .errors import (ConfigError, InvalidInputError, SmileError,
                     ValidationError)
from .expertise import FilterReport, save_filter_report, score_dataset
from .mathcore import (SeededRng, derive_seed, keep_temporaries_on_heap,
                       load_checkpoint)
from .policy import BcBaseline, GeneratorPolicy
from .trainer import audit_bins, bench_reverse, train, train_bc

# the network class of each checkpoint role
ROLES = {cls.role: cls for cls in (NoiseModel, GeneratorPolicy, BcBaseline)}


def _resolve(cfg: ExperimentConfig, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(cfg.output_dir, path)


def _load_actor(cfg: ExperimentConfig, path: str, *roles: str):
    """The network a checkpoint of one of ``roles`` describes, holding its
    ``params`` (the EMA shadow training saved); a denoiser brings the
    schedule its arch names. Its state and action dims must be those of the
    config's env."""
    payload = load_checkpoint(path)
    role = payload.get("role")
    if role not in roles:
        raise ValidationError(f"checkpoint {path} holds role {role!r}, "
                              f"expected {' or '.join(roles)}")
    try:
        actor = ROLES[role].from_arch(payload["arch"])
        actor.set_params(payload["params"])
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"checkpoint {path} does not fit its arch: {exc!r}") from exc
    _check_dims(cfg, f"checkpoint {path}", actor.state_dim, actor.action_dim)
    return actor


def _check_dims(cfg: ExperimentConfig, what: str, state_dim, action_dim):
    env = cfg.env
    if (state_dim, action_dim) != (env.state_dim, env.action_dim):
        raise ValidationError(
            f"{what} dims (state {state_dim}, action {action_dim}) do not "
            f"match config env {env.name} dims (state {env.state_dim}, "
            f"action {env.action_dim})")


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    os.makedirs(cfg.output_dir, exist_ok=True)
    spec = cfg.env
    ctrl = envs_mod.default_expert(spec)
    seed = derive_seed(cfg.seed, "data")
    store = envs_mod.generate_demos(spec, ctrl, list(cfg.data.noise_levels),
                                    cfg.data.per_level, SeededRng(seed))
    path = _resolve(cfg, cfg.data.demo_file)
    try:
        envs_mod.save_demos(store, path, seed=seed)
    except OSError as exc:
        raise SmileError(f"cannot write demo file {path}: {exc}") from exc
    print(f"wrote {store.num_trajectories} trajectories "
          f"({store.transition_count} transitions) to {path}")
    print("noise_level,episodes,mean_return")
    for level in cfg.data.noise_levels:
        rets = [tr.ret for tr in store.trajectories
                if tr.noise_level == level]
        print(f"{level!r},{len(rets)},{float(np.mean(rets))!r}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    demo_path = args.demos or _resolve(cfg, cfg.data.demo_file)
    # Training never sees rewards; they stay in the file for audits.
    store = envs_mod.load_demos(demo_path, include_rewards=False)
    s, a = store.sample_all()
    _check_dims(cfg, f"demo file {demo_path}", s.shape[1], a.shape[1])
    store.env = cfg.env
    os.makedirs(cfg.output_dir, exist_ok=True)
    rng = SeededRng(derive_seed(cfg.seed, "train"))

    if args.bc_baseline:
        ema_actor, _, metrics = train_bc(cfg.train, store, rng,
                                         out_dir=cfg.output_dir)
        last = metrics.rows[-1]
        print(f"bc run complete: iterations={last['iteration']} "
              f"final_eval_mean={last.get('eval_mean')}")
        return 0

    result = train(cfg.train, store, rng, out_dir=cfg.output_dir,
                   filtering=not args.no_filter)
    filtered_path = os.path.join(cfg.output_dir, "filtered_demos.jsonl")
    envs_mod.save_demos(result.store, filtered_path, seed=cfg.seed)
    last = result.metrics.rows[-1]
    print(f"run complete: iterations={last['iteration']} "
          f"transitions={last['transitions']} "
          f"final_eval_mean={last.get('eval_mean')} "
          f"store_size={last['store_size']} "
          f"filter_passes={result.metrics.counters['filter_passes']}")
    return 0


def cmd_audit(args) -> int:
    width = args.bin_width
    if not (math.isfinite(width) and width > 0):
        raise ValidationError(
            f"--bin-width must be positive and finite, got {width!r}")
    cfg = load_config(args.config)
    store = envs_mod.load_demos(args.demos, include_rewards=True)
    s, a = store.sample_all()
    _check_dims(cfg, f"demo file {args.demos}", s.shape[1], a.shape[1])
    if any(tr.ret is None for tr in store.trajectories):
        raise ValidationError(
            f"demo file {args.demos} lacks rewards; audit needs returns")
    model = _load_actor(cfg, args.denoiser, "denoiser")
    policy = _load_actor(cfg, args.generator, "generator", "bc")
    try:
        cfg.train.filter.validate(model.sched.T)
    except ConfigError as exc:
        raise ConfigError(f"config {args.config} does not fit denoiser "
                          f"{args.denoiser}: {exc}") from exc

    # One scoring pass feeds both the bin table and the per-trajectory
    # report (filter-report format); the store is left untouched.
    keep_temporaries_on_heap()
    records, _ = score_dataset(store, model, policy, cfg.train.filter)
    rows = audit_bins(store, records, width)
    print("bin_lo,bin_hi,count,mean_step")
    for row in rows:
        print(f"{row['bin_lo']!r},{row['bin_hi']!r},{row['count']},"
              f"{row['mean_step']!r}")

    if args.out:
        save_filter_report(FilterReport(records), args.out)
        print(f"wrote per-trajectory report to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValidationError(f"--trials must be positive, got {args.trials}")
    cfg = load_config(args.config)
    model = _load_actor(cfg, args.denoiser, "denoiser")
    policy = _load_actor(cfg, args.generator, "generator", "bc")
    rng = SeededRng(derive_seed(cfg.seed, "bench"))
    result = bench_reverse(model, policy, cfg.env, args.trials, rng)
    print("metric,value")
    for key in ("trials", "one_step_s_per_1000", "naive_s_per_1000",
                "latency_ratio", "mean_abs_discrepancy"):
        print(f"{key},{result[key]!r}")
    return 0


def cmd_print_config(args) -> int:
    print(DEFAULT_CONFIG, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smile",
        description="Self-motivated imitation learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a noisy-expert demo file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train on a demo file")
    p.add_argument("--config", required=True)
    p.add_argument("--demos", default=None,
                   help="demo file (default: from config)")
    p.add_argument("--no-filter", action="store_true",
                   help="ablation: disable self-motivated filtering")
    p.add_argument("--bc-baseline", action="store_true",
                   help="train only the behavior-cloning baseline")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("audit", help="bin-audit a demo file with trained models")
    p.add_argument("--config", required=True)
    p.add_argument("--denoiser", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--bin-width", type=float, default=20.0)
    p.add_argument("--out", default=None,
                   help="where to write the per-trajectory report")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("bench", help="one-step vs naive-reverse latency")
    p.add_argument("--config", required=True)
    p.add_argument("--denoiser", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("print-config", help="print the default config file")
    p.set_defaults(fn=cmd_print_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SmileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
