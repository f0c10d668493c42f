"""Training: one iteration loop shared by SMILE (interleaved denoiser and
generator optimization with gradient accumulation) and the behavior-cloning
baseline, with EMA tracking, periodic self-motivated filtering, evaluation
and metrics; plus the return-bin audit and the one-step vs multi-step
benchmark.

Cadence is 1-based: iteration idx fires a periodic task when
idx % period == 0, so nothing runs on untrained models at idx 0. Each
iteration samples one batch; the denoiser accumulates
``denoiser_optimize_every`` loss draws (fresh t and noise, same batch) into
one averaged gradient and takes a single optimizer step, and the policy does
the same with ``policy_optimize_every``. Accumulation is vectorized by
tiling the batch, which is the same averaged gradient by linearity.

Filtering and evaluation always read EMA snapshots, never live parameters.
The audit scores nothing itself: it groups the segment records of
expertise.score_dataset by trajectory.
"""

from __future__ import annotations

import csv
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .diffusion import (DiffusionSchedule, NoiseModel, build_schedule,
                        denoiser_loss, naive_reverse_sample)
from .envs import DemoStore, EnvSpec, env_reset, rollout_batch_returns
from .errors import ConfigError, InvalidInputError, TrainingError
from .expertise import (FilterConfig, FilterReport, SegmentRecord,
                        filter_dataset, save_filter_report)
from .mathcore import (EmaTracker, OptimizerState, SeededRng, ema_update,
                       optimizer_step, save_checkpoint)
from .policy import BcBaseline, GeneratorPolicy, bc_loss, policy_loss

# the parameter dtype of every network training builds: float32 matmuls run
# about twice as fast as float64 ones at these widths, and the final returns
# move far less than a change of training seed moves them (see CHANGES.md)
NET_DTYPE = np.float32

CSV_COLUMNS = ("iteration", "transitions", "denoiser_loss", "policy_loss",
               "eval_mean", "eval_std", "store_size")


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr: float = 1e-3
    denoiser_optimize_every: int = 10
    policy_optimize_every: int = 1
    update_ema_every: int = 10
    # ~200-iteration EMA horizon: at the desk-scale budget (~3.9k
    # iterations) a slower shadow lags the policy by half the run
    ema_decay: float = 0.95
    ema_warmup_steps: int = 200           # in training iterations
    transition_budget: int = 500_000
    diffusion_steps: int = 10
    beta_min: float = 0.05
    beta_max: float = 0.6
    filter: FilterConfig = field(default_factory=FilterConfig)
    filtering: bool = True
    eval_every: int = 2500
    eval_episodes: int = 10
    loss_norm: str = "l1"
    hidden: tuple[int, ...] = (256, 256, 256)

    @property
    def num_iterations(self) -> int:
        # Run halts at the first iteration crossing the budget.
        return -(-self.transition_budget // self.batch_size)

    def validate(self) -> None:
        positive = {"batch_size": self.batch_size, "lr": self.lr,
                    "denoiser_optimize_every": self.denoiser_optimize_every,
                    "policy_optimize_every": self.policy_optimize_every,
                    "update_ema_every": self.update_ema_every,
                    "diffusion_steps": self.diffusion_steps,
                    "eval_episodes": self.eval_episodes}
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.transition_budget < self.batch_size:
            raise ConfigError("transition_budget must be >= batch_size")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError(f"ema_decay {self.ema_decay} outside [0, 1]")
        if self.loss_norm not in ("l1", "l2"):
            raise ConfigError(f"unknown loss_norm {self.loss_norm!r}")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0 disables)")
        self.filter.validate(self.diffusion_steps)


@dataclass
class MetricsLog:
    """Append-only per-iteration metrics plus run-level counters."""

    rows: list[dict] = field(default_factory=list)
    filter_summaries: list[dict] = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def add_row(self, **kw) -> dict:
        if self.rows and kw["iteration"] <= self.rows[-1]["iteration"]:
            raise InvalidInputError("iteration index must increase")
        self.rows.append(kw)
        return kw


@dataclass
class TrainResult:
    noise_model: NoiseModel
    policy: GeneratorPolicy
    ema_noise_model: NoiseModel
    ema_policy: GeneratorPolicy
    metrics: MetricsLog
    store: DemoStore
    sched: DiffusionSchedule
    filter_reports: list[FilterReport] = field(default_factory=list)


def snapshot_policy(net, flat: np.ndarray):
    """A fresh network of ``net``'s type and architecture (a policy or a
    noise model) holding the parameter vector ``flat``."""
    copy = type(net).from_arch(net.arch())
    if flat.shape != copy.flat.shape:
        raise InvalidInputError(
            f"parameter vector shape {flat.shape} != {copy.flat.shape}")
    copy.flat[...] = flat
    return copy


# the name perfbench/tracer.py hooks for noise-model snapshots
snapshot_noise_model = snapshot_policy


def evaluate(policy_like, spec: EnvSpec, episodes: int,
             rng: SeededRng) -> tuple[float, float]:
    """Mean/std of undiscounted returns of the clipped deterministic policy."""
    if episodes < 1:
        raise InvalidInputError(f"episodes must be >= 1, got {episodes}")
    returns = rollout_batch_returns(spec, policy_like.act_clipped, rng,
                                    episodes)
    return float(returns.mean()), float(returns.std())


def _tile(arr: np.ndarray, k: int) -> np.ndarray:
    return arr if k == 1 else np.tile(arr, (k, 1))


@contextmanager
def _timed(clock: dict, name: str):
    """Adds the wall-clock seconds of the block to clock[name]."""
    t0 = time.perf_counter()
    yield
    clock[name] = clock.get(name, 0.0) + time.perf_counter() - t0


def _check_run(cfg: TrainConfig, store: DemoStore):
    """Validate a run; return (state_dim, action_dim, action bounds)."""
    cfg.validate()
    if store.transition_count == 0:
        raise InvalidInputError("cannot train on an empty store")
    s_all, a_all = store.sample_all()
    env = store.env
    bounds = ((env.action_low, env.action_high) if env else (-1.0, 1.0))
    return s_all.shape[1], a_all.shape[1], bounds


@dataclass
class _Part:
    """One trained network: its loss, optimizer state and EMA shadow.

    ``name`` labels its phase, CSV loss column and counters, ``role`` its
    checkpoint. Each iteration ``loss(states, actions)`` runs on the batch
    tiled ``accumulate`` times and one optimizer step follows.
    """

    role: str
    name: str
    net: object
    loss: Callable
    accumulate: int
    opt: OptimizerState
    ema: EmaTracker

    @staticmethod
    def of(cfg: TrainConfig, role: str, name: str, net, loss,
           accumulate: int = 1) -> "_Part":
        warmup = max(1, cfg.ema_warmup_steps // cfg.update_ema_every)
        return _Part(role, name, net, loss, accumulate,
                     OptimizerState.for_params(net.flat, lr=cfg.lr),
                     EmaTracker.for_params(net.flat, decay=cfg.ema_decay,
                                           warmup=warmup))

    def shadow_copy(self):
        """A fresh network holding the EMA shadow parameters."""
        return snapshot_policy(self.net, self.ema.shadow)

    def save(self, path: str) -> None:
        save_checkpoint(path, self.role, self.net, self.ema.shadow)


def _run(cfg: TrainConfig, store: DemoStore, rngs: dict[str, SeededRng],
         parts: list[_Part], out_dir: str | None,
         sched: DiffusionSchedule | None = None):
    """The iteration loop of train and train_bc; returns (metrics, reports).

    Per iteration: sample a batch; update each part in order; check the
    losses for finiteness; advance every part's EMA; filter (given a sched
    and cfg.filtering; parts[0] is the denoiser, parts[1] the generator), so
    a pass reads this iteration's shadow; log the row, evaluating parts[-1]
    when due.
    """
    env = store.env
    counters = {f"{part.name}_{what}": 0 for part in parts
                for what in ("grad_evals", "optimizer_steps")}
    counters.update(ema_updates=0, filter_passes=0, transitions_consumed=0)
    metrics = MetricsLog(counters=counters)
    phase = partial(_timed, metrics.wall_clock)
    reports: list[FilterReport] = []
    filtering = cfg.filtering and sched is not None
    csv_fh = csv_out = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_fh = open(os.path.join(out_dir, "metrics.csv"), "w", newline="")
        csv_out = csv.DictWriter(csv_fh, CSV_COLUMNS, lineterminator="\n")
        csv_out.writeheader()

    # freeing one block larger than any step's temporaries lifts glibc's
    # dynamic mmap and trim thresholds above them, so the heap keeps them
    # between steps instead of trimming and re-faulting them every step
    np.empty(2 ** 21)  # 16 MiB
    n_iters = cfg.num_iterations
    try:
        for idx in range(1, n_iters + 1):
            states, actions = store.sample(rngs["batch"], cfg.batch_size)
            losses = {}
            for part in parts:
                # grads stays bound until the next loss returns: freeing it
                # earlier made glibc trim and re-fault the heap every BC
                # step (9x the page faults, 35-60% slower)
                k = part.accumulate
                with phase(part.name):
                    loss, grads = part.loss(_tile(states, k),
                                            _tile(actions, k))
                    optimizer_step(part.opt, part.net.flat, grads)
                counters[f"{part.name}_grad_evals"] += k
                counters[f"{part.name}_optimizer_steps"] += 1
                losses[f"{part.name}_loss"] = loss

            if not all(np.isfinite(v) for v in losses.values()):
                if out_dir is not None:
                    for part in parts:
                        part.save(os.path.join(
                            out_dir, f"diagnostic_{part.role}.json"))
                raise TrainingError(
                    f"non-finite loss at iteration {idx}: " + " ".join(
                        f"{k}={v}" for k, v in losses.items()))

            if idx % cfg.update_ema_every == 0:
                with phase("ema"):
                    for part in parts:
                        ema_update(part.ema, part.net.flat)
                counters["ema_updates"] += 1

            if filtering and idx % cfg.filter.filter_every == 0:
                with phase("filter"):
                    report = filter_dataset(
                        store, parts[0].shadow_copy(), parts[1].shadow_copy(),
                        cfg.filter, sched, iteration=idx)
                reports.append(report)
                counters["filter_passes"] += 1
                metrics.filter_summaries.append(report.summary())
                filtering = not report.stop_filtering
                if out_dir is not None:
                    save_filter_report(report, os.path.join(
                        out_dir, f"filter_report_{idx:06d}.json"))

            row = {"iteration": idx, "transitions": idx * cfg.batch_size,
                   **losses, "store_size": store.transition_count}
            if env is not None and cfg.eval_every > 0 and (
                    idx % cfg.eval_every == 0 or idx == n_iters):
                with phase("eval"):
                    mean, std = evaluate(parts[-1].shadow_copy(), env,
                                         cfg.eval_episodes, rngs["eval"])
                row["eval_mean"], row["eval_std"] = mean, std
            metrics.add_row(**row)
            if csv_out is not None:
                csv_out.writerow(row)
        counters["transitions_consumed"] = n_iters * cfg.batch_size
    finally:
        if csv_fh is not None:
            csv_fh.close()
    return metrics, reports


def train(cfg: TrainConfig, store: DemoStore, rng: SeededRng,
          out_dir: str | None = None) -> TrainResult:
    """Run the full training loop on a demonstration store.

    ``rng`` is the run's root randomness; every internal stream (init, batch
    sampling, loss noise, evaluation) is derived from its seed with a purpose
    tag. The store is filtered in place (callers who need the original intact
    should pass a copy). With cfg.filtering off this is the w/o-filtering
    ablation: batches come uniformly from the untouched store for the whole
    run.
    """
    state_dim, action_dim, bounds = _check_run(cfg, store)
    sched = build_schedule(cfg.diffusion_steps, cfg.beta_min, cfg.beta_max)
    model = NoiseModel(state_dim, action_dim, sched.T,
                       rng.spawn("init-denoiser"), hidden=cfg.hidden,
                       norm=cfg.loss_norm, dtype=NET_DTYPE)
    policy = GeneratorPolicy(state_dim, action_dim, rng.spawn("init-policy"),
                             hidden=cfg.hidden, action_low=bounds[0],
                             action_high=bounds[1], dtype=NET_DTYPE)
    rngs = {tag: rng.spawn(tag)
            for tag in ("batch", "denoiser-noise", "policy-noise", "eval")}
    # the loss functions are looked up at call time, so hooks and test
    # patches on this module's globals apply
    den = _Part.of(cfg, "denoiser", "denoiser", model,
                   lambda s, a: denoiser_loss(model, s, a, sched,
                                              rngs["denoiser-noise"]),
                   cfg.denoiser_optimize_every)
    gen = _Part.of(cfg, "generator", "policy", policy,
                   lambda s, a: policy_loss(policy, model, s, a, sched,
                                            rngs["policy-noise"]),
                   cfg.policy_optimize_every)

    metrics, reports = _run(cfg, store, rngs, [den, gen], out_dir, sched)
    if out_dir is not None:
        for part in (den, gen):
            part.save(os.path.join(out_dir, f"{part.role}.json"))

    return TrainResult(
        noise_model=model, policy=policy,
        ema_noise_model=den.shadow_copy(), ema_policy=gen.shadow_copy(),
        metrics=metrics, store=store, sched=sched, filter_reports=reports)


def train_bc(cfg: TrainConfig, store: DemoStore, rng: SeededRng,
             out_dir: str | None = None):
    """Behavior-cloning baseline over the full store: train's loop, budget
    and cadence with one BC part in place of the denoiser and generator, and
    no filter. Returns (EMA snapshot, live baseline, metrics)."""
    state_dim, action_dim, bounds = _check_run(cfg, store)
    baseline = BcBaseline(state_dim, action_dim, rng.spawn("init-bc"),
                          hidden=cfg.hidden, action_low=bounds[0],
                          action_high=bounds[1], dtype=NET_DTYPE)
    part = _Part.of(cfg, "bc", "policy", baseline,
                    lambda s, a: bc_loss(baseline, s, a))
    rngs = {tag: rng.spawn(tag) for tag in ("batch", "eval")}
    metrics, _ = _run(cfg, store, rngs, [part], out_dir)
    return part.shadow_copy(), baseline, metrics


def audit_bins(store: DemoStore, records: list[SegmentRecord],
               bin_edges) -> list[dict]:
    """Group trajectories by return bin; report count and mean predicted
    diffusion step per non-empty bin (empty bins are simply absent).

    Nothing is scored here: ``records`` are the segment records
    score_dataset returned for this store. A trajectory's Q curve is the
    length-weighted mean of its segments' mean_q, which is the mean over all
    its transitions, and its predicted step is that curve's argmax over t'
    (ties break toward the smallest t').
    """
    if store.num_trajectories == 0:
        raise InvalidInputError("cannot audit an empty store")
    edges = np.asarray(bin_edges, dtype=np.float64)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise InvalidInputError("bin_edges must be strictly increasing")
    for tr in store.trajectories:
        if tr.ret is None:
            raise InvalidInputError(
                f"trajectory {tr.traj_id} carries no return")
    q_sums, lengths = {}, {}
    for rec in records:
        n = rec.stop - rec.start
        q_sums[rec.parent_id] = (q_sums.get(rec.parent_id, 0.0)
                                 + n * np.asarray(rec.mean_q))
        lengths[rec.parent_id] = lengths.get(rec.parent_id, 0) + n
    steps = np.asarray([int(np.argmax(q_sums[tr.traj_id]
                                      / lengths[tr.traj_id]))
                        for tr in store.trajectories])
    rets = np.asarray([tr.ret for tr in store.trajectories])
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # half-open bins, closed on the right for the final bin
        mask = ((rets >= lo) & (rets < hi)) if hi < edges[-1] else \
               ((rets >= lo) & (rets <= hi))
        if mask.sum() == 0:
            continue
        rows.append({"bin_lo": float(lo), "bin_hi": float(hi),
                     "count": int(mask.sum()),
                     "mean_step": float(steps[mask].mean())})
    return rows


def bench_reverse(model, policy, spec: EnvSpec, sched: DiffusionSchedule,
                  trials: int, rng: SeededRng) -> dict:
    """Per-decision latency of the one-step generator vs the naive reverse
    sampler, normalized to 1000 decisions, plus their action discrepancy.

    Each decision is a single-state call, matching how actions are produced
    while interacting with an environment. A decision's one-step call and
    its naive sample are timed back to back, and times and ratio are medians
    over decisions, so a burst of machine noise moves one pair, not the
    whole of one side.
    """
    states = [env_reset(spec, rng).obs for _ in range(trials)]
    eps = [rng.standard_normal(spec.action_dim) for _ in range(trials)]
    one_step, naive, disc = [], [], []
    for s, e in zip(states, eps):
        t0 = time.perf_counter()
        a = policy.act(s)
        t1 = time.perf_counter()
        a_naive = naive_reverse_sample(model, s, sched, rng,
                                       a + sched.sigmas[sched.T] * e)
        t2 = time.perf_counter()
        one_step.append(t1 - t0)
        naive.append(t2 - t1)
        disc.append(np.abs(a - a_naive).mean())
    one_step, naive = np.asarray(one_step), np.asarray(naive)
    return {
        "trials": trials,
        "one_step_s_per_1000": float(np.median(one_step)) * 1000.0,
        "naive_s_per_1000": float(np.median(naive)) * 1000.0,
        "latency_ratio": float(np.median(naive / one_step)),
        "mean_abs_discrepancy": float(np.mean(disc)),
    }
