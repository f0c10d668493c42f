"""Training: one iteration loop shared by SMILE (interleaved denoiser and
generator optimization with gradient accumulation) and the behavior-cloning
baseline, with EMA tracking, periodic self-motivated filtering, evaluation
and metrics; plus the return-bin audit and the one-step vs multi-step
benchmark.

Cadence is 1-based: iteration idx fires a periodic task when
idx % period == 0, so nothing runs on untrained models at idx 0. Each
iteration samples one batch; the denoiser accumulates
``denoiser_optimize_every`` loss draws (fresh t and noise, same batch; see
``TrainConfig``) into one averaged gradient and takes a single optimizer
step, and the policy takes one step on the batch toward the target of the
denoiser loss's own first draw and forward (policy.policy_loss).
Accumulation is vectorized by tiling the batch, which is the same averaged
gradient by linearity (tests/test_trainer.py checks it within float32
rounding).

A run writes ``metrics.csv`` to its output directory as it goes and, when
it ends, its checkpoints and ``run.json``: the config echo, whether it
filtered, the training seed, the numpy and BLAS versions, the BLAS threads
(the value BLAS loaded with), the segment workers of the filter passes
(expertise.workers), the per-phase wall clock, the counters and the
filter-pass summaries.

Filtering and evaluation always read the EMA shadows, never live
parameters. The audit scores nothing itself: it groups the segment records
of expertise.score_dataset by trajectory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import expertise
from .diffusion import (DEFAULT_BETA_MAX, DEFAULT_BETA_MIN,
                        DEFAULT_DENOISER_HIDDEN, NoiseModel, build_schedule,
                        denoiser_loss, naive_reverse_sample)
from .envs import DemoStore, EnvSpec, env_reset, rollout_batch_returns
from .errors import ConfigError, InvalidInputError, TrainingError
from .expertise import (FilterConfig, FilterReport, SegmentRecord,
                        filter_dataset, save_filter_report)
from .mathcore import (EmaTracker, OptimizerState, SeededRng, atomic_write,
                       ema_update, keep_temporaries_on_heap, optimizer_step,
                       save_checkpoint)
from .policy import (DEFAULT_ACTOR_HIDDEN, BcBaseline, GeneratorPolicy,
                     bc_loss, policy_loss)

CSV_COLUMNS = ("iteration", "transitions", "denoiser_loss", "policy_loss",
               "eval_mean", "eval_std", "store_size")


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr: float = 1e-3
    # loss draws per denoiser step. 2 rather than 5 keeps 40% of the
    # denoiser's rows: over training seeds 7-16 a default-config run took
    # 23-29 s (denoiser 12-15 s) against 43-58 s (denoiser 30-41 s) at 5 in
    # the same sweep (one BLAS thread, two runs at a time on 2 cores). The
    # mean 500-spawn return moved by +0.035 for SMILE and -0.053 for
    # --no-filter, whose lower one-sided 95% bounds (-0.044, -0.111) lie
    # inside the non-inferiority margin of 0.19 (scripts/quality.py,
    # BENCH_quality.json)
    denoiser_optimize_every: int = 2
    update_ema_every: int = 10
    # ~200-iteration EMA horizon: at the desk-scale budget (~3.9k
    # iterations) a slower shadow lags the policy by half the run
    ema_decay: float = 0.95
    ema_warmup_steps: int = 200           # in training iterations
    transition_budget: int = 500_000
    diffusion_steps: int = 10
    beta_min: float = DEFAULT_BETA_MIN
    beta_max: float = DEFAULT_BETA_MAX
    filter: FilterConfig = field(default_factory=FilterConfig)
    eval_every: int = 2500
    eval_episodes: int = 10
    # twice the actors' widths: the noise model's Q curve alone decides what
    # the filter drops, and SMILE lost return at 3x128 (NoiseModel)
    denoiser_hidden: tuple[int, ...] = DEFAULT_DENOISER_HIDDEN
    # the generator's and BC's: state -> action maps regressed onto a
    # target, which keep their return at half that width (policy._Actor)
    actor_hidden: tuple[int, ...] = DEFAULT_ACTOR_HIDDEN

    @property
    def num_iterations(self) -> int:
        # Run halts at the first iteration crossing the budget.
        return -(-self.transition_budget // self.batch_size)

    def validate(self) -> None:
        positive = {"batch_size": self.batch_size, "lr": self.lr,
                    "denoiser_optimize_every": self.denoiser_optimize_every,
                    "update_ema_every": self.update_ema_every,
                    "eval_episodes": self.eval_episodes}
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}",
                                  name)
        if self.transition_budget < self.batch_size:
            raise ConfigError("transition_budget must be >= batch_size",
                              "transition_budget", "batch_size")
        if self.ema_warmup_steps < 0:
            raise ConfigError(
                f"ema_warmup_steps must be >= 0, got {self.ema_warmup_steps}",
                "ema_warmup_steps")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError(f"ema_decay {self.ema_decay} outside [0, 1]",
                              "ema_decay")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0 disables)",
                              "eval_every")
        build_schedule(self.diffusion_steps, self.beta_min, self.beta_max)
        self.filter.validate(self.diffusion_steps)


@dataclass
class MetricsLog:
    """Append-only per-iteration metrics plus run-level counters."""

    rows: list[dict] = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    noise_model: NoiseModel
    policy: GeneratorPolicy
    ema_noise_model: NoiseModel
    ema_policy: GeneratorPolicy
    metrics: MetricsLog
    store: DemoStore
    filter_reports: list[FilterReport]


def snapshot_policy(net, flat: np.ndarray):
    """A fresh network of ``net``'s type and architecture (a policy or a
    noise model) holding the parameter vector ``flat``, drawing no weights."""
    copy = type(net).from_arch(net.arch())
    copy.set_params(flat)
    return copy


# the name perfbench/tracer.py hooks for noise-model snapshots
snapshot_noise_model = snapshot_policy


def evaluate(policy_like, spec: EnvSpec, episodes: int,
             rng: SeededRng) -> tuple[float, float]:
    """Mean/std of undiscounted returns of the deterministic policy, whose
    actions the rollout clips to the env's bounds."""
    if episodes < 1:
        raise InvalidInputError(f"episodes must be >= 1, got {episodes}")
    returns = rollout_batch_returns(spec, policy_like.act, rng, episodes)
    return float(returns.mean()), float(returns.std())


@contextmanager
def _timed(clock: dict, name: str):
    """Adds the wall-clock seconds of the block to clock[name]."""
    t0 = time.perf_counter()
    yield
    clock[name] = clock.get(name, 0.0) + time.perf_counter() - t0


def _check_run(cfg: TrainConfig, store: DemoStore):
    """Validate a run; return (state_dim, action_dim)."""
    cfg.validate()
    if store.transition_count == 0:
        raise InvalidInputError("cannot train on an empty store")
    return store.states.shape[1], store.actions.shape[1]


@dataclass
class _Part:
    """One trained network: its loss, optimizer state and EMA shadow.

    ``name`` labels its phase, CSV loss column and counters; the net's
    class ``role`` labels its checkpoints. Each iteration
    ``loss(states, actions)`` runs on the batch and one optimizer step
    follows. ``shadow`` is a network of the net's type and arch, built
    once, whose ``flat`` is the tracker's shadow vector: only ema_update
    writes it, and filter passes, evaluations, the run's result and its
    checkpoint read it in place.
    """

    name: str
    net: object
    loss: Callable
    opt: OptimizerState
    ema: EmaTracker
    shadow: object

    @staticmethod
    def of(cfg: TrainConfig, name: str, net, loss) -> "_Part":
        warmup = max(1, cfg.ema_warmup_steps // cfg.update_ema_every)
        shadow = snapshot_policy(net, net.flat)
        return _Part(name, net, loss,
                     OptimizerState.for_params(net.flat, lr=cfg.lr),
                     EmaTracker(shadow.flat, decay=cfg.ema_decay,
                                warmup=warmup), shadow)


def _progress(row: dict, n_iters: int, elapsed: float) -> None:
    """One stderr line on the run so far: iteration, losses, the evaluation
    if one ran, transitions per second and the time left at that rate."""
    idx = row["iteration"]
    rate = row["transitions"] / elapsed
    fields = [f"{key}={row[key]:.4g}" for key in row
              if key.endswith("_loss") or key == "eval_mean"]
    print(f"iteration {idx}/{n_iters} {' '.join(fields)} "
          f"{rate:,.0f} transitions/s "
          f"ETA {(n_iters - idx) * elapsed / idx:.0f} s",
          file=sys.stderr, flush=True)


def _run(cfg: TrainConfig, store: DemoStore, rng: SeededRng,
         parts: list[_Part], out_dir: str, filtering: bool = False):
    """train's and train_bc's loop; returns (metrics, last store, reports).

    Per iteration: sample a batch; update each part in order, checking its
    loss for finiteness before its step; advance every part's EMA; filter
    (with ``filtering``, every ``filter_every`` iterations; parts[0] is then
    the denoiser, parts[1] the generator), so a pass reads this iteration's
    shadow, and later batches come from the store it keeps; log the row,
    evaluating parts[-1] when due; after a pass or an evaluation, print a
    progress line to stderr (stdout is the caller's). Batches and evaluations
    draw from streams spawned off ``rng``, the run's root. Each row goes to
    ``out_dir``'s ``metrics.csv`` as it is logged, and each pass's report
    beside it; a finished run writes each part's checkpoint and the run
    manifest there. A TrainingError while a part steps (a non-finite loss or
    gradient) first writes every part's live network to
    ``diagnostic_<role>.json`` there.
    """
    env = store.env
    counters = {f"{part.name}_optimizer_steps": 0 for part in parts}
    counters.update(ema_updates=0, filter_passes=0, transitions_consumed=0)
    metrics = MetricsLog(counters=counters)
    phase = partial(_timed, metrics.wall_clock)
    batch_rng, eval_rng = rng.spawn("batch"), rng.spawn("eval")
    reports: list[FilterReport] = []
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        csv_out = csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\n")
        csv_out.writeheader()
        keep_temporaries_on_heap()
        n_iters = cfg.num_iterations
        start = time.perf_counter()
        for idx in range(1, n_iters + 1):
            states, actions = store.sample(batch_rng, cfg.batch_size)
            losses = {}
            for part in parts:
                # grads stays bound until the next loss returns: freeing it
                # earlier made glibc trim and re-fault the heap every BC
                # step (9x the page faults, 35-60% slower)
                try:
                    with phase(part.name):
                        loss, grads = part.loss(states, actions)
                        if not math.isfinite(loss):
                            raise TrainingError(
                                f"non-finite {part.name} loss {loss} at "
                                f"iteration {idx}")
                        optimizer_step(part.opt, part.net.flat, grads)
                except TrainingError:
                    for p in parts:
                        save_checkpoint(os.path.join(
                            out_dir, f"diagnostic_{p.net.role}.json"), p.net)
                    raise
                counters[f"{part.name}_optimizer_steps"] += 1
                losses[f"{part.name}_loss"] = loss

            if idx % cfg.update_ema_every == 0:
                with phase("ema"):
                    for part in parts:
                        ema_update(part.ema, part.net.flat)
                counters["ema_updates"] += 1

            filtered = filtering and idx % cfg.filter.filter_every == 0
            if filtered:
                with phase("filter"):
                    report, store = filter_dataset(
                        store, parts[0].shadow, parts[1].shadow, cfg.filter,
                        iteration=idx)
                reports.append(report)
                counters["filter_passes"] += 1
                save_filter_report(report, os.path.join(
                    out_dir, f"filter_report_{idx:06d}.json"))

            row = {"iteration": idx, "transitions": idx * cfg.batch_size,
                   **losses, "store_size": store.transition_count}
            evaluating = env is not None and cfg.eval_every > 0 and (
                idx % cfg.eval_every == 0 or idx == n_iters)
            if evaluating:
                with phase("eval"):
                    mean, std = evaluate(parts[-1].shadow, env,
                                         cfg.eval_episodes, eval_rng)
                row["eval_mean"], row["eval_std"] = mean, std
            metrics.rows.append(row)
            csv_out.writerow(row)
            if evaluating or filtered:
                _progress(row, n_iters, time.perf_counter() - start)
    counters["transitions_consumed"] = n_iters * cfg.batch_size
    for part in parts:
        save_checkpoint(os.path.join(out_dir, f"{part.net.role}.json"),
                        part.shadow)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {"config": asdict(cfg), "filtering": filtering,
                "train_seed": rng.seed,
                "numpy": np.__version__, "blas": {
                    "name": blas.get("name"),
                    "version": blas.get("version")},
                "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "workers": expertise.workers,
                "wall_clock": metrics.wall_clock, "counters": counters,
                "filter_summaries": [report.summary() for report in reports]}
    with atomic_write(os.path.join(out_dir, "run.json")) as fh:
        fh.write(json.dumps(manifest, indent=1))
    return metrics, store, reports


def train(cfg: TrainConfig, store: DemoStore, rng: SeededRng,
          out_dir: str, filtering: bool = True) -> TrainResult:
    """Run the full training loop on a demonstration store into ``out_dir``.

    ``rng`` is the run's root randomness; every internal stream (init, batch
    sampling, loss noise, evaluation) is derived from its seed with a purpose
    tag. The store is never edited: each filter pass keeps a new one, which
    later batches come from and the result returns as ``store``. With
    ``filtering`` off this is the w/o-filtering ablation: batches come
    uniformly from ``store`` for the whole run.
    """
    state_dim, action_dim = _check_run(cfg, store)
    model = NoiseModel(state_dim, action_dim, cfg.diffusion_steps,
                       rng.spawn("init-denoiser"), hidden=cfg.denoiser_hidden,
                       beta_min=cfg.beta_min, beta_max=cfg.beta_max)
    policy = GeneratorPolicy(state_dim, action_dim, rng.spawn("init-policy"),
                             hidden=cfg.actor_hidden)
    noise_rng, draw = rng.spawn("denoiser-noise"), []
    reps = (cfg.denoiser_optimize_every, 1)
    # the losses are looked up at call time, for hooks and test patches;
    # np.tile puts the batch first: the policy reads the draw's first rows
    def den_loss(s, a):
        loss, grads, tiled = denoiser_loss(model, np.tile(s, reps),
                                           np.tile(a, reps), noise_rng)
        draw[:] = (x[:len(s)] for x in tiled)
        return loss, grads

    den = _Part.of(cfg, "denoiser", model, den_loss)
    gen = _Part.of(cfg, "policy", policy,
                   lambda s, a: policy_loss(policy, model.sched, s, draw))

    metrics, kept, reports = _run(cfg, store, rng, [den, gen], out_dir,
                                  filtering)

    return TrainResult(
        noise_model=model, policy=policy,
        ema_noise_model=den.shadow, ema_policy=gen.shadow,
        metrics=metrics, store=kept, filter_reports=reports)


def train_bc(cfg: TrainConfig, store: DemoStore, rng: SeededRng,
             out_dir: str):
    """Behavior-cloning baseline over the full store: train's loop, budget
    and cadence with one BC part in place of the denoiser and generator, and
    no filter; its EMA shadow goes to ``out_dir``'s ``bc.json``. Returns
    (EMA snapshot, live baseline, metrics)."""
    state_dim, action_dim = _check_run(cfg, store)
    baseline = BcBaseline(state_dim, action_dim, rng.spawn("init-bc"),
                          hidden=cfg.actor_hidden)
    part = _Part.of(cfg, "policy", baseline,
                    lambda s, a: bc_loss(baseline, s, a))
    metrics, _, _ = _run(cfg, store, rng, [part], out_dir)
    return part.shadow, baseline, metrics


def audit_bins(store: DemoStore, records: list[SegmentRecord],
               width: float) -> list[dict]:
    """Group trajectories by return bin; report count and mean predicted
    diffusion step per occupied bin, in bin order (empty bins are absent).
    With lo and hi the extreme returns rounded out to multiples of
    ``width`` and n the number of bins of np.arange(lo, hi + width / 2,
    width), a return ret lies in bin k = clip(floor((ret - lo) / width),
    0, n - 1), whose edges are lo + k * width and lo + (k + 1) * width. So
    every trajectory lies in exactly one bin, at any width whose bins the
    floats can tell apart.

    Nothing is scored here: ``records`` are the segment records
    score_dataset returned for this store. A trajectory's Q curve is the
    length-weighted mean of its segments' mean_q, which is the mean over all
    its transitions, and its predicted step is that curve's argmax over t'
    (ties break toward the smallest t').
    """
    if store.num_trajectories == 0:
        raise InvalidInputError("cannot audit an empty store")
    for (tid, *_), ret in zip(store.rows, store.rets):
        if ret is None:
            raise InvalidInputError(f"trajectory {tid} carries no return")
    q_sums, lengths = {}, {}
    for rec in records:
        n = rec.stop - rec.start
        q_sums[rec.parent_id] = (q_sums.get(rec.parent_id, 0.0)
                                 + n * np.asarray(rec.mean_q))
        lengths[rec.parent_id] = lengths.get(rec.parent_id, 0) + n
    steps = np.asarray([int(np.argmax(q_sums[tid] / lengths[tid]))
                        for tid, *_ in store.rows])
    rets = np.asarray(store.rets)
    lo = np.floor(rets.min() / width) * width
    hi = np.ceil(rets.max() / width) * width
    if hi <= lo:
        hi = lo + width
    n_bins = math.ceil((hi + width / 2 - lo) / width) - 1
    if not ((lo + width) - lo > 0 and 1 <= n_bins < 2 ** 53 - 1):
        raise InvalidInputError(
            f"bin width {width!r} is too fine for returns in [{lo!r}, "
            f"{hi!r}]")
    b = np.clip(np.floor((rets - lo) / width), 0, n_bins - 1).astype(np.int64)
    rows = []
    # not np.unique, which on an int64 array imports numpy.ma (14 ms)
    for k in sorted(set(b.tolist())):
        mask = b == k
        rows.append({"bin_lo": float(lo + k * width),
                     "bin_hi": float(lo + (k + 1) * width),
                     "count": int(mask.sum()),
                     "mean_step": float(steps[mask].mean())})
    return rows


def bench_reverse(model, policy, spec: EnvSpec, trials: int,
                  rng: SeededRng) -> dict:
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
        a_naive = naive_reverse_sample(model, s, model.sched, rng,
                                       a + model.sched.sigmas[-1] * e)
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
