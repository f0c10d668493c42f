"""Expertise scoring and self-motivated dataset filtering.

The conditioned Q-function measures how likely a reference action denoises to
a target action in exactly t steps: Q_t(a | a_ref, s) =
-||a - (a_ref - sigma_t * eps(s, a_ref, t))||^2 (the 1/2 sigma^2 prefactor is
dropped so small-t values are not blown up). Averaging over a segment and
taking the argmax over t in 0..T yields the predicted diffusion step between
the current policy and the segment's behavior policy: 0 means the policy is
at least as good, larger means the segment is cleaner by that many steps.

score_dataset is the one scoring path: it segments the store at terminals or
max_demo_len and returns one record per segment, with its mean Q curve and
predicted step. A segment's whole curve costs one policy call on its rows
and one denoiser forward over T copies of them (q_curve_matrix). So no
array larger than T * max_demo_len rows exists, whatever the store's size,
and a segment's record depends only on its own rows and the two networks,
not on the store around it.
score_dataset also gives each segment its verdict, by one rule that does
not look at store order: a segment is kept iff its step is above the step
threshold or among the min_demos highest steps (ties with the last of them
included). So every pass keeps at least min_demos segments, and no pass
switches filtering off. filter_dataset commits those verdicts; the audit's
report and the return-bin audit (trainer.audit_bins) read the same records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .envs import DemoStore, Trajectory, undiscounted_return
from .errors import ConfigError, InvalidInputError


@dataclass
class FilterConfig:
    filter_every: int = 2500
    # the floor: a pass always keeps the min_demos highest-step segments
    min_demos: int = 10
    step_threshold: int = 1
    max_demo_len: int = 100

    def validate(self, T: int) -> None:
        if self.min_demos < 1:
            raise ConfigError(f"min_demos must be >= 1, got {self.min_demos}")
        if self.max_demo_len < 1:
            raise ConfigError(
                f"max_demo_len must be >= 1, got {self.max_demo_len}")
        if not 0 <= self.step_threshold <= T:
            raise ConfigError(
                f"step_threshold {self.step_threshold} outside 0..{T}")
        if self.filter_every < 1:
            raise ConfigError(
                f"filter_every must be >= 1, got {self.filter_every}")


@dataclass
class SegmentRecord:
    segment_id: int
    parent_id: int
    start: int
    stop: int
    predicted_step: int
    mean_q: list[float]          # curve over t' = 0..T
    verdict: str                 # "keep" | "drop"
    noise_level: float | None
    ret: float | None


@dataclass
class FilterReport:
    records: list[SegmentRecord]
    iteration: int | None = None

    @property
    def n_before(self) -> int:
        return len(self.records)

    @property
    def n_kept(self) -> int:
        return sum(rec.verdict == "keep" for rec in self.records)

    @property
    def n_dropped(self) -> int:
        return self.n_before - self.n_kept

    def summary(self) -> dict:
        """Counts, the kept and total segments per noise level (keyed by the
        level's JSON text), and the Spearman rho of predicted step with
        noise level: null where a level is null or no rank varies."""
        levels = [rec.noise_level for rec in self.records]
        kept_by_level = {}
        for level in sorted(set(levels), key=lambda v: (v is None, v or 0)):
            recs = [r for r in self.records if r.noise_level == level]
            kept_by_level[json.dumps(level)] = [
                sum(r.verdict == "keep" for r in recs), len(recs)]
        rho = None
        if None not in levels:
            rho = spearman([r.predicted_step for r in self.records], levels)
        return {"iteration": self.iteration, "n_before": self.n_before,
                "n_kept": self.n_kept, "n_dropped": self.n_dropped,
                "kept_by_level": kept_by_level, "step_level_spearman": rho}


def tie_averaged_ranks(x) -> np.ndarray:
    """Ranks 1..n of ``x``, each group of ties given its mean rank."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=np.float64),
                                   return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float | None:
    """Spearman's rho of ``x`` and ``y``: the Pearson correlation of their
    tie-averaged ranks; None where either has one rank throughout."""
    rx, ry = tie_averaged_ranks(x), tie_averaged_ranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    norm = math.sqrt((rx @ rx) * (ry @ ry))
    return float(rx @ ry / norm) if norm > 0 else None


def save_filter_report(report: FilterReport, path: str) -> None:
    payload = report.summary()
    payload["records"] = [vars(r) for r in report.records]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


# ---------------------------------------------------------------------------
# Q scoring
# ---------------------------------------------------------------------------

def q_curve_matrix(model, states: np.ndarray, targets: np.ndarray,
                   refs: np.ndarray) -> np.ndarray:
    """Per-transition Q values for every t' in 0..T, shape (T+1, n).

    The caller computes the reference actions once. Every step t' >= 1 is
    scored by one denoiser forward over T * n rows: the states and
    reference actions tiled T times, with row block t'-1 at step t'. Row
    t' = 0 is the undenoised distance. Each row goes through the same
    operations as in a forward over its step alone, so the result can
    differ from T separate n-row forwards only where BLAS sums a matmul
    in another order at another row count: by float32 rounding in the
    noise predictions (with OpenBLAS 0.3.31 on 2 cores, not at all for
    n = 100).
    """
    sched = model.sched
    n, T = len(states), sched.T
    eps = model.predict(np.tile(states, (T, 1)), np.tile(refs, (T, 1)),
                        np.repeat(np.arange(1, T + 1), n))
    denoised = refs - sched.sigmas[1:, None, None] * eps.reshape(T, n, -1)
    out = np.empty((T + 1, n))
    out[0] = -((targets - refs) ** 2).sum(axis=1)
    out[1:] = -((targets - denoised) ** 2).sum(axis=2)
    return out


# ---------------------------------------------------------------------------
# Segmentation and filtering
# ---------------------------------------------------------------------------

def segment_trajectories(trajectories: list[Trajectory],
                         max_demo_len: int) -> list[tuple[Trajectory, int, int]]:
    """Split trajectories at terminals or max_demo_len; yields
    (parent, start, stop) index ranges in store order."""
    segments = []
    for tr in trajectories:
        start = 0
        for i in range(len(tr)):
            if tr.terminals[i] or (i + 1 - start) >= max_demo_len:
                segments.append((tr, start, i + 1))
                start = i + 1
        if start < len(tr):
            segments.append((tr, start, len(tr)))
    return segments


def _segment_trajectory(parent: Trajectory, start: int, stop: int,
                        new_id: int) -> Trajectory:
    rewards = (parent.rewards[start:stop]
               if parent.rewards is not None else None)
    seg = Trajectory(
        traj_id=new_id,
        states=parent.states[start:stop],
        actions=parent.actions[start:stop],
        rewards=rewards,
        terminals=parent.terminals[start:stop],
        noise_level=parent.noise_level)
    if rewards is not None:
        seg.ret = undiscounted_return(seg)
    return seg


def score_dataset(store: DemoStore, model, policy, cfg: FilterConfig):
    """Segment the store and score every segment without touching it.

    Returns (records, kept_segments): per-segment reports with keep/drop
    verdicts, and the segments that would remain. With k = min(min_demos,
    number of segments) and s_k the k-th highest predicted step, a segment
    is kept iff its step > min(step_threshold, s_k - 1): the segments above
    the threshold or, where fewer than k are, the k highest-step segments
    and every segment tied with the last of them. The verdicts depend on
    the steps alone, not on store order, which for generated stores follows
    the noise level.

    This is the only place that turns (model, policy, store) into predicted
    steps. Each segment costs one policy call on its n rows, whose actions
    are reused across every t', and one denoiser forward of T * n rows:
    1,000 rows at the defaults, about 1 MB of float32 activations a layer,
    which fits in a 2 MiB L2. So the working memory does not grow with the
    store, and a segment gets the same bits alone as inside any store (BLAS
    may round differently at other row counts, so a call over the whole
    store would not). On 2 cores, 250 policy calls of 100 rows took 64 ms
    against 113 ms for one call of 25,000 rows. Callers run
    mathcore.keep_temporaries_on_heap first, or the per-segment arrays
    fault their pages in anew at every segment: 117,000 page faults in one
    pass over 25,000 transitions, which then took 0.9 s instead of 0.5 s.
    Segments are not merged into larger batches: those were not reliably
    faster. A segment's predicted step is the argmax of its mean Q curve
    over t' (ties break toward the smallest t').
    """
    if store.num_trajectories == 0:
        raise InvalidInputError("cannot filter an empty store")
    if any(len(tr) == 0 for tr in store.trajectories):
        raise InvalidInputError("cannot score an empty trajectory")
    cfg.validate(model.sched.T)
    segments = segment_trajectories(store.trajectories, cfg.max_demo_len)

    curves = []
    for parent, start, stop in segments:
        states = parent.states[start:stop]
        curves.append(q_curve_matrix(
            model, states, parent.actions[start:stop],
            policy.act(states)).mean(axis=1))
    steps = [int(np.argmax(curve)) for curve in curves]
    k = min(cfg.min_demos, len(steps))
    cut = min(cfg.step_threshold, sorted(steps)[-k] - 1)

    records = []
    kept_segments = []
    for seg_id, ((parent, start, stop), curve, step) in enumerate(
            zip(segments, curves, steps)):
        seg = _segment_trajectory(parent, start, stop, seg_id)
        keep = step > cut
        if keep:
            kept_segments.append(seg)
        records.append(SegmentRecord(
            segment_id=seg_id, parent_id=parent.traj_id, start=start,
            stop=stop, predicted_step=step, mean_q=curve.tolist(),
            verdict="keep" if keep else "drop",
            noise_level=seg.noise_level, ret=seg.ret))
    return records, kept_segments


def filter_dataset(store: DemoStore, model, policy, cfg: FilterConfig,
                   iteration: int | None = None) -> FilterReport:
    """Score every segment and commit the ones score_dataset keeps, at
    least min(min_demos, number of segments) of them, as the new store.

    The models passed in are read-only (callers hand in EMA snapshots); the
    store commit is a single atomic swap.
    """
    records, kept_segments = score_dataset(store, model, policy, cfg)
    store.replace(kept_segments)
    return FilterReport(records, iteration=iteration)
