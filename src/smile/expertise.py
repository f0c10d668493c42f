"""Expertise scoring and self-motivated dataset filtering.

The conditioned Q-function measures how likely a reference action denoises to
a target action in exactly t steps: Q_t(a | a_ref, s) =
-||a - (a_ref - sigma_t * eps(s, a_ref, t))||^2 (the 1/2 sigma^2 prefactor is
dropped so small-t values are not blown up). Averaging over a segment and
taking the argmax over t in 0..T yields the predicted diffusion step between
the current policy and the segment's behavior policy: 0 means the policy is
at least as good, larger means the segment is cleaner by that many steps.

score_dataset is the one scoring path: it segments the store at terminals or
max_demo_len, each segment a (row, start, stop) range of one trajectory's
rows of the store's columns, and returns one record per segment, with its
mean Q curve and predicted step. A segment's whole curve costs one policy
call on its rows and one denoiser forward over T copies of them
(q_curve_matrix). So no array larger than T * max_demo_len rows exists,
whatever the store's size, and a segment's record depends only on its own
rows and the two networks, not on the store around it. That makes segments
independent work: they are scored on ``workers`` threads, each pulling the
next segment from one shared counter, with the same bits as on one.
``workers`` is 1 unless the command-line entry (smile.__main__) sets it to
the process's thread budget and pins BLAS to one thread.
score_dataset also gives each segment its verdict, by one rule that does
not look at store order: a segment is kept iff its step is above the step
threshold or among the min_demos highest steps (ties with the last of them
included). So every pass keeps at least min_demos segments, and no pass
switches filtering off. filter_dataset gathers the kept rows into a new
store, through one index array for every column; the audit's report and the
return-bin audit (trainer.audit_bins) read the same records.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .envs import DemoStore
from .errors import ConfigError, InvalidInputError
from .mathcore import atomic_write

# the threads score_dataset scores segments on, the caller's included
workers = 1


@dataclass
class FilterConfig:
    filter_every: int = 2500
    # the floor: a pass always keeps the min_demos highest-step segments
    min_demos: int = 10
    step_threshold: int = 1
    max_demo_len: int = 100

    def validate(self, T: int) -> None:
        if self.min_demos < 1:
            raise ConfigError(f"min_demos must be >= 1, got {self.min_demos}",
                              "min_demos")
        if self.max_demo_len < 1:
            raise ConfigError(
                f"max_demo_len must be >= 1, got {self.max_demo_len}",
                "max_demo_len")
        if not 0 <= self.step_threshold <= T:
            raise ConfigError(
                f"step_threshold {self.step_threshold} outside 0..{T}",
                "step_threshold", "diffusion_steps")
        if self.filter_every < 1:
            raise ConfigError(
                f"filter_every must be >= 1, got {self.filter_every}",
                "filter_every")


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
    with atomic_write(path) as fh:
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

def segment_trajectories(store: DemoStore, max_demo_len: int
                         ) -> list[tuple[int, int, int]]:
    """Split the store's trajectories at terminals or max_demo_len; returns
    a (row, start, stop) triple per segment, in store order: trajectory
    ``row``'s steps start..stop - 1."""
    segments = []
    for row, (first, end) in enumerate(zip(store.bounds, store.bounds[1:])):
        start = 0
        for i, terminal in enumerate(store.terminals[first:end].tolist()):
            if terminal or (i + 1 - start) >= max_demo_len:
                segments.append((row, start, i + 1))
                start = i + 1
        if start < end - first:
            segments.append((row, start, end - first))
    return segments


def mean_q_curves(store: DemoStore, segments, model,
                  policy) -> list[np.ndarray]:
    """The mean Q curve of each (row, start, stop) segment of ``store``, in
    order.

    The calling thread and min(workers, number of segments) - 1 threads
    each take the next index from one shared counter, until none is left,
    and store that segment's curve at it. A forward pass writes only arrays
    it allocates, so the threads share nothing but the two networks'
    parameters, which they only read. The caller is a worker itself: two
    threads beside an idle caller added 3.2 MB to the 46.0 MB peak RSS of
    a ``smile train`` with 8 filter passes, against 1.1 MB this way. The
    first exception any thread raises stops every thread at its next
    segment and is raised here once all have joined. On one worker the
    caller runs the same loop alone.
    """
    curves = [None] * len(segments)
    indices = itertools.count()   # its next() holds the GIL throughout
    errors = []

    def work():
        try:
            for i in indices:
                if i >= len(segments) or errors:
                    return
                row, start, stop = segments[i]
                rows = slice(store.bounds[row] + start,
                             store.bounds[row] + stop)
                states = store.states[rows]
                curves[i] = q_curve_matrix(
                    model, states, store.actions[rows],
                    policy.act(states)).mean(axis=1)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for _ in range(min(workers, len(segments)) - 1):
            threads.append(threading.Thread(target=work))
            threads[-1].start()
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return curves


def score_dataset(store: DemoStore, model, policy, cfg: FilterConfig):
    """Segment the store and score every segment without touching it.

    Returns (records, kept): per-segment reports with keep/drop verdicts,
    and the (row, record) of each segment that would remain, in order. A
    segment's return is the plain sum of its rewards, as a trajectory's is
    (DemoStore.rets), or None where it has none. A segment that spans its
    trajectory keeps its id, so where none is cut (as at the defaults)
    every pass names the demo file's ids; the pieces of a cut one get fresh
    ids after the store's largest. With k = min(min_demos,
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
    store would not). Segments are not merged into larger batches: those
    were not reliably faster, and on 2 cores 250 policy calls of 100 rows
    took 64 ms against 113 ms for one call of 25,000 rows.

    The curves come from mean_q_curves, on ``workers`` threads. BLAS
    splits a matmul by rows and columns, never along the sum, so a curve
    has the same bits on any number of workers and BLAS threads. On 2
    cores, 50 segments took 129-187 ms on one worker at one BLAS thread,
    99-129 ms at two BLAS threads, and 77-101 ms on two workers at one BLAS
    thread each (fastest to third quartile, 2 x 15 passes).
    Callers run mathcore.keep_temporaries_on_heap first, or the
    per-segment arrays fault their pages in anew at every segment: 117,000
    page faults in one pass over 25,000 transitions, which then took 0.9 s
    instead of 0.5 s. A segment's predicted step is the argmax of its mean
    Q curve over t' (ties break toward the smallest t').
    """
    if store.num_trajectories == 0:
        raise InvalidInputError("cannot filter an empty store")
    if any(length == 0 for _, length, _, _ in store.rows):
        raise InvalidInputError("cannot score an empty trajectory")
    cfg.validate(model.sched.T)
    segments = segment_trajectories(store, cfg.max_demo_len)

    curves = mean_q_curves(store, segments, model, policy)
    steps = [int(np.argmax(curve)) for curve in curves]
    k = min(cfg.min_demos, len(steps))
    cut = min(cfg.step_threshold, sorted(steps)[-k] - 1)

    fresh = itertools.count(max(row[0] for row in store.rows) + 1)
    records = []
    kept = []
    for (row, start, stop), curve, step in zip(segments, curves, steps):
        tid, length, level, had_rewards = store.rows[row]
        first = store.bounds[row]
        rec = SegmentRecord(
            segment_id=tid if stop - start == length else next(fresh),
            parent_id=tid, start=start, stop=stop, predicted_step=step,
            mean_q=curve.tolist(), verdict="keep" if step > cut else "drop",
            noise_level=level,
            ret=float(np.sum(store.rewards[first + start:first + stop]))
            if had_rewards else None)
        records.append(rec)
        if step > cut:
            kept.append((row, rec))
    return records, kept


def filter_dataset(store: DemoStore, model, policy, cfg: FilterConfig,
                   iteration: int | None = None
                   ) -> tuple[FilterReport, DemoStore]:
    """Score every segment; return (report, a new store of ``store``'s env
    holding the segments score_dataset keeps, in order): at least
    min(min_demos, number of segments) of them. Nothing passed in is
    edited; callers hand in EMA snapshots of the models.
    """
    records, kept = score_dataset(store, model, policy, cfg)
    index = np.concatenate([
        np.arange(store.bounds[row] + rec.start, store.bounds[row] + rec.stop)
        for row, rec in kept])
    return (FilterReport(records, iteration=iteration),
            DemoStore([column[index] for column in store.columns],
                      [(rec.segment_id, rec.stop - rec.start,
                        rec.noise_level, store.rows[row][3])
                       for row, rec in kept], store.env))
