"""Span tracer for the benchmark's traced run.

The traced run wraps public smile functions from the benchmark's side: each
hook replaces one attribute at the place its caller looks it up (a module
global such as ``smile.trainer.denoiser_loss``, or a class attribute such as
``FeedForwardNet.backward``). Every wrapped call records a span with its
name, start, end, parent and any exception; spans stay in memory until the
run writes them out.

A hook whose target no longer exists is recorded as missing instead of
raising, and every per-layer metric that depends on it is reported absent,
so the traced run survives renames in the program it measures.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    rows: int | None = None
    nbytes: int | None = None
    segments: int | None = None
    kept: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items()
                if v is not None or k == "parent"}


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` ("module:attr.path") and record spans named ``span``.

    ``measure(span, args, kwargs, result)`` fills the span's counters after
    the call returns; it runs outside the span's own interval.
    """

    span: str
    target: str
    measure: Callable | None = None


def _rows_of(index: int) -> Callable:
    def measure(span, args, kwargs, result):
        span.rows = int(np.shape(args[index])[0]) \
            if np.ndim(args[index]) >= 2 else 1
    return measure


def _file_size(span, args, kwargs, result):
    span.nbytes = os.path.getsize(args[0])


def _scored(span, args, kwargs, result):
    records, kept = result
    span.segments, span.kept = len(records), len(kept)


# One entry per call site. Names the program imports into another module
# (``from .trainer import train`` in the CLI) are wrapped where they are
# called, which is why some functions appear under two targets.
HOOKS = (
    Hook("config.load", "smile.cli:load_config"),
    Hook("envs.load_demos", "smile.envs:load_demos", _file_size),
    Hook("envs.save_demos", "smile.envs:save_demos"),
    Hook("envs.sample", "smile.envs:DemoStore.sample"),
    Hook("diffusion.denoiser_loss", "smile.trainer:denoiser_loss",
         _rows_of(1)),
    Hook("diffusion.predict", "smile.diffusion:NoiseModel.predict",
         _rows_of(1)),
    Hook("policy.policy_loss", "smile.trainer:policy_loss"),
    Hook("policy.bc_loss", "smile.trainer:bc_loss"),
    Hook("policy.act", "smile.policy:GeneratorPolicy.act", _rows_of(1)),
    Hook("policy.act", "smile.policy:BcBaseline.act", _rows_of(1)),
    Hook("expertise.filter", "smile.trainer:filter_dataset"),
    Hook("expertise.score_dataset", "smile.expertise:score_dataset", _scored),
    Hook("expertise.score_dataset", "smile.cli:score_dataset", _scored),
    Hook("expertise.q_curve", "smile.expertise:q_curve_matrix", _rows_of(1)),
    Hook("mathcore.forward", "smile.mathcore:FeedForwardNet.forward",
         _rows_of(1)),
    Hook("mathcore.forward_cached",
         "smile.mathcore:FeedForwardNet.forward_cached", _rows_of(1)),
    Hook("mathcore.backward", "smile.mathcore:FeedForwardNet.backward",
         _rows_of(2)),
    Hook("mathcore.optimizer_step", "smile.trainer:optimizer_step"),
    Hook("mathcore.ema_update", "smile.trainer:ema_update"),
    Hook("mathcore.save_checkpoint", "smile.trainer:save_checkpoint",
         _file_size),
    Hook("mathcore.load_checkpoint", "smile.cli:load_checkpoint"),
    Hook("trainer.train", "smile.cli:train"),
    Hook("trainer.train", "smile.cli:train_bc"),
    Hook("trainer.snapshot", "smile.trainer:snapshot_noise_model"),
    Hook("trainer.snapshot", "smile.trainer:snapshot_policy"),
    Hook("trainer.evaluate", "smile.trainer:evaluate"),
    Hook("trainer.audit_bins", "smile.cli:audit_bins"),
)


def resolve(target: str):
    """Return (owner, attribute name, current value) for "module:a.b"."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}   # span name -> missing target
        self.broken: dict[str, str] = {}    # span name -> measure failure
        self._stack: list[Span] = []
        self._installed: list[tuple] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the benchmark's root spans)."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(span, error=type(exc).__name__)
            raise
        self.close(span)
        return result

    def wrap(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(hook.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, error=type(exc).__name__)
                raise
            tracer.close(span)
            if hook.measure is not None:
                try:
                    hook.measure(span, args, kwargs, result)
                except Exception as exc:  # a changed signature or result
                    tracer.broken[hook.span] = (
                        f"{hook.target}: {type(exc).__name__}: {exc}")
            return result
        return traced

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            try:
                owner, attr, original = resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.setdefault(hook.span, hook.target)
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self.wrap(original, hook))
            self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    p = span.parent
    while p is not None and by_id[p].name != name:
        p = by_id[p].parent
    return p is not None


def inclusive_time(spans: list[Span], name: str) -> float:
    """Total duration of ``name`` spans, counting nested repeats once."""
    by_id = {s.id: s for s in spans}
    return sum(s.end - s.start for s in spans
               if s.name == name and not _has_ancestor(s, by_id, name))


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    selfs = self_times(spans)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + selfs[s.id]
    return out


def descendants_of(spans: list[Span], root_name: str, name: str) -> int:
    """Number of ``name`` spans that have a ``root_name`` ancestor."""
    by_id = {s.id: s for s in spans}
    return sum(1 for s in spans
               if s.name == name and _has_ancestor(s, by_id, root_name))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, how, span name or layer). "calls", "rows", "s", "bytes",
# "segments" and "kept_frac" read spans of one name, "self" sums the self
# time of one layer's spans, and "extra" is measured outside the spans.
PER_LAYER = (
    ("config.load_s", "s", "s", "config.load"),
    ("cli.import_s", "s", "extra", None),
    ("envs.load_demos_s", "s", "s", "envs.load_demos"),
    ("envs.load_demos_bytes", "bytes", "bytes", "envs.load_demos"),
    ("envs.save_demos_s", "s", "s", "envs.save_demos"),
    ("envs.sample_calls", "count", "calls", "envs.sample"),
    ("envs.sample_s", "s", "s", "envs.sample"),
    ("envs.self_s", "s", "self", "envs"),
    ("diffusion.denoiser_loss_calls", "count", "calls",
     "diffusion.denoiser_loss"),
    ("diffusion.denoiser_loss_rows", "rows", "rows", "diffusion.denoiser_loss"),
    ("diffusion.denoiser_loss_s", "s", "s", "diffusion.denoiser_loss"),
    ("diffusion.predict_calls", "count", "calls", "diffusion.predict"),
    ("diffusion.predict_rows", "rows", "rows", "diffusion.predict"),
    ("diffusion.predict_s", "s", "s", "diffusion.predict"),
    ("diffusion.naive_us_p50", "us", "extra", None),
    ("diffusion.self_s", "s", "self", "diffusion"),
    ("policy.policy_loss_calls", "count", "calls", "policy.policy_loss"),
    ("policy.policy_loss_s", "s", "s", "policy.policy_loss"),
    ("policy.bc_loss_calls", "count", "calls", "policy.bc_loss"),
    ("policy.bc_loss_s", "s", "s", "policy.bc_loss"),
    ("policy.act_calls", "count", "calls", "policy.act"),
    ("policy.act_rows", "rows", "rows", "policy.act"),
    ("policy.act_s", "s", "s", "policy.act"),
    ("policy.self_s", "s", "self", "policy"),
    ("expertise.filter_passes", "count", "calls", "expertise.filter"),
    ("expertise.filter_s", "s", "s", "expertise.filter"),
    ("expertise.segments_scored", "count", "segments",
     "expertise.score_dataset"),
    ("expertise.kept_frac", "fraction", "kept_frac",
     "expertise.score_dataset"),
    ("expertise.kept_noise_mean", "noise", "extra", None),
    ("expertise.score_dataset_s", "s", "s", "expertise.score_dataset"),
    ("expertise.q_curve_rows", "rows", "rows", "expertise.q_curve"),
    ("expertise.q_curve_s", "s", "s", "expertise.q_curve"),
    ("expertise.self_s", "s", "self", "expertise"),
    ("mathcore.forward_calls", "count", "calls", "mathcore.forward"),
    ("mathcore.forward_rows", "rows", "rows", "mathcore.forward"),
    ("mathcore.forward_s", "s", "s", "mathcore.forward"),
    ("mathcore.forward_cached_calls", "count", "calls",
     "mathcore.forward_cached"),
    ("mathcore.forward_cached_rows", "rows", "rows", "mathcore.forward_cached"),
    ("mathcore.forward_cached_s", "s", "s", "mathcore.forward_cached"),
    ("mathcore.backward_calls", "count", "calls", "mathcore.backward"),
    ("mathcore.backward_rows", "rows", "rows", "mathcore.backward"),
    ("mathcore.backward_s", "s", "s", "mathcore.backward"),
    ("mathcore.optimizer_step_calls", "count", "calls",
     "mathcore.optimizer_step"),
    ("mathcore.optimizer_step_s", "s", "s", "mathcore.optimizer_step"),
    ("mathcore.ema_update_calls", "count", "calls", "mathcore.ema_update"),
    ("mathcore.ema_update_s", "s", "s", "mathcore.ema_update"),
    ("mathcore.save_checkpoint_s", "s", "s", "mathcore.save_checkpoint"),
    ("mathcore.checkpoint_bytes", "bytes", "bytes", "mathcore.save_checkpoint"),
    ("mathcore.load_checkpoint_s", "s", "s", "mathcore.load_checkpoint"),
    ("mathcore.self_s", "s", "self", "mathcore"),
    ("trainer.iterations", "count", "extra", None),
    ("trainer.train_s", "s", "s", "trainer.train"),
    ("trainer.self_s", "s", "self", "trainer"),
    ("trainer.snapshot_s", "s", "s", "trainer.snapshot"),
    ("trainer.evaluate_s", "s", "s", "trainer.evaluate"),
    ("trainer.audit_bins_s", "s", "s", "trainer.audit_bins"),
    ("trainer.audit_policy_calls", "count", "audit_calls", "policy.act"),
    ("trace.overhead_frac", "fraction", "extra", None),
    ("trace.spans", "count", "spans", None),
)

# attribute a "how" reads from the spans; a broken measure voids it
_ATTR = {"rows": "rows", "bytes": "nbytes", "segments": "segments",
         "kept_frac": "kept"}


def per_layer_metrics(spans: list[Span], missing: dict, broken: dict,
                      extras: dict):
    """Compute PER_LAYER from spans. ``missing`` maps a hook's span name, or
    an extra metric's name, to the target that is gone. Returns (metrics,
    absent): metrics maps name -> {"value", "unit"}; absent maps name -> the
    hook that voided it (a missing target, a failed measure, or an extra
    that was not taken)."""
    metrics, absent = {}, {}
    selfs = layer_self_times(spans)
    hook_spans = {h.span for h in HOOKS}
    missing_layers = {name.split(".", 1)[0]: target
                      for name, target in missing.items()
                      if name in hook_spans}
    for name, unit, how, key in PER_LAYER:
        if how == "extra":
            if extras.get(name) is None:
                absent[name] = missing.get(name, "not measured")
            else:
                metrics[name] = extras[name]
            continue
        if how == "self":
            if key in missing_layers:
                absent[name] = missing_layers[key]
            else:
                metrics[name] = selfs.get(key, 0.0)
            continue
        if key is not None and key in missing:
            absent[name] = missing[key]
            continue
        if how in _ATTR and key in broken:
            absent[name] = broken[key]
            continue
        own = [s for s in spans if s.name == key]
        if how == "calls":
            metrics[name] = len(own)
        elif how == "s":
            metrics[name] = inclusive_time(spans, key)
        elif how == "kept_frac":
            scored = sum(s.segments or 0 for s in own)
            metrics[name] = sum(s.kept or 0 for s in own) / scored \
                if scored else 0.0
        elif how == "audit_calls":
            metrics[name] = descendants_of(spans, "bench.audit", key)
        elif how == "spans":
            metrics[name] = len(spans)
        else:
            metrics[name] = sum(getattr(s, _ATTR[how]) or 0 for s in own)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            absent)
