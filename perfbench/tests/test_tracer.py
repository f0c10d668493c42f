"""Span arithmetic and hook handling of the traced run."""

import json

import pytest

import smile.mathcore
import smile.trainer
from tracer import (HOOKS, PER_LAYER, Hook, Span, Tracer, inclusive_time,
                    layer_self_times, per_layer_metrics, self_times)
from run import E2E, ROOT


def spans_from(rows):
    return [Span(id=i, parent=p, name=n, start=a, end=b)
            for i, (p, n, a, b) in enumerate(rows)]


def test_self_time_of_nested_spans():
    # root [0,10] holds a [1,4] and b [5,9]; a holds c [2,3]
    spans = spans_from([(None, "bench.root", 0.0, 10.0),
                        (0, "mathcore.a", 1.0, 4.0),
                        (0, "trainer.b", 5.0, 9.0),
                        (1, "mathcore.c", 2.0, 3.0)])
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0}
    # self times partition the root's interval
    assert sum(self_times(spans).values()) == 10.0
    assert layer_self_times(spans) == {"bench": 3.0, "mathcore": 3.0,
                                       "trainer": 4.0}


def test_overlapping_children_are_counted_once():
    spans = spans_from([(None, "x.root", 0.0, 10.0),
                        (0, "x.a", 1.0, 6.0),
                        (0, "x.b", 4.0, 12.0)])  # overlaps a, overruns root
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_inclusive_time_counts_a_nested_repeat_once():
    spans = spans_from([(None, "policy.act", 0.0, 5.0),
                        (0, "policy.act", 1.0, 2.0),
                        (None, "policy.act", 6.0, 7.0)])
    assert inclusive_time(spans, "policy.act") == 6.0


def test_hooks_wrap_and_restore_call_sites():
    original = smile.trainer.denoiser_loss
    method = smile.mathcore.FeedForwardNet.forward
    tracer = Tracer()
    tracer.install()
    try:
        assert smile.trainer.denoiser_loss is not original
        assert not tracer.missing
    finally:
        tracer.uninstall()
    assert smile.trainer.denoiser_loss is original
    assert smile.mathcore.FeedForwardNet.forward is method


def test_missing_hook_reports_its_metrics_absent():
    hooks = [h for h in HOOKS if h.span != "diffusion.denoiser_loss"]
    hooks.append(Hook("diffusion.denoiser_loss",
                      "smile.trainer:renamed_denoiser_loss"))
    tracer = Tracer()
    tracer.install(hooks)
    tracer.uninstall()
    assert tracer.missing == {
        "diffusion.denoiser_loss": "smile.trainer:renamed_denoiser_loss"}
    metrics, absent = per_layer_metrics([], tracer.missing, {}, {})
    for name in ("diffusion.denoiser_loss_calls", "diffusion.denoiser_loss_s",
                 "diffusion.self_s"):
        assert absent[name] == "smile.trainer:renamed_denoiser_loss"
        assert name not in metrics
    assert metrics["mathcore.forward_calls"]["value"] == 0


def test_failed_measure_voids_only_its_counter():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda x: x, Hook("policy.act", "t:f",
                                            lambda *a: 1 / 0))
    assert wrapped(3) == 3
    metrics, absent = per_layer_metrics(tracer.spans, {}, tracer.broken, {})
    assert "policy.act_rows" in absent
    assert metrics["policy.act_calls"]["value"] == 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in PER_LAYER]


def test_missing_extra_names_its_target_only():
    metrics, absent = per_layer_metrics(
        [], {"diffusion.naive_us_p50": "smile.diffusion:naive_reverse_sample"},
        {}, {"diffusion.naive_us_p50": None})
    assert absent == {
        "diffusion.naive_us_p50": "smile.diffusion:naive_reverse_sample",
        **{name: "not measured" for name, _, how, _ in PER_LAYER
           if how == "extra" and name != "diffusion.naive_us_p50"}}
    assert "diffusion.self_s" in metrics
