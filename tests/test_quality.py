import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "quality.py"
spec = importlib.util.spec_from_file_location("quality", SCRIPT)
quality = importlib.util.module_from_spec(spec)
spec.loader.exec_module(quality)


@pytest.mark.parametrize("values,expected", [
    ([1.0, 2.0, 3.0, 4.0, 100.0], 3.0),         # n = 5 drops one at each end
    ([8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0], 4.5),
    ([-19.5, -19.4], -19.45),                    # n < 4 drops nothing
])
def test_iqm_of_known_vectors(values, expected):
    assert quality.iqm(values) == pytest.approx(expected, abs=1e-12)
    assert quality.iqm(values) == pytest.approx(
        stats.trim_mean(values, 0.25), abs=1e-12)


def test_iqm_along_the_last_axis():
    rows = np.array([[1.0, 2.0, 3.0, 4.0, 100.0], [5.0, 4.0, 3.0, 2.0, 1.0]])
    assert np.array_equal(quality.iqm(rows), [3.0, 3.0])


def test_bootstrap_interval_is_seeded():
    values = [-19.47, -19.58, -19.56, -19.35, -19.50]
    first = quality.bootstrap_ci(values, seed=3)
    assert quality.bootstrap_ci(values, seed=3) == first
    assert quality.bootstrap_ci(values, seed=4) != first
    lo, hi = first
    assert min(values) <= lo <= quality.iqm(values) <= hi <= max(values)


def _bench(config="[train]\n", spawns=None, returns=(-19.0, -19.5),
           shifts=(0.0, 0.0)):
    """A bench whose every method returns ``returns`` plus, at seed 7 + i,
    ``shifts[i]``."""
    return {"config": config,
            "spawns": spawns or {"seed": quality.SPAWN_SEED, "episodes": 2},
            "returns": {"expert": [-19.0, -19.0],
                        **{m: {str(7 + i): [r + shift for r in returns]
                               for i, shift in enumerate(shifts)}
                           for m in quality.METHODS}}}


BASE = ("[experiment]\nrun_id = a\noutput_dir = runs/a\nseed = 7\n"
        "[env]\nname = pointmass2d\n[data]\nper_level = 10\n"
        "[train]\ndenoiser_optimize_every = 5\n")


def test_compare_refuses_another_config_or_other_spawns():
    assert quality.compare(_bench(), _bench())["smile"]["mean_change"] == 0
    for section, old, new in (("experiment", "seed = 7", "seed = 8"),
                              ("env", "name = pointmass2d",
                               "name = double_integrator_1d"),
                              ("data", "per_level = 10", "per_level = 2")):
        with pytest.raises(SystemExit, match=rf"\[{section}\]"):
            quality.compare(_bench(BASE.replace(old, new)), _bench(BASE))
    with pytest.raises(SystemExit, match=r"\[data\] noise_levels"):
        quality.compare(_bench(BASE),
                        _bench(BASE.replace("[data]\n",
                                            "[data]\nnoise_levels = 0.5\n")))
    with pytest.raises(SystemExit, match="spawns"):
        quality.compare(_bench(), _bench(spawns={"seed": 1, "episodes": 2}))
    # a [train] difference is a defaults change to judge, not other demos,
    # and the output names are not compared
    other = (BASE.replace("= 5", "= 2").replace("runs/a", "runs/b")
             + "[filter]\nfilter_every = 1000\n")
    changes = quality.compare(_bench(other), _bench(BASE))["config_changes"]
    assert changes == {"train.denoiser_optimize_every": ["5", "2"],
                       "filter.filter_every": [None, "1000"]}
    assert quality.compare(_bench(BASE), _bench(BASE))["config_changes"] == {}


def test_t_table_is_scipy_quantile():
    for df in range(1, len(quality.T95) + 1):
        assert quality.t95(df) == pytest.approx(stats.t.ppf(0.95, df),
                                                abs=5e-7)
    # beyond the table the df = 30 value is used: a wider, not a narrower
    # bound
    for df in (31, 50, 1000):
        assert quality.t95(df) == quality.T95[-1] >= stats.t.ppf(0.95, df)
    with pytest.raises(ValueError):
        quality.t95(0)


@pytest.mark.parametrize("diffs,bound,holds", [
    ([0.0, 0.0], 0.0, True),
    # mean 0.1, sd 0.1: 0.1 - 2.919986 * 0.1 / sqrt(3)
    ([0.0, 0.1, 0.2], 0.1 - 0.2919986 / 3 ** 0.5, True),
    # mean 0, sd sqrt(0.02): the df = 1 quantile makes it wide
    ([0.1, -0.1], -6.313752 * 0.1, False),
    # mean -0.2 is below the margin whatever the spread
    ([-0.2, -0.2, -0.2], -0.2, False),
    # mean -0.1, sd 0.1, n = 10: -0.1 - 1.833113 * 0.1 / sqrt(10)
    ([-0.1 + 0.1 * z for z in (-1, 1) * 5], None, True),
])
def test_noninferiority_verdict(diffs, bound, holds):
    got = quality.noninferiority(diffs)
    d = np.asarray(diffs)
    if bound is None:
        sd = d.std(ddof=1)
        bound = d.mean() - 1.833113 * sd / np.sqrt(len(d))
    assert got["noninferiority_bound"] == pytest.approx(bound, abs=1e-9)
    assert got["noninferiority_test"] is holds
    assert got["noninferiority_margin"] == quality.NONINFERIORITY_MARGIN
    assert quality.NONINFERIORITY_MARGIN == 0.19


def test_compare_carries_every_test_per_method():
    # the change loses 0.05, 0.1 and 0.15 at seeds 7-9: mean -0.1, sd 0.05,
    # lower bound -0.1 - 2.919986 * 0.05 / sqrt(3) = -0.184 > -0.19
    parent = _bench(shifts=(0.0, 0.0, 0.0))
    got = quality.compare(_bench(shifts=(-0.05, -0.1, -0.15)), parent)
    for method in quality.METHODS:
        c = got[method]
        assert c["mean_change"] == pytest.approx(-0.1, abs=1e-12)
        assert c["noninferiority_bound"] == pytest.approx(
            -0.1 - 2.919986 * 0.05 / 3 ** 0.5, abs=1e-9)
        assert c["noninferiority_test"] is True
        assert c["spread_test"] is False       # the parent's SD is 0
        assert c["paired_test"] is False       # each seed moved by more
    # one shared seed is no spread: the method is left out
    one = quality.compare(_bench(shifts=(0.0,)), parent)
    assert all(one[m] is None for m in quality.METHODS)


def test_report_prints_the_changes_and_every_test(capsys):
    parent = _bench(BASE, shifts=(0.0, 0.0, 0.0))
    bench = _bench(BASE.replace("= 5", "= 2"), shifts=(-0.05, -0.1, -0.15))
    bench.update(expert={"mean_return": -19.0}, methods={},
                 vs_parent=quality.compare(bench, parent))
    quality.report(bench)
    lines = capsys.readouterr().out.splitlines()
    assert "vs parent config: train.denoiser_optimize_every 5 -> 2" in lines
    assert ("vs parent smile: mean change -0.100 (floor -0.000, spread test "
            "fails); paired within SE on 0/3 seeds; lower 95% bound -0.184 "
            "(margin -0.19, non-inferiority test holds)") in lines


def test_compare_lists_the_actor_widths_that_differ(capsys):
    # a width is no config key, so a change of it is listed on its own
    wide, narrow = [4, 256, 256, 256, 2], [4, 128, 128, 128, 2]
    parent, bench = _bench(BASE), _bench(BASE)
    parent["methods"] = {m: {"widths": wide} for m in quality.METHODS}
    bench["methods"] = {**parent["methods"], "bc": {"widths": narrow}}
    vs = quality.compare(bench, parent)
    assert vs["config_changes"] == {}
    assert vs["width_changes"] == {"bc": [wide, narrow]}
    assert quality.compare(bench, bench)["width_changes"] == {}
    # a parent bench that recorded no widths
    del parent["methods"]
    assert quality.compare(bench, parent)["width_changes"] == {
        "smile": [None, wide], "no-filter": [None, wide], "bc": [None, narrow]}
    bench.update(expert={"mean_return": -19.0}, vs_parent=vs)
    quality.report(bench)
    assert ("vs parent widths: bc [4, 256, 256, 256, 2] -> "
            "[4, 128, 128, 128, 2]") in capsys.readouterr().out.splitlines()


def test_compare_lists_the_denoiser_widths_that_differ(capsys):
    # the actors keep their widths while the noise model narrows: SMILE and
    # --no-filter list their denoiser, BC (which trains none) nothing
    actor = [4, 128, 128, 128, 2]
    wide, narrow = [17, 256, 256, 256, 2], [17, 256, 256, 2]
    parent, bench = _bench(BASE), _bench(BASE)
    parent["methods"] = {m: {"widths": actor, "denoiser_widths": wide}
                         for m in ("smile", "no-filter")}
    parent["methods"]["bc"] = {"widths": actor, "denoiser_widths": None}
    bench["methods"] = {m: {**parent["methods"][m], "denoiser_widths": narrow}
                        for m in ("smile", "no-filter")}
    bench["methods"]["bc"] = parent["methods"]["bc"]
    vs = quality.compare(bench, parent)
    assert vs["width_changes"] == {"smile denoiser": [wide, narrow],
                                   "no-filter denoiser": [wide, narrow]}
    # a parent bench that recorded no denoiser widths
    for m in quality.METHODS:
        del parent["methods"][m]["denoiser_widths"]
    assert quality.compare(bench, parent)["width_changes"] == {
        "smile denoiser": [None, narrow], "no-filter denoiser": [None, narrow]}
    bench.update(expert={"mean_return": -19.0}, vs_parent=vs)
    quality.report(bench)
    assert ("vs parent widths: smile denoiser [17, 256, 256, 256, 2] -> "
            "[17, 256, 256, 2]") in capsys.readouterr().out.splitlines()
