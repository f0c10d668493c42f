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


def _bench(config="[train]\n", spawns=None, returns=(-19.0, -19.5)):
    return {"config": config,
            "spawns": spawns or {"seed": quality.SPAWN_SEED, "episodes": 2},
            "returns": {"expert": [-19.0, -19.0],
                        **{m: {"7": list(returns), "8": list(returns)}
                           for m in quality.METHODS}}}


def test_compare_refuses_another_config_or_other_spawns():
    assert quality.compare(_bench(), _bench())["smile"]["mean_change"] == 0
    with pytest.raises(SystemExit, match="config text differs"):
        quality.compare(_bench(), _bench(config="[train]\nfiltering = 1\n"))
    with pytest.raises(SystemExit, match="spawns"):
        quality.compare(_bench(), _bench(spawns={"seed": 1, "episodes": 2}))
