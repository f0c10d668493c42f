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
