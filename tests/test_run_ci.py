import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_ci.py"
spec = importlib.util.spec_from_file_location("run_ci", SCRIPT)
run_ci = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_ci)

WORKFLOW = """\
name: tests
on: push
jobs:
  tests:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Before install
        run: exit 9
      - name: Install
        run: exit 9
      - name: Shims and summary
        run: |
          test "$(python -c 'import sys; print(sys.executable)')" = "{exe}"
          smile print-config | grep -q "^\\[filter\\]$"
          test -d "$RUNNER_TEMP"
          echo "summary line" >> "$GITHUB_STEP_SUMMARY"
      - name: Fails
        run: |
          false
          echo "not reached" >> "$GITHUB_STEP_SUMMARY"
      - name: Never runs
        run: echo "never" >> "$GITHUB_STEP_SUMMARY"
"""


def test_runs_the_steps_after_install_and_stops_at_a_failure(tmp_path,
                                                             capfd):
    pytest.importorskip("yaml")
    workflow = tmp_path / "tests.yml"
    workflow.write_text(WORKFLOW.format(exe=sys.executable))
    assert [name for name, _ in run_ci.run_steps(workflow)] == [
        "Shims and summary", "Fails", "Never runs"]
    assert run_ci.main(workflow) == 1
    out, err = capfd.readouterr()
    assert out.splitlines() == ["=== Shims and summary", "=== Fails",
                                "=== step summary", "summary line"]
    assert "step 'Fails' failed with status 1" in err
