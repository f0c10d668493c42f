"""Run the CI workflow's steps on this machine.

    python scripts/run_ci.py

It runs every ``run:`` step of ``.github/workflows/tests.yml`` that follows
a job's Install step, in the workflow's order, from the repository root,
each as its own ``bash -e`` script, as the hosted runner runs a step that
names no shell. Nothing is installed: a ``smile`` on PATH runs ``python -m smile`` with ``src`` on
PYTHONPATH, and the steps' ``python`` is the interpreter that runs this
script, as the hosted runner's is the one its setup step installed.
RUNNER_TEMP is a fresh temporary directory, removed at the end, and
GITHUB_STEP_SUMMARY a file that is printed at the end. The first step that
fails stops the run; the script names it and exits with its status.

The workflow is read with PyYAML, which is not a dependency of the
package: without it the script says so and exits with status 2.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_steps(workflow: Path) -> list[tuple[str, str]]:
    """(name, script) of each ``run:`` step after its job's Install step,
    job by job in file order."""
    import yaml
    steps = []
    for job in yaml.safe_load(workflow.read_text())["jobs"].values():
        names = [step.get("name") for step in job["steps"]]
        first = names.index("Install") + 1
        steps += [(step.get("name", step["run"].splitlines()[0]), step["run"])
                  for step in job["steps"][first:] if "run" in step]
    return steps


def write_shim(path: Path, command: str) -> None:
    path.write_text(f"#!/bin/sh\n{command}\n")
    path.chmod(0o755)


def main(workflow: Path = WORKFLOW) -> int:
    try:
        steps = run_steps(workflow)
    except ImportError:
        print("run_ci.py reads the workflow with PyYAML, which is not "
              "installed (it is no dependency of smile)", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory(prefix="run-ci-") as tmp:
        tmp = Path(tmp)
        bin_dir, runner_temp = tmp / "bin", tmp / "runner"
        bin_dir.mkdir()
        runner_temp.mkdir()
        summary = tmp / "step_summary.md"
        summary.touch()
        write_shim(bin_dir / "python", f'exec "{sys.executable}" "$@"')
        write_shim(bin_dir / "smile",
                   f'PYTHONPATH="{SRC}${{PYTHONPATH:+:$PYTHONPATH}}" '
                   f'exec "{sys.executable}" -m smile "$@"')
        env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
                   GITHUB_STEP_SUMMARY=str(summary),
                   PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        for name, script in steps:
            print(f"=== {name}", flush=True)
            step = tmp / "step.sh"
            step.write_text(script)
            status = subprocess.run(["bash", "-e", str(step)], cwd=ROOT,
                                    env=env).returncode
            if status:
                print(f"step {name!r} failed with status {status}",
                      file=sys.stderr)
                break
        print("=== step summary")
        print(summary.read_text(), end="", flush=True)
    if not status:
        print(f"all {len(steps)} steps passed")
    return status


if __name__ == "__main__":
    sys.exit(main())
