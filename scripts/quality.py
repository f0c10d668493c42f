"""Paired multi-seed quality bench: SMILE, its `--no-filter` ablation and
the behavior-cloning baseline, trained on one demo file for several
training seeds and evaluated on the same spawns.

    python scripts/quality.py [--config C] [--seeds 7-11] \
        [--out BENCH_quality.json] [--parent OTHER.json] [--work DIR]

It runs the program of the checkout it lives in (``src``). The demos come
from `smile gen-data` on the config (default: `smile print-config`) at the
config's own seed. For each training seed s, `smile train` runs once per
method as a subprocess, with the config's seed set to s (so the training
seed is derive_seed(s, "train")), two processes at a time, each with
OPENBLAS_NUM_THREADS=1, a thread budget of one (one segment worker, one
BLAS thread): seeded outputs are the same at any budget, and two
single-thread processes finish a sweep sooner than one process with two.
Each run's EMA checkpoint (`generator.json`, or `bc.json` for BC) is
loaded as `smile audit` loads it and, like the analytic expert, rolled
out on the same EPISODES spawns of SeededRng(SPAWN_SEED). Each run also
records its wall seconds and the seconds of its PHASES, and each
method the layer widths of its actor, read from those checkpoints, and of
its noise model, read from `denoiser.json` (SMILE and --no-filter).

The statistics follow Agarwal et al., *Deep RL at the Edge of the
Statistical Precipice* (arXiv 2108.13264): the interquartile mean (IQM)
over seeds with a percentile interval from the stratified bootstrap. One
environment is one stratum, so the bootstrap resamples the seeds.

With --parent, a bench of another checkout is compared run by run, change
minus parent, over the seeds both evaluated. The parent must share the
spawns and the demos: its config's [experiment] seed, [env] and [data]
must be this bench's (else it exits). Its [train], [filter] and [schedule]
keys may differ; those that do are recorded as `config_changes`, so a
defaults change can be judged. A width is no config key, so the networks
whose widths differ are recorded apart, as `width_changes`. Three
tests per method:
  paired   per seed, the mean per-spawn difference lies within its
           standard error (the north-star test);
  spread   the change in the mean over seeds is at least -SPREAD_FRACTION
           times the parent's across-seed SD;
  non-inferiority  the lower one-sided 95% bound of the mean per-seed
           change, mean(d) - t(0.95, n-1) sd(d) / sqrt(n), lies above
           -NONINFERIORITY_MARGIN.
A run without its checkpoint (BC before it wrote `bc.json`) records null
and is left out of all three.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from smile.cli import _load_actor  # noqa: E402
from smile.config import DEFAULT_CONFIG, load_config  # noqa: E402
from smile.envs import (default_expert, expert_act,  # noqa: E402
                        rollout_batch_returns)
from smile.mathcore import SeededRng  # noqa: E402

# method -> (extra `smile train` flags, the checkpoint its actor is in)
METHODS = {"smile": ([], "generator.json"),
           "no-filter": (["--no-filter"], "generator.json"),
           "bc": (["--bc-baseline"], "bc.json")}
PAIRS = (("smile", "no-filter"), ("smile", "bc"))
SPAWN_SEED = 20261018
EPISODES = 500
JOBS = 2
BOOT_REPS = 2000
BOOT_SEED = 0
SPREAD_FRACTION = 0.14
# the return a change may lose and still pass the non-inferiority test: 11%
# of the SMILE - --no-filter gap of 1.73 (BENCH_quality.json, seeds 7-11).
# A neutral change passes 80% of the time at 0.19 with 5 seeds, against
# SMILE's across-seed SD of 0.122
NONINFERIORITY_MARGIN = 0.19
# t(0.95, df) for df = 1..30 (scipy is a test-only dependency); a larger df
# takes the df = 30 value, which overstates its quantile: a wider bound
T95 = (6.313752, 2.919986, 2.353363, 2.131847, 2.015048, 1.94318, 1.894579,
       1.859548, 1.833113, 1.812461, 1.795885, 1.782288, 1.770933, 1.76131,
       1.75305, 1.745884, 1.739607, 1.734064, 1.729133, 1.724718, 1.720743,
       1.717144, 1.713872, 1.710882, 1.708141, 1.705618, 1.703288, 1.701131,
       1.699127, 1.697261)
# the training phases whose seconds each run's run.json gives, recorded per
# run as "<phase>_s" (null where a run has none, as BC has no denoiser)
PHASES = ("denoiser", "policy")
# config sections a parent may change; any other difference but the output
# names means other demos
CHANGEABLE = ("train", "filter", "schedule")


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def iqm(x, axis: int = -1):
    """Interquartile mean along ``axis``: the mean left after dropping the
    int(n / 4) lowest and highest values, as scipy.stats.trim_mean(x, 0.25)."""
    x = np.sort(np.asarray(x, dtype=np.float64), axis=axis)
    n = x.shape[axis]
    cut = n // 4
    return np.take(x, np.arange(cut, n - cut), axis=axis).mean(axis=axis)


def bootstrap_ci(values, seed: int = BOOT_SEED, reps: int = BOOT_REPS,
                 level: float = 0.95) -> tuple[float, float]:
    """Percentile interval of the IQM of ``values`` over ``reps`` bootstrap
    resamples drawn with ``seed``."""
    values = np.asarray(values, dtype=np.float64)
    idx = np.random.default_rng(seed).integers(0, len(values),
                                               (reps, len(values)))
    lo, hi = np.percentile(iqm(values[idx]), [50 * (1 - level),
                                              50 * (1 + level)])
    return float(lo), float(hi)


def summarize(per_seed: dict[str, float]) -> dict:
    """Mean, across-seed SD and IQM with its interval of per-seed values."""
    values = list(per_seed.values())
    return {"per_seed": per_seed, "mean": float(np.mean(values)),
            "sd": float(np.std(values, ddof=1)), "iqm": float(iqm(values)),
            "iqm_ci95": bootstrap_ci(values)}


def t95(df: int) -> float:
    """The one-sided 95% quantile of Student's t with ``df`` degrees of
    freedom, from T95."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return T95[min(df, len(T95)) - 1]


def noninferiority(diffs) -> dict:
    """The one-sided test that per-seed changes ``diffs`` (two or more) lose
    at most NONINFERIORITY_MARGIN: the lower 95% bound of their mean lies
    above -NONINFERIORITY_MARGIN."""
    d = np.asarray(diffs, dtype=np.float64)
    lower = float(d.mean() - t95(len(d) - 1) * d.std(ddof=1)
                  / math.sqrt(len(d)))
    return {"noninferiority_margin": NONINFERIORITY_MARGIN,
            "noninferiority_bound": lower,
            "noninferiority_test": lower > -NONINFERIORITY_MARGIN}


def sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


def config_changes(bench_text: str, parent_text: str) -> dict:
    """The [train], [filter] and [schedule] values that differ, as
    "section.key" -> [parent's, this bench's] (null where unset). A parent
    of another [experiment] seed, or of any other section, is refused."""
    new, old = sections(bench_text), sections(parent_text)
    for side in (new, old):
        side.get("experiment", {}).pop("run_id", None)
        side.get("experiment", {}).pop("output_dir", None)
    changes = {}
    for name in sorted(set(new) | set(old)):
        a, b = old.get(name, {}), new.get(name, {})
        differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if differ and name not in CHANGEABLE:
            raise SystemExit(f"parent config differs in [{name}] "
                             f"{', '.join(differ)}: other demos")
        changes.update({f"{name}.{k}": [a.get(k), b.get(k)] for k in differ})
    return changes


def width_changes(bench: dict, parent: dict) -> dict:
    """The networks whose recorded widths differ, as name -> [parent's,
    this bench's] (null where a bench recorded none): a method's actor by
    the method's name, its noise model as "<method> denoiser"."""
    changes = {}
    for method in METHODS:
        for key, name in (("widths", method),
                          ("denoiser_widths", f"{method} denoiser")):
            old, new = (side.get("methods", {}).get(method, {}).get(key)
                        for side in (parent, bench))
            if old != new:
                changes[name] = [old, new]
    return changes


def write_config(text: str, path: Path, out_dir: Path,
                 seed: int | None = None) -> Path:
    """The config ``text`` with ``out_dir`` and, if given, ``seed``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    if not parser.has_section("experiment"):
        parser.add_section("experiment")
    parser["experiment"]["output_dir"] = str(out_dir)
    if seed is not None:
        parser["experiment"]["seed"] = str(seed)
    buf = io.StringIO()
    parser.write(buf)
    path.write_text(buf.getvalue())
    return path


def smile(*args: str) -> float:
    """Run `python -m smile` on this checkout's src at a thread budget of
    one; returns its wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "smile", *args], env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"smile {' '.join(args)} exited {proc.returncode}:"
                         f"\n{proc.stderr}")
    return wall


def spawn_returns(cfg, act) -> np.ndarray:
    return rollout_batch_returns(cfg.env, act, SeededRng(SPAWN_SEED),
                                 EPISODES)


def run_bench(text: str, seeds: list[int], work: Path) -> dict:
    data = work / "data"
    data.mkdir(parents=True, exist_ok=True)
    base = write_config(text, work / "data.ini", data)
    smile("gen-data", "--config", str(base))
    cfg = load_config(str(base))
    demos = data / cfg.data.demo_file

    runs = [(method, seed) for method in METHODS for seed in seeds]
    dirs = {run: work / f"{run[0]}-s{run[1]}" for run in runs}

    def train(run):
        method, seed = run
        path = write_config(text, work / f"{method}-s{seed}.ini", dirs[run],
                            seed)
        return smile("train", "--config", str(path), "--demos", str(demos),
                     *METHODS[method][0])

    # the BC runs last, so the two processes finish close together
    with ThreadPoolExecutor(JOBS) as pool:
        walls = dict(zip(runs, pool.map(train, runs)))

    expert = spawn_returns(
        cfg, lambda obs: expert_act(default_expert(cfg.env), cfg.env, obs))
    bench = {"config": text, "seeds": seeds,
             "spawns": {"seed": SPAWN_SEED, "episodes": EPISODES},
             "expert": {"mean_return": float(expert.mean())},
             "methods": {}, "paired": {},
             "returns": {"expert": expert.tolist()}}
    for method, (_, checkpoint) in METHODS.items():
        returns, widths, denoiser_widths = {}, None, None
        phases = {f"{phase}_s": {} for phase in PHASES}
        for seed in seeds:
            out = dirs[method, seed]
            returns[str(seed)] = None
            if (out / checkpoint).exists():
                actor = _load_actor(cfg, str(out / checkpoint),
                                    "generator", "bc")
                returns[str(seed)] = spawn_returns(cfg, actor.act).tolist()
                widths = actor.widths
            if (out / "denoiser.json").exists():
                denoiser_widths = _load_actor(
                    cfg, str(out / "denoiser.json"), "denoiser").widths
            clock = {}
            if (out / "run.json").exists():
                clock = json.loads((out / "run.json").read_text())[
                    "wall_clock"]
            for phase in PHASES:
                phases[f"{phase}_s"][str(seed)] = clock.get(phase)
        means = {s: float(np.mean(r)) for s, r in returns.items()
                 if r is not None}
        bench["methods"][method] = {
            **(summarize(means) if means else {"per_seed": {}}),
            "widths": widths, "denoiser_widths": denoiser_widths, **phases,
            "wall_s": {str(s): walls[method, s] for s in seeds}}
        bench["returns"][method] = returns
    for a, b in PAIRS:
        ma = bench["methods"][a]["per_seed"]
        mb = bench["methods"][b]["per_seed"]
        diffs = {s: ma[s] - mb[s] for s in ma if s in mb}
        bench["paired"][f"{a} - {b}"] = summarize(diffs) if diffs else None
    return bench


def compare(bench: dict, parent: dict) -> dict:
    """Each method's change against ``parent``'s under the paired, the
    spread and the non-inferiority test, over the seeds both evaluated (null
    for a method with fewer than two). A parent of other spawns or other
    demos is refused (config_changes). Network widths that differ are
    listed beside the config changes (width_changes)."""
    if parent["spawns"] != bench["spawns"]:
        raise SystemExit(f"parent spawns {parent['spawns']} differ from "
                         f"{bench['spawns']}")
    out = {"config_changes": config_changes(bench["config"],
                                            parent["config"]),
           "width_changes": width_changes(bench, parent),
           "expert_identical":
           parent["returns"]["expert"] == bench["returns"]["expert"]}
    for method in METHODS:
        new, old = bench["returns"][method], parent["returns"].get(method, {})
        seeds = [s for s, r in new.items()
                 if r is not None and old.get(s) is not None]
        if len(seeds) < 2:  # no across-seed spread
            out[method] = None
            continue
        paired = {}
        for s in seeds:
            d = np.asarray(new[s]) - np.asarray(old[s])
            mean, se = float(d.mean()), float(d.std(ddof=1)
                                              / math.sqrt(len(d)))
            paired[s] = {"mean": mean, "se": se, "within_se": abs(mean) <= se}
        old_means = [float(np.mean(old[s])) for s in seeds]
        diffs = [float(np.mean(new[s])) - m for s, m in zip(seeds, old_means)]
        change = float(np.mean(diffs))
        floor = -SPREAD_FRACTION * float(np.std(old_means, ddof=1))
        out[method] = {"paired": paired,
                       "paired_test": all(p["within_se"]
                                          for p in paired.values()),
                       "parent_mean": float(np.mean(old_means)),
                       "mean_change": change, "spread_floor": floor,
                       "spread_test": change >= floor,
                       **noninferiority(diffs)}
    return out


def dumps(bench: dict) -> str:
    """``bench`` as indented JSON with each list of numbers on one line."""
    return re.sub(r"\[[-+0-9.eE,\s]*\]",
                  lambda m: json.dumps(json.loads(m.group())),
                  json.dumps(bench, indent=1)) + "\n"


def report(bench: dict) -> None:
    print(f"expert {bench['expert']['mean_return']:.3f}")
    print("method     mean     sd     iqm  [95% interval]")
    for method, m in bench["methods"].items():
        if "mean" in m:
            lo, hi = m["iqm_ci95"]
            print(f"{method:9s} {m['mean']:8.3f} {m['sd']:6.3f} "
                  f"{m['iqm']:8.3f}  [{lo:.3f}, {hi:.3f}]")
    vs_parent = bench.get("vs_parent", {})
    for key, (old, new) in vs_parent.get("config_changes", {}).items():
        print(f"vs parent config: {key} {old} -> {new}")
    for method, (old, new) in vs_parent.get("width_changes", {}).items():
        print(f"vs parent widths: {method} {old} -> {new}")
    verdict = {True: "holds", False: "fails"}
    for method in METHODS:
        c = vs_parent.get(method)
        if c is not None:
            within = sum(p["within_se"] for p in c["paired"].values())
            print(f"vs parent {method}: mean change {c['mean_change']:+.3f} "
                  f"(floor {c['spread_floor']:+.3f}, spread test "
                  f"{verdict[c['spread_test']]}); paired within SE on "
                  f"{within}/{len(c['paired'])} seeds; lower 95% bound "
                  f"{c['noninferiority_bound']:+.3f} (margin "
                  f"-{c['noninferiority_margin']:.2f}, non-inferiority test "
                  f"{verdict[c['noninferiority_test']]})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", help="config file (default: the defaults)")
    ap.add_argument("--seeds", default="7-11", help="e.g. 7-11 or 1,3")
    ap.add_argument("--out", default=str(ROOT / "BENCH_quality.json"))
    ap.add_argument("--parent", help="a bench of another checkout")
    ap.add_argument("--work", help="keep the runs here (default: a "
                                   "temporary directory)")
    args = ap.parse_args(argv)
    seeds = seeds_of(args.seeds)
    if len(seeds) < 2:
        ap.error("need two or more seeds for an across-seed spread")
    text = Path(args.config).read_text() if args.config else DEFAULT_CONFIG
    with tempfile.TemporaryDirectory(prefix="quality-") as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        bench = run_bench(text, seeds, work)
    if args.parent:
        bench["vs_parent"] = compare(bench,
                                     json.loads(Path(args.parent).read_text()))
    Path(args.out).write_text(dumps(bench))
    report(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
