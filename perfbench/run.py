"""Benchmark of the SMILE reproduction, driven through the `smile` CLI.

    python3 perfbench/run.py --workload smile-train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src`` and
writes only under ``.bench_work`` (temporary files, removed at exit) and
``.bench_out`` (manifests and spans). Workloads:

  smile-train  gen-data (5 levels x 10 episodes), then repeated
               `smile train` runs with filtering on.
  bc-train     gen-data as above, then repeated `smile train --bc-baseline`.
  audit-act    gen-data for a large store, an untimed preparatory training
               run, repeated `smile audit`, then closed-loop single-state
               decisions by the generator it trained.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs the workload's CLI phases in one process, three
times untraced and three times with the hooks of tracer.py, in turn, and
reports the per-layer metrics. Every CLI call, and every correctness check
on its outputs, is one attempted operation. The last line of stdout is the
result object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One process at a time, with at most one BLAS thread per usable core.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)

from child import zero_policy_return  # noqa: E402

BATCH = 128
MAX_DEMO_LEN = 100     # filter segment length (config default)
RUN_DEADLINE_S = 170   # every child is killed past this point
# passes of the traced run, untraced and traced in turn
TRACE_PASSES = tuple(f"{mode}{r}" for r in range(3)
                     for mode in ("untraced", "traced"))
ZERO_POLICY_EPISODES = 500
# Set-up seconds are reported at the machine speed at which the reference
# parse of child.reference_parse_s takes this long.
REF_PARSE_S = 0.03

E2E = (("setup_s", "s"), ("transitions_per_s", "transitions/s"),
       ("final_neg_return", "return"), ("act_p50_vs_ref", "ratio"),
       ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Size:
    demo_per_level: int    # training demo file: 5 noise levels x this
    audit_per_level: int   # audit store: 5 noise levels x this
    train_iters: int       # `smile train` iterations of BATCH rows
    filter_passes: int     # scheduled; the filter may stop before them
    eval_episodes: int     # one final evaluation at the last iteration
    bc_iters: int
    prep_iters: int        # untimed training that makes audit checkpoints
    act_episodes: int      # closed-loop episodes of 100 decisions each
    act_chunk_episodes: int  # episodes per latency quantile window
    setup_probes: int      # fresh set-up processes per run
    quality_reps: int      # first reps whose median is the final return
    naive_trials: int


SIZES = {
    "full": Size(demo_per_level=10, audit_per_level=50, train_iters=320,
                 filter_passes=8, eval_episodes=500, bc_iters=1000,
                 prep_iters=128, act_episodes=50, act_chunk_episodes=10,
                 setup_probes=9, quality_reps=2, naive_trials=300),
    # for the benchmark's own tests: same code path, seconds per workload
    "tiny": Size(demo_per_level=2, audit_per_level=2, train_iters=16,
                 filter_passes=2, eval_episodes=50, bc_iters=40,
                 prep_iters=16, act_episodes=2, act_chunk_episodes=1,
                 setup_probes=2, quality_reps=1, naive_trials=10),
}


@dataclass
class Proc:
    rc: int
    wall_s: float
    stdout: str


def rep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def median(values) -> float:
    return float(statistics.median(values))


def write_config(path: Path, out_dir: Path, seed: int, per_level: int,
                 iters: int | None = None, filter_every: int | None = None,
                 eval_episodes: int | None = None) -> Path:
    lines = ["[experiment]", "run_id = bench", f"output_dir = {out_dir}",
             f"seed = {seed}", "", "[data]", f"per_level = {per_level}"]
    if iters is not None:
        lines += ["", "[train]", f"batch_size = {BATCH}",
                  f"transition_budget = {iters * BATCH}",
                  f"eval_every = {iters}", f"eval_episodes = {eval_episodes}"]
    if filter_every is not None:
        lines += ["", "[filter]", f"filter_every = {filter_every}",
                  f"max_demo_len = {MAX_DEMO_LEN}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_demos(path: Path) -> list[dict]:
    with open(path) as fh:
        next(fh)  # header
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def noise_mean(records) -> float:
    return float(np.mean([r["noise_level"] for r in records]))


def expected_segments(demos: list[dict]) -> list[tuple[int, int, int]]:
    """(traj_id, start, stop) of each segment: cut at a terminal step or
    when a segment reaches MAX_DEMO_LEN steps."""
    by_traj: dict[int, list[dict]] = {}
    for rec in demos:
        by_traj.setdefault(rec["traj_id"], []).append(rec)
    out = []
    for tid, recs in by_traj.items():
        recs.sort(key=lambda r: r["step"])
        start = 0
        for i, rec in enumerate(recs):
            if rec["terminal"] or i + 1 - start >= MAX_DEMO_LEN:
                out.append((tid, start, i + 1))
                start = i + 1
        if start < len(recs):
            out.append((tid, start, len(recs)))
    return sorted(out)


def audit_bins(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    header = "bin_lo,bin_hi,count,mean_step"
    if header not in lines:
        return []
    body = []
    for line in lines[lines.index(header) + 1:]:
        if line.count(",") != 3:
            break
        body.append(line)
    return list(csv.DictReader(io.StringIO("\n".join([header] + body))))


def blas_info() -> dict:
    info = {"threads_env": BLAS_THREADS}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (TypeError, KeyError):
        pass
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "smile").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Bench:
    """One run of one workload: children, operation ledger, manifest."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 size: Size):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.size = trace, size
        self.work = ROOT / ".bench_work" / (
            f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.inputs: dict = {}
        self.absent: dict = {}
        self.peak_rss_mb = 0.0
        self.eval_return: float | None = None
        # filled by the traced run
        self.extras: dict = {}
        self.spans_json: list[list[dict]] = []   # one list per traced pass
        self.missing: dict = {}
        self.broken: dict = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._tags = 0

    # -- operations ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def spawn(self, cmd: list[str], what: str, timed: bool = False) -> Proc:
        """Run a child to completion; one operation, failed unless rc 0.
        ``timed`` children count towards peak_rss_mb."""
        self._tags += 1
        log = self.work / f"proc{self._tags:03d}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        stdout = Path(f"{log}.out").read_text()
        if not self.check(proc.returncode == 0,
                          f"{what} exited {proc.returncode}"):
            sys.stderr.write(Path(f"{log}.err").read_text()[-2000:])
        return Proc(proc.returncode, wall, stdout)

    def smile(self, *argv, timed: bool = False) -> Proc:
        return self.spawn([sys.executable, "-m", "smile", *map(str, argv)],
                          f"smile {argv[0]}", timed)

    def child(self, *argv, what: str, timed: bool = False) -> Proc:
        return self.spawn([sys.executable, str(HERE / "child.py"),
                           *map(str, argv)], what, timed)

    # -- shared steps -------------------------------------------------------

    def gen_data(self, per_level: int) -> tuple[Path, Path]:
        data = self.work / "data"
        cfg = write_config(data / "cfg.ini", data, self.seed, per_level)
        self.smile("gen-data", "--config", cfg)
        demos = data / "demos.jsonl"
        self.inputs["demo_transitions"] = len(read_demos(demos)) \
            if demos.exists() else 0
        return cfg, demos

    def warm_up(self) -> None:
        """Import once untimed, so bytecode caches exist before timing."""
        self.spawn([sys.executable, "-c", "import smile.cli"], "warm-up")

    def probe(self, cfg: Path, demos: Path, checkpoints=()) -> dict | None:
        """One fresh set-up process: its time from spawn to the end of
        set-up, and the reference parse time it measured right after."""
        extra = [a for p in checkpoints for a in ("--checkpoint", p)]
        t0 = time.monotonic()
        proc = self.child("setup", "--config", cfg, "--demos", demos,
                          *extra, what="setup probe")
        if proc.rc != 0:
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        return {"setup_s": out["ready"] - t0, "ref_s": out["ref_s"]}

    def act(self, checkpoint: Path | None, evaluate: bool) -> dict | None:
        """One act-loop child: the same episodes every time it runs, then,
        if ``evaluate``, a batched evaluation of the same policy."""
        out = self.work / "act.json"
        src = ["--checkpoint", checkpoint] if checkpoint else ["--fresh-bc"]
        proc = self.child("act", "--out", out, *src,
                          "--episodes", self.size.act_episodes,
                          "--chunk-episodes", self.size.act_chunk_episodes,
                          "--eval-episodes",
                          self.size.eval_episodes if evaluate else 0,
                          "--seed", rep_seed(self.seed, 0), what="act loop",
                          timed=True)
        if proc.rc != 0:
            return None
        res = json.loads(out.read_text())
        self.check(res["finite"] and math.isfinite(res.get("eval_return", 0)),
                   "act decisions and returns are finite")
        return res

    def measure(self, rep, probe_args, act_checkpoint,
                evaluate: bool = False) -> list[float]:
        """Cycles of a sample, one timed repetition ``rep(i)`` and two more
        samples, until --seconds is up (at least quality_reps cycles); then
        samples until there are setup_probes of them. A sample is a set-up
        probe and an act loop (none before rep 0, which may be what makes
        the act checkpoint). With ``evaluate`` the first act loop also
        evaluates the policy.

        Spreading probes and act loops over the run makes their statistics
        less sensitive to the moment they were taken. Returns each
        repetition's wall time.
        """
        walls, probes, acts, cycles = [], [], [], []

        def sample() -> None:
            if len(probes) < self.size.setup_probes:
                probes.append(self.probe(*probe_args))
                if walls:
                    acts.append(self.act(act_checkpoint,
                                         evaluate and not acts))

        start = time.perf_counter()
        while len(walls) < self.size.quality_reps or (
                time.perf_counter() - start + median(cycles) <= self.seconds):
            t0 = time.perf_counter()
            sample()
            walls.append(rep(len(walls)))
            sample()
            sample()
            cycles.append(time.perf_counter() - t0)
        while len(probes) < self.size.setup_probes:
            sample()
        # Set-up seconds follow the machine's speed level, which can hold
        # for minutes; scaled by the reference parse timed in the same
        # process, they do not.
        scaled = [p["setup_s"] * REF_PARSE_S / p["ref_s"]
                  for p in probes if p]
        if scaled:
            self.metrics["setup_s"] = median(scaled)
        acts = [a for a in acts if a is not None]
        if acts:
            self.check(len({a["digest"] for a in acts}) == 1,
                       "every act loop makes the same decisions")
            # Act latency in microseconds moves with the machine's speed
            # level, which can hold for minutes; its ratio to the reference
            # net timed beside it does not. The raw quantiles, each from the
            # least-disturbed chunk, go to the manifest.
            self.metrics["act_p50_vs_ref"] = median(
                v for a in acts for v in a["act_vs_ref"])
            for q in ("act_us_p50", "act_us_p99"):
                self.inputs[q] = min(v for a in acts for v in a[q])
            self.eval_return = next((a["eval_return"] for a in acts
                                     if "eval_return" in a), None)
        self.inputs.update(
            setup_probes=probes, rep_walls_s=walls,
            act_decisions=sum(a["decisions"] for a in acts),
            act_chunks={q: [a[q] for a in acts]
                        for q in ("act_us_p50", "act_us_p99", "act_vs_ref")})
        return walls

    def check_return(self, ret: float, what: str) -> None:
        if "zero_policy_return" not in self.inputs:
            self.inputs["zero_policy_return"] = zero_policy_return(
                ZERO_POLICY_EPISODES, self.seed)
        zero = self.inputs["zero_policy_return"]
        self.check(math.isfinite(ret) and ret > zero,
                   f"{what} return {ret} beats the zero policy ({zero})")

    # -- training -----------------------------------------------------------

    def check_train(self, out: Path, iters: int, demos: list[dict],
                    filtered: bool) -> float | None:
        """Checks on one `smile train` output dir; returns the final eval."""
        rows = read_csv(out / "metrics.csv") \
            if (out / "metrics.csv").exists() else []
        if not self.check(rows and rows[-1]["iteration"] == str(iters),
                          f"metrics.csv in {out.name} ends at iteration "
                          f"{iters}"):
            return None
        ret = float(rows[-1]["eval_mean"] or "nan")
        self.check_return(ret, f"{out.name} final")
        if filtered:
            kept = read_demos(out / "filtered_demos.jsonl")
            # clipped actions can repeat a transition across noise levels
            source: dict[tuple, set] = {}
            for r in demos:
                source.setdefault((tuple(r["s"]), tuple(r["a"])), set()).add(
                    r["noise_level"])
            self.check(0 < len(kept) <= len(demos) and all(
                r["noise_level"] in source.get(
                    (tuple(r["s"]), tuple(r["a"])), ())
                for r in kept),
                f"{out.name}: filtered store is a subset of the demos with "
                "noise_level preserved")
            self.inputs.setdefault("filtered_transitions", []).append(
                len(kept))
            self.inputs["kept_noise_mean"] = noise_mean(kept)
        return ret

    def train_config(self, out: Path, seed: int, bc: bool) -> Path:
        s = self.size
        iters = s.bc_iters if bc else s.train_iters
        return write_config(out / "cfg.ini", out, seed, s.demo_per_level,
                            iters, iters // s.filter_passes, s.eval_episodes)

    def run_training(self, bc: bool) -> None:
        s = self.size
        cfg, demos_path = self.gen_data(s.demo_per_level)
        demos = read_demos(demos_path)
        iters = s.bc_iters if bc else s.train_iters
        self.inputs.update(iterations=iters, budget_transitions=iters * BATCH)
        flag = ["--bc-baseline"] if bc else []
        self.warm_up()
        if self.trace:
            plan = {"phases": [{"name": "train", "argv": [
                ["train", "--config",
                 str(self.train_config(self.work / name,
                                       rep_seed(self.seed, 0), bc)),
                 "--demos", str(demos_path), *flag]
                for name in TRACE_PASSES]}]}
            if self.traced(plan) is None:
                return
            csvs = {(self.work / name / "metrics.csv").read_bytes()
                    if (self.work / name / "metrics.csv").exists() else b""
                    for name in TRACE_PASSES}
            self.check(len(csvs) == 1,
                       "metrics.csv identical in every untraced and traced "
                       "pass")
            t = self.work / "traced0"
            self.check_train(t, iters, demos, filtered=not bc)
            self.extras["trainer.iterations"] = len(read_csv(
                t / "metrics.csv"))
            self.extras["expertise.kept_noise_mean"] = noise_mean(
                demos if bc else read_demos(t / "filtered_demos.jsonl"))
            return

        returns = []

        def rep(i: int) -> float:
            out = self.work / f"rep{i}"
            rcfg = self.train_config(out, rep_seed(self.seed, i), bc)
            proc = self.smile("train", "--config", rcfg, "--demos",
                              demos_path, *flag, timed=True)
            returns.append(self.check_train(out, iters, demos, not bc)
                           if proc.rc == 0 else None)
            if i > 0:
                shutil.rmtree(out)  # rep0's generator serves the act loops
            return proc.wall_s

        walls = self.measure(rep, (cfg, demos_path),
                             None if bc else self.work / "rep0/generator.json")
        self.metrics["transitions_per_s"] = median(
            [iters * BATCH / w for w in walls])
        quality = [r for r in returns[:s.quality_reps] if r is not None]
        if quality:
            self.metrics["final_neg_return"] = -median(quality)

    # -- audit --------------------------------------------------------------

    def check_audit(self, stdout: str, report: Path, demos: list[dict],
                    what: str) -> None:
        bins = audit_bins(stdout)
        n_traj = len({r["traj_id"] for r in demos})
        self.check(bins and sum(int(b["count"]) for b in bins) == n_traj
                   and all(math.isfinite(float(b["mean_step"])) for b in bins),
                   f"{what}: audit bin counts sum to {n_traj} trajectories")
        rep = json.loads(report.read_text()) if report.exists() else {}
        got = sorted((r["parent_id"], r["start"], r["stop"])
                     for r in rep.get("records", []))
        self.check(got == expected_segments(demos)
                   and rep.get("n_before") == len(got),
                   f"{what}: per-trajectory report covers every segment")

    def run_audit(self) -> None:
        s = self.size
        cfg, demos_path = self.gen_data(s.audit_per_level)
        demos = read_demos(demos_path)
        self.inputs["audit_transitions"] = len(demos)
        prep = self.work / "prep"
        pcfg = write_config(prep / "cfg.ini", prep, rep_seed(self.seed, 0),
                            s.audit_per_level, s.prep_iters,
                            s.prep_iters // s.filter_passes, 10)
        self.smile("train", "--no-filter", "--config", pcfg,
                   "--demos", demos_path)
        ckpts = [prep / "denoiser.json", prep / "generator.json"]
        self.warm_up()

        def audit_argv(out: Path) -> list[str]:
            return ["audit", "--config", str(cfg), "--denoiser",
                    str(ckpts[0]), "--generator", str(ckpts[1]),
                    "--demos", str(demos_path), "--out", str(out)]

        if self.trace:
            reports = {n: self.work / f"{n}.json" for n in TRACE_PASSES}
            plan = {"phases": [{"name": "audit", "argv": [
                        audit_argv(reports[n]) for n in TRACE_PASSES]}],
                    "act": {"checkpoint": str(ckpts[1]),
                            "episodes": s.act_episodes,
                            "chunk_episodes": s.act_chunk_episodes,
                            "seed": rep_seed(self.seed, 0)}}
            passes = self.traced(plan)
            if passes is None:
                return
            outs = {(json.dumps(audit_bins(p["phases"][0]["stdout"])),
                     reports[n].read_bytes() if reports[n].exists() else b"")
                    for n, p in passes.items()}
            self.check(len(outs) == 1,
                       "audit output identical in every untraced and traced "
                       "pass")
            self.check(len({p["act"]["digest"] for p in passes.values()}) == 1,
                       "act decisions identical in every untraced and traced "
                       "pass")
            self.check_audit(passes["traced0"]["phases"][0]["stdout"],
                             reports["traced0"], demos, "traced audit")
            kept = [r for r in json.loads(
                reports["traced0"].read_text())["records"]
                if r["verdict"] == "keep"]
            self.extras["expertise.kept_noise_mean"] = float(np.average(
                [r["noise_level"] for r in kept],
                weights=[r["stop"] - r["start"] for r in kept])) \
                if kept else 0.0
            self.extras["trainer.iterations"] = 0
            return

        outputs = []

        def rep(i: int) -> float:
            report = self.work / f"report{i}.json"
            proc = self.smile(*audit_argv(report), timed=True)
            if proc.rc == 0:
                self.check_audit(proc.stdout, report, demos, report.stem)
                outputs.append((audit_bins(proc.stdout), report.read_bytes()))
                self.check(outputs[-1] == outputs[0],
                           f"{report.stem} repeats the first audit's output")
            return proc.wall_s

        walls = self.measure(rep, (cfg, demos_path, ckpts), ckpts[1],
                             evaluate=True)
        self.metrics["transitions_per_s"] = median(
            [len(demos) / w for w in walls])
        if self.eval_return is not None:
            self.check_return(self.eval_return, "prepared generator")
            self.metrics["final_neg_return"] = -self.eval_return

    # -- traced run ---------------------------------------------------------

    def traced(self, plan: dict) -> dict | None:
        """Run the plan in the traced child; set the per-layer extras and
        return the passes by name."""
        plan.update(seed=self.seed, naive_trials=self.size.naive_trials,
                    traced=[n.startswith("traced") for n in TRACE_PASSES])
        plan_path, out = self.work / "plan.json", self.work / "trace.json"
        plan_path.write_text(json.dumps(plan))
        proc = self.child("trace", "--plan", plan_path, "--out", out,
                          what="traced run")
        if proc.rc != 0:
            return None
        res = json.loads(out.read_text())
        passes = dict(zip(TRACE_PASSES, res["passes"]))
        for name, p in passes.items():
            for phase, ph in zip(plan["phases"], p["phases"]):
                self.check(ph["rc"] == 0,
                           f"{name} {phase['name']} exited {ph['rc']}")
        # Each traced pass is compared with the untraced pass just before
        # it, so a shift in machine speed between rounds cancels out.
        walls = [p["wall_s"] for p in res["passes"]]
        self.inputs["trace_pass_walls_s"] = dict(zip(TRACE_PASSES, walls))
        self.extras = {
            "cli.import_s": res["import_s"],
            "trace.overhead_frac": median(
                t / u - 1.0 for u, t in zip(walls[::2], walls[1::2])),
            "diffusion.naive_us_p50": median(res["naive_us"])
            if res["naive_us"] else None,
        }
        traced = [p for n, p in passes.items() if n.startswith("traced")]
        self.spans_json = [p["spans"] for p in traced]
        self.missing = traced[0]["missing"]
        for p in traced:
            self.broken.update(p["broken"])
        if res["naive_missing"]:
            self.missing["diffusion.naive_us_p50"] = res["naive_missing"]
        return passes

    def layer_metrics(self) -> None:
        """Per-layer metrics of each traced pass; each value reported is
        the median over the passes."""
        from tracer import Span, per_layer_metrics
        per_pass = []
        for spans in self.spans_json:
            metrics, self.absent = per_layer_metrics(
                [Span(**s) for s in spans], self.missing, self.broken,
                self.extras)
            per_pass.append(metrics)
        if per_pass:
            self.metrics = {k: statistics.median(m[k]["value"]
                                                 for m in per_pass)
                            for k in per_pass[0]}
        for name, why in self.absent.items():
            print(f"per-layer metric {name} absent: {why}", file=sys.stderr)

    # -- result -------------------------------------------------------------

    def manifest(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "commit": git_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "size": asdict(self.size),
            "inputs": self.inputs, "failures": self.failures,
            "absent": self.absent,
        }

    def result(self) -> dict:
        if self.trace:
            from tracer import PER_LAYER
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            self.metrics["peak_rss_mb"] = self.peak_rss_mb
            units = dict(E2E)
            for name in units:
                self.check(name in self.metrics, f"metric {name} measured")
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in self.metrics.items() if k in units}}


WORKLOADS = {
    "smile-train": lambda b: b.run_training(bc=False),
    "bc-train": lambda b: b.run_training(bc=True),
    "audit-act": lambda b: b.run_audit(),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "smile" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'smile'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  SIZES[args.size])
    try:
        WORKLOADS[args.workload](bench)
        if bench.trace:
            bench.layer_metrics()
        result = bench.result()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    manifest = bench.manifest()
    record = {"manifest": manifest, "result": result}
    if bench.trace:
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps(bench.spans_json))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print("manifest " + json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
