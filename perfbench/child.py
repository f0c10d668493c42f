"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup --config C --demos D [--checkpoint P ...]
        A fresh process that does the program's set-up: import the CLI,
        parse the config, load the demo file and, for audits, the
        checkpoints. It prints when set-up ended, then the time of a
        reference parse; the parent times set-up from spawn.
    python3 perfbench/child.py act --out R (--checkpoint P | --fresh-bc) ...
        Closed-loop single-state decisions, then, with --eval-episodes > 0,
        a batched evaluation; writes latencies and returns.
    python3 perfbench/child.py trace --plan PLAN --out R
        The traced run: every CLI phase of the plan runs in this process,
        in passes that alternate between untraced and traced with the hooks
        of tracer.py.

Each entry point imports smile only from the checkout's ``src`` (the parent
puts it on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback

import numpy as np

ENV_NAME = "pointmass2d"


def load_actor(path: str):
    """Build the actor a checkpoint describes, with its EMA parameters."""
    from smile.diffusion import NoiseModel
    from smile.mathcore import load_checkpoint
    from smile.policy import BcBaseline, GeneratorPolicy
    payload = load_checkpoint(path)
    cls = {"denoiser": NoiseModel, "generator": GeneratorPolicy,
           "bc": BcBaseline}[payload["role"]]
    actor = cls.from_arch(payload["arch"])
    ema = payload.get("ema")
    actor.set_params(ema if ema else payload["params"])
    return actor


def fresh_bc(seed: int):
    """A seeded default-architecture BC actor, timed in place of the trained
    one because `train --bc-baseline` writes no checkpoint."""
    from smile.envs import make_env_spec
    from smile.mathcore import SeededRng
    from smile.policy import BcBaseline
    spec = make_env_spec(ENV_NAME)
    return BcBaseline(spec.state_dim, spec.action_dim, SeededRng(seed))


def reference_net(state_dim: int, action_dim: int):
    """The default 3x256 tanh MLP as bare numpy with fixed weights, the
    same arithmetic as a single-state ``act``. Timed beside every decision,
    it tracks the machine's speed at that moment; it is the benchmark's own
    code, so no change to the program moves it."""
    rng = np.random.default_rng(0)
    dims = (state_dim, 256, 256, 256, action_dim)
    layers = [(rng.standard_normal((i, o)) / np.sqrt(i), np.zeros(o))
              for i, o in zip(dims, dims[1:])]

    def forward(obs: np.ndarray) -> np.ndarray:
        h = obs
        for w, b in layers[:-1]:
            h = np.tanh(h @ w + b)
        w, b = layers[-1]
        return h @ w + b
    return forward


def act_loop(policy, episodes: int, seed: int, chunk_episodes: int) -> dict:
    """One decision, one env_step, then the next decision.

    Each ``act`` call is timed, and so is one call of the reference net on
    the same state right after it. Per chunk of ``chunk_episodes`` episodes
    this returns the act latency's median and 99th percentile and the ratio
    of the act median to the reference median. It also returns the mean
    episode return, whether every action and return was finite, and a
    digest of the actions so two loops can be compared bit for bit.
    """
    from smile.envs import env_reset, env_step, make_env_spec
    from smile.mathcore import SeededRng
    spec = make_env_spec(ENV_NAME)
    rng = SeededRng(seed)
    ref = reference_net(spec.state_dim, spec.action_dim)
    lat_ns = np.empty(episodes * spec.horizon, dtype=np.int64)
    ref_ns = np.empty_like(lat_ns)
    returns = np.empty(episodes)
    digest = hashlib.sha256()
    finite = True
    k = 0
    clock = time.perf_counter_ns
    for ep in range(episodes):
        state = env_reset(spec, rng)
        total, done = 0.0, False
        while not done:
            t0 = clock()
            a = policy.act(state.obs)
            t1 = clock()
            ref(state.obs)
            ref_ns[k] = clock() - t1
            lat_ns[k] = t1 - t0
            k += 1
            a = np.asarray(a, dtype=np.float64)
            finite &= bool(np.isfinite(a).all())
            digest.update(a.tobytes())
            state, r, done = env_step(spec, state, a)
            total += float(r)
        returns[ep] = total
    step = chunk_episodes * spec.horizon
    cuts = range(step, k, step)
    chunks = np.split(lat_ns[:k] / 1e3, cuts)
    ref_chunks = np.split(ref_ns[:k] / 1e3, cuts)
    return {"decisions": int(k),
            "act_us_p50": [float(np.median(c)) for c in chunks],
            "act_us_p99": [float(np.percentile(c, 99)) for c in chunks],
            "act_vs_ref": [float(np.median(c) / np.median(r))
                           for c, r in zip(chunks, ref_chunks)],
            "mean_return": float(returns.mean()),
            "finite": finite and bool(np.isfinite(returns).all()),
            "digest": digest.hexdigest()}


def eval_return(act_fn, episodes: int, seed: int) -> float:
    """Mean undiscounted return over ``episodes`` seeded spawns, stepped
    together in one batch, as the program's own evaluation does."""
    from smile.envs import make_env_spec, rollout_batch_returns
    from smile.mathcore import SeededRng
    spec = make_env_spec(ENV_NAME)
    return float(rollout_batch_returns(spec, act_fn, SeededRng(seed),
                                       episodes).mean())


def zero_policy_return(episodes: int, seed: int) -> float:
    from smile.envs import make_env_spec
    action_dim = make_env_spec(ENV_NAME).action_dim
    return eval_return(lambda obs: np.zeros((len(obs), action_dim)),
                       episodes, seed)


def naive_latency_us(trials: int, seed: int) -> list[float]:
    """Per-decision time of the multi-step reverse sampler on a seeded
    default-architecture denoiser (the same shapes as a trained one)."""
    from smile.diffusion import NoiseModel, build_schedule, naive_reverse_sample
    from smile.envs import env_reset, make_env_spec
    from smile.mathcore import SeededRng
    spec = make_env_spec(ENV_NAME)
    sched = build_schedule(10)
    rng = SeededRng(seed)
    model = NoiseModel(spec.state_dim, spec.action_dim, sched.T, rng)
    out = []
    for _ in range(trials):
        s = env_reset(spec, rng).obs
        a_init = sched.sigmas[sched.T] * rng.standard_normal(spec.action_dim)
        t0 = time.perf_counter_ns()
        naive_reverse_sample(model, s, sched, rng, a_init)
        out.append((time.perf_counter_ns() - t0) / 1e3)
    return out


def reference_parse_s() -> float:
    """Median time to parse a fixed 2 MB JSON list of 100,000 floats, the
    kind of work set-up does (demos and checkpoints are JSON). Timed in the
    probe right after set-up, it tracks the machine's speed at that moment;
    it is the benchmark's own code, so no change to the program moves it."""
    rng = np.random.default_rng(0)
    doc = json.dumps(rng.standard_normal(100_000).tolist())
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        json.loads(doc)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def cmd_setup(args) -> int:
    import smile.cli  # noqa: F401  (the CLI's whole import graph)
    from smile.config import load_config
    from smile.envs import load_demos
    load_config(args.config)
    load_demos(args.demos, include_rewards=bool(args.checkpoint))
    for path in args.checkpoint:
        load_actor(path)
    ready = time.monotonic()  # the parent reads the same system-wide clock
    print(json.dumps({"ready": ready, "ref_s": reference_parse_s()}))
    return 0


def cmd_act(args) -> int:
    policy = fresh_bc(args.seed) if args.fresh_bc else \
        load_actor(args.checkpoint)
    result = act_loop(policy, args.episodes, args.seed, args.chunk_episodes)
    if args.eval_episodes:
        result["eval_return"] = eval_return(policy.act, args.eval_episodes,
                                            args.seed)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _cli_phase(argv: list[str]) -> dict:
    """Run ``smile <argv>`` in this process; capture stdout and wall time."""
    from smile.cli import main
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, buf = -1, io.StringIO(traceback.format_exc())
    return {"rc": rc, "wall_s": time.perf_counter() - t0,
            "stdout": buf.getvalue()}


def run_pass(plan: dict, index: int, tracer=None) -> dict:
    """Pass ``index`` of the plan: each CLI phase with that pass's argv, then
    the act loop if the plan has one. With ``tracer`` each runs inside a
    root span of its own."""
    call = tracer.run if tracer else (lambda _name, fn, *a: fn(*a))
    out = {"phases": [call(f"bench.{p['name']}", _cli_phase,
                           p["argv"][index]) for p in plan["phases"]]}
    out["wall_s"] = sum(p["wall_s"] for p in out["phases"])
    act = plan.get("act")
    if act:
        t0 = time.perf_counter()
        out["act"] = call("bench.act_loop", lambda: act_loop(
            load_actor(act["checkpoint"]), act["episodes"], act["seed"],
            act["chunk_episodes"]))
        out["wall_s"] += time.perf_counter() - t0
    return out


def cmd_trace(args) -> int:
    t0 = time.perf_counter()
    import smile.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    from tracer import Tracer, resolve
    with open(args.plan) as fh:
        plan = json.load(fh)

    # Untraced and traced passes alternate, so a shift in machine speed
    # falls on both kinds; the parent compares each adjacent pair.
    passes = []
    for index, traced in enumerate(plan["traced"]):
        if not traced:
            passes.append(run_pass(plan, index))
            continue
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(plan, index, tracer))
        finally:
            tracer.uninstall()
        passes[-1].update(spans=[s.to_json() for s in tracer.spans],
                          missing=tracer.missing, broken=tracer.broken)

    naive, naive_missing = None, None
    try:
        resolve("smile.diffusion:naive_reverse_sample")
    except (ImportError, AttributeError):
        naive_missing = "smile.diffusion:naive_reverse_sample"
    else:
        naive = naive_latency_us(plan["naive_trials"], plan["seed"])

    result = {"import_s": import_s, "passes": passes, "naive_us": naive,
              "naive_missing": naive_missing}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--checkpoint", action="append", default=[])
    p.set_defaults(fn=cmd_setup)
    p = sub.add_parser("act")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--fresh-bc", action="store_true")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--chunk-episodes", type=int, required=True)
    p.add_argument("--eval-episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_act)
    p = sub.add_parser("trace")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_trace)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
