"""Synthetic continuous-control environments with analytic experts, the
noisy-demonstration generator, trajectory containers, and demo file I/O.

Two environments ship: a 2-D point mass (state = [px, py, vx, vy], action =
planar acceleration) and a 1-D double integrator (state = [p, v]). Both use
the same damped double-integrator dynamics and a quadratic goal-tracking
reward, so a proportional-derivative law toward the goal is a near-optimal
expert and returns degrade smoothly as action noise grows.

Environments are value-semantic: stepping returns a fresh state, and the
update broadcasts over leading batch axes, so parallel rollouts are just
stacked states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import ConfigError, EnvironmentFault, InvalidInputError
from .mathcore import SeededRng, derive_seed

DEMO_FORMAT_VERSION = 1
DEFAULT_NOISE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# Environment specs and dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvSpec:
    name: str
    state_dim: int
    action_dim: int
    action_low: float
    action_high: float
    horizon: int
    goal: tuple[float, ...]
    dt: float
    damping: float
    action_cost: float
    spawn_low: tuple[float, ...]
    spawn_high: tuple[float, ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not np.isfinite([self.action_low, self.action_high]).all():
            raise ConfigError("action bounds must be finite")


# dt = 0.1 keeps returns sensitive to action noise: the integrator would
# low-pass-filter noise into irrelevance at much smaller timesteps.
_BASE_SPECS = {
    "pointmass2d": EnvSpec(
        name="pointmass2d", state_dim=4, action_dim=2,
        action_low=-1.0, action_high=1.0, horizon=100,
        goal=(1.0, 1.0), dt=0.1, damping=0.05, action_cost=0.01,
        spawn_low=(-0.5, -0.5), spawn_high=(0.5, 0.5)),
    "double_integrator_1d": EnvSpec(
        name="double_integrator_1d", state_dim=2, action_dim=1,
        action_low=-1.0, action_high=1.0, horizon=100,
        goal=(1.0,), dt=0.1, damping=0.05, action_cost=0.01,
        spawn_low=(-0.5,), spawn_high=(0.5,)),
}


def make_env_spec(name: str = "pointmass2d",
                  horizon: int | None = None) -> EnvSpec:
    if name not in _BASE_SPECS:
        raise ConfigError(
            f"unknown environment {name!r}; choices: {sorted(_BASE_SPECS)}")
    spec = _BASE_SPECS[name]
    if horizon is not None:
        spec = replace(spec, horizon=horizon)
    return spec


@dataclass
class EnvState:
    obs: np.ndarray  # (..., state_dim): positions then velocities
    t: int


def env_reset(spec: EnvSpec, rng: SeededRng, batch: int | None = None) -> EnvState:
    """Spawn with position uniform in the spawn region and zero velocity."""
    k = spec.action_dim
    shape = (k,) if batch is None else (batch, k)
    pos = rng.uniform(np.asarray(spec.spawn_low), np.asarray(spec.spawn_high),
                      shape)
    return EnvState(obs=np.concatenate([pos, np.zeros(shape)], axis=-1), t=0)


def env_step(spec: EnvSpec, state: EnvState, action: np.ndarray):
    """Damped double-integrator step; returns (state', reward, done).

    The action is clipped to bounds before integration. Reward is
    -||pos' - goal||^2 - action_cost * ||a||^2 and done fires at the horizon.
    """
    k = spec.action_dim
    a = np.clip(np.asarray(action, dtype=np.float64),
                spec.action_low, spec.action_high)
    pos = state.obs[..., :k]
    vel = state.obs[..., k:]
    new_pos = pos + spec.dt * vel
    new_vel = (1.0 - spec.damping) * vel + spec.dt * a
    obs = np.concatenate([new_pos, new_vel], axis=-1)
    if not np.all(np.isfinite(obs)):
        raise EnvironmentFault(f"non-finite state at step {state.t + 1}")
    goal = np.asarray(spec.goal)
    reward = (-((new_pos - goal) ** 2).sum(axis=-1)
              - spec.action_cost * (a ** 2).sum(axis=-1))
    new_t = state.t + 1
    return EnvState(obs=obs, t=new_t), reward, new_t >= spec.horizon


# ---------------------------------------------------------------------------
# Analytic expert
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpertController:
    """Proportional-derivative law toward the goal."""

    kp: float
    kd: float


# Gains picked by a coarse grid search, which
# tests/test_envs.py::TestExpert::test_gains_within_5pct_of_grid_best
# re-runs; both environments share the dynamics so they share gains.
DEFAULT_EXPERT_GAINS = {"pointmass2d": (9.0, 4.0),
                        "double_integrator_1d": (9.0, 4.0)}


def default_expert(spec: EnvSpec) -> ExpertController:
    kp, kd = DEFAULT_EXPERT_GAINS[spec.name]
    return ExpertController(kp=kp, kd=kd)


def expert_act(ctrl: ExpertController, spec: EnvSpec,
               s: np.ndarray) -> np.ndarray:
    k = spec.action_dim
    s = np.asarray(s, dtype=np.float64)
    pos, vel = s[..., :k], s[..., k:]
    raw = ctrl.kp * (np.asarray(spec.goal) - pos) - ctrl.kd * vel
    return np.clip(raw, spec.action_low, spec.action_high)


# ---------------------------------------------------------------------------
# Trajectories and the demo store
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    traj_id: int
    states: np.ndarray            # (n, state_dim)
    actions: np.ndarray           # (n, action_dim)
    rewards: np.ndarray | None    # (n,) or None when stripped for training
    terminals: np.ndarray         # (n,) bool
    noise_level: float | None = None
    ret: float | None = None      # cached undiscounted return

    def __len__(self) -> int:
        return len(self.states)


def undiscounted_return(traj: Trajectory) -> float:
    """Plain reward sum (the gamma = 1 reporting convention)."""
    if traj.rewards is None:
        raise InvalidInputError(
            f"trajectory {traj.traj_id} has no rewards stored")
    return float(np.sum(traj.rewards))


class DemoStore:
    """Demonstration set with flat transition views for uniform sampling.

    Batches drawn from the store carry only (state, action) pairs: rewards
    never reach the optimizers. Mutation happens only through replace(),
    which swaps the trajectory list and rebuilds the flat arrays atomically.
    """

    def __init__(self, trajectories: list[Trajectory],
                 env: EnvSpec | None = None):
        self.env = env
        self.replace(trajectories)

    def replace(self, trajectories: list[Trajectory]) -> None:
        ids = [tr.traj_id for tr in trajectories]
        if len(set(ids)) != len(ids):
            raise InvalidInputError("trajectory ids must be unique")
        self.trajectories = list(trajectories)
        if self.trajectories:
            self._states = np.concatenate(
                [tr.states for tr in self.trajectories])
            self._actions = np.concatenate(
                [tr.actions for tr in self.trajectories])
        else:
            self._states = np.zeros((0, 0))
            self._actions = np.zeros((0, 0))

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def transition_count(self) -> int:
        return len(self._states)

    def sample(self, rng: SeededRng, batch_size: int):
        if self.transition_count == 0:
            raise InvalidInputError("cannot sample from an empty store")
        idx = rng.integers(0, self.transition_count, size=batch_size)
        return self._states[idx], self._actions[idx]

    def sample_all(self):
        return self._states, self._actions


# ---------------------------------------------------------------------------
# Rollouts and demo generation
# ---------------------------------------------------------------------------

def rollout(spec: EnvSpec, act_fn, rng: SeededRng, episodes: int):
    """Roll ``episodes`` parallel episodes on a shared clock to the horizon.

    ``act_fn`` maps the (episodes, state_dim) observations to pre-clip
    actions. Returns time-major (states, actions, rewards) of shapes
    (horizon, episodes, state_dim), (horizon, episodes, action_dim) and
    (horizon, episodes); ``states[t]`` is observed before ``actions[t]``,
    which are clipped to bounds, and ``rewards[t]`` follows them.
    """
    state = env_reset(spec, rng, batch=episodes)
    states = np.empty((spec.horizon, episodes, spec.state_dim))
    actions = np.empty((spec.horizon, episodes, spec.action_dim))
    rewards = np.empty((spec.horizon, episodes))
    for t in range(spec.horizon):
        states[t] = state.obs
        actions[t] = np.clip(np.asarray(act_fn(state.obs), dtype=np.float64),
                             spec.action_low, spec.action_high)
        state, rewards[t], _ = env_step(spec, state, actions[t])
    return states, actions, rewards


def rollout_batch_returns(spec: EnvSpec, act_fn, rng: SeededRng,
                          episodes: int) -> np.ndarray:
    """Undiscounted returns of ``episodes`` parallel rollouts (shared clock)."""
    return rollout(spec, act_fn, rng, episodes)[2].sum(axis=0)


def generate_demos(spec: EnvSpec, ctrl: ExpertController,
                   noise_levels: list[float], per_level: int,
                   rng: SeededRng) -> DemoStore:
    """Roll noisy-expert episodes: executed action = clip(expert + level * eps).

    Spawn randomness is derived from (rng.seed, episode index) only, so
    episode i starts from the same state at every level and level 0.0
    reproduces the pure expert under the same seeds; corruption noise is
    drawn independently per (level, episode). Rewards are recorded for
    evaluation and reporting; training paths never read them.
    """
    if any(lv < 0 for lv in noise_levels):
        raise InvalidInputError(f"noise levels must be >= 0: {noise_levels}")
    trajectories = []
    for li, level in enumerate(noise_levels):
        for ep in range(per_level):
            spawn_rng = SeededRng(derive_seed(rng.seed, f"demo-spawn:{ep}"))
            noise_rng = SeededRng(
                derive_seed(rng.seed, f"demo-noise:{li}:{ep}"))

            def noisy_expert(obs):
                base = expert_act(ctrl, spec, obs)
                if level == 0.0:
                    return base
                return base + level * noise_rng.standard_normal(base.shape)

            states, actions, rewards = (
                x[:, 0] for x in rollout(spec, noisy_expert, spawn_rng, 1))
            terminals = np.zeros(spec.horizon, dtype=bool)
            terminals[-1] = True
            trajectories.append(Trajectory(
                traj_id=len(trajectories), states=states, actions=actions,
                rewards=rewards, terminals=terminals,
                noise_level=float(level), ret=float(rewards.sum())))
    return DemoStore(trajectories, env=spec)


# ---------------------------------------------------------------------------
# Demo file I/O (JSON lines, bit-exact round trip)
# ---------------------------------------------------------------------------

def save_demos(store: DemoStore, path: str, seed: int | None = None) -> None:
    env = store.env
    header = {
        "kind": "header",
        "format_version": DEMO_FORMAT_VERSION,
        "env": env.name if env else None,
        "state_dim": (env.state_dim if env
                      else store.sample_all()[0].shape[1]),
        "action_dim": (env.action_dim if env
                       else store.sample_all()[1].shape[1]),
        "horizon": env.horizon if env else None,
        "seed": seed,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for tr in store.trajectories:
            rewards = (tr.rewards.tolist() if tr.rewards is not None
                       else [None] * len(tr))
            for i in range(len(tr)):
                rec = {
                    "traj_id": tr.traj_id,
                    "step": i,
                    "s": tr.states[i].tolist(),
                    "a": tr.actions[i].tolist(),
                    "r": rewards[i],
                    "terminal": bool(tr.terminals[i]),
                    "noise_level": tr.noise_level,
                }
                fh.write(json.dumps(rec) + "\n")


def _numbers_only(*lists) -> bool:
    """Whether the lists hold ints and floats only: numpy takes a bool as
    0 or 1 and parses a numeric string."""
    try:
        return set(map(type, chain(*lists))) <= {int, float}
    except TypeError:  # an entry that is not a list
        return False


def _header_env(where: str, header: dict) -> EnvSpec | None:
    """The env a demo file's header names, or None for its null ``env``
    (an env-less store's file). The header's ``state_dim`` and
    ``action_dim`` must be integers >= 1, and the env's own; its
    ``horizon`` null or an integer >= 1. Anything else raises
    InvalidInputError naming ``where``."""
    name, horizon = header.get("env"), header.get("horizon")
    dims = (header.get("state_dim"), header.get("action_dim"))
    if not all(type(d) is int and d >= 1 for d in dims):
        raise InvalidInputError(
            f"{where}: header state_dim and action_dim {dims} are not "
            f"integers >= 1")
    if horizon is not None and not (type(horizon) is int and horizon >= 1):
        raise InvalidInputError(
            f"{where}: header horizon {horizon!r} is neither null nor an "
            f"integer >= 1")
    if name is None:
        return None
    if not isinstance(name, str) or name not in _BASE_SPECS:
        raise InvalidInputError(
            f"{where}: unknown environment {name!r}; choices: "
            f"{sorted(_BASE_SPECS)}")
    env = make_env_spec(name, horizon=horizon)
    if dims != (env.state_dim, env.action_dim):
        raise InvalidInputError(
            f"{where}: header dims (state {dims[0]}, action {dims[1]}) do "
            f"not match env {name} dims (state {env.state_dim}, action "
            f"{env.action_dim})")
    return env


def _demo_lines(path: str):
    """(number, text) of each non-blank line of the file at ``path``, without
    its line end. The file is read and decoded one line at a time, never
    whole, so a byte that is not UTF-8 names its own line. Lines end at
    ``\n`` only."""
    try:
        with open(path, "rb") as fh:
            for no, raw in enumerate(fh, 1):
                try:
                    text = raw.rstrip(b"\r\n").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InvalidInputError(
                        f"{path}:{no}: not UTF-8: {exc.reason}") from exc
                if text.strip():
                    yield no, text
    except OSError as exc:
        raise InvalidInputError(f"cannot read demo file {path}: {exc}") from exc


def load_demos(path: str, include_rewards: bool = True) -> DemoStore:
    """Read a demo file. ``include_rewards=False`` strips rewards so training
    paths cannot touch them even by accident.

    A byte that is not UTF-8, malformed JSON, a bad header (_header_env), a
    missing field, a traj_id or step that is not a JSON integer, a state or
    action of the wrong width, an s, a or r entry that is not a JSON number,
    a terminal that is not a JSON boolean, a non-finite number, a trajectory
    whose steps are not 0, 1, 2, ... (a repeat or a gap), a noise level that
    is neither null nor a finite number >= 0 and a noise level that varies
    within a trajectory each raise InvalidInputError naming path:line (a
    width error names the first line of its trajectory). A file with no
    transitions raises InvalidInputError naming the path. The file is read
    line by line (_demo_lines), so where it has several faults the first in
    the file is named.
    """
    lines = _demo_lines(path)
    head_no, head = next(lines, (None, None))
    if head is None:
        raise InvalidInputError(f"demo file {path} is empty")
    try:
        header = json.loads(head)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}:{head_no}: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise InvalidInputError(f"demo file {path} is missing its header")
    if header.get("format_version") != DEMO_FORMAT_VERSION:
        raise InvalidInputError(
            f"demo file {path} has format_version "
            f"{header.get('format_version')}, expected {DEMO_FORMAT_VERSION}")
    first = next(lines, None)
    if first is None:
        raise InvalidInputError(f"demo file {path} holds no transitions")
    env = _header_env(f"{path}:{head_no}", header)
    dims = ((header["state_dim"],), (header["action_dim"],))
    rows: dict[int, list[tuple]] = {}
    for no, ln in chain([first], lines):
        try:
            rec = json.loads(ln)
            tid, step = rec["traj_id"], rec["step"]
            for key, value in (("traj_id", tid), ("step", step)):
                if type(value) is not int:
                    raise InvalidInputError(
                        f"{path}:{no}: {key} {value!r} is not an integer")
            level = rec["noise_level"]
            if level is not None and not (type(level) in (int, float)
                                          and 0 <= level < math.inf):
                raise InvalidInputError(
                    f"{path}:{no}: noise_level {level!r} is neither null "
                    f"nor a finite number >= 0")
            if type(rec["terminal"]) is not bool:
                raise InvalidInputError(f"{path}:{no}: terminal is not a bool")
            rows.setdefault(tid, []).append(
                (step, no, rec["s"], rec["a"], rec["r"], rec["terminal"],
                 level))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"{path}:{no}: bad demo record: {exc!r}") from exc
    trajectories = []
    for tid, recs in rows.items():
        recs.sort(key=lambda rec: rec[0])
        steps, nos, states, actions, rewards, terminals, levels = zip(*recs)
        misplaced = np.asarray(steps) != np.arange(len(steps))
        if misplaced.any():
            i = int(np.argmax(misplaced))
            raise InvalidInputError(
                f"{path}:{nos[i]}: trajectory {tid} has step {steps[i]} "
                f"where step {i} belongs (a repeated or missing step)")
        if levels.count(levels[0]) != len(levels):
            i = next(i for i, lv in enumerate(levels) if lv != levels[0])
            raise InvalidInputError(
                f"{path}:{nos[i]}: noise_level {levels[i]} differs from "
                f"{levels[0]} earlier in trajectory {tid}")
        has_rewards = include_rewards and all(r is not None for r in rewards)
        rewards = [0.0 if r is None else r for r in rewards]
        if not _numbers_only(*states, *actions, rewards):
            i = next(i for i in range(len(recs)) if not _numbers_only(
                states[i], actions[i], [rewards[i]]))
            raise InvalidInputError(f"{path}:{nos[i]}: s, a or r not a number")
        try:
            states = np.asarray(states, dtype=np.float64)
            actions = np.asarray(actions, dtype=np.float64)
            rewards = np.asarray(rewards, dtype=np.float64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"{path}:{nos[0]}: bad values in trajectory {tid}: {exc}"
            ) from exc
        if (states.shape[1:], actions.shape[1:]) != dims:
            raise InvalidInputError(
                f"{path}:{nos[0]}: trajectory {tid} has states {states.shape}, "
                f"actions {actions.shape}; header widths {dims}")
        finite = (np.isfinite(states).all(axis=1)
                  & np.isfinite(actions).all(axis=1) & np.isfinite(rewards))
        if not finite.all():
            raise InvalidInputError(f"{path}:{nos[np.argmin(finite)]}: "
                                    f"non-finite value in trajectory {tid}")
        traj = Trajectory(
            traj_id=tid, states=states, actions=actions,
            rewards=rewards if has_rewards else None,
            terminals=np.asarray(terminals, dtype=bool),
            noise_level=levels[0])
        if has_rewards:
            traj.ret = undiscounted_return(traj)
        trajectories.append(traj)
    return DemoStore(trajectories, env=env)
