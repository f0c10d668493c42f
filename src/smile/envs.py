"""Synthetic continuous-control environments with analytic experts, the
noisy-demonstration generator, the demo store, and demo file I/O.

One environment ships, at three widths: a damped point mass of d axes,
whose state is its d positions then its d velocities and whose action is
its d accelerations. It is named double_integrator_1d at d = 1, pointmass2d
at d = 2 and pointmass6d at d = 6, the action width of HalfCheetah and
Walker2d (ENV_WIDTHS). Every axis has the same damped double-integrator
dynamics, goal and spawn interval, and the reward tracks the goal
quadratically, so one proportional-derivative law toward the goal is a
near-optimal expert at every width, and returns degrade smoothly as action
noise grows.

Environments are value-semantic: stepping returns a fresh state, and the
update broadcasts over leading batch axes, so parallel rollouts are just
stacked states.

A demo store (DemoStore) holds one array per field and one row per
trajectory, and nothing else: a trajectory, and any segment of one, is a
range of the columns' rows. So a transition is held once, whether the store
was generated, parsed, read from its copy or kept by a filter pass.

Demo files are JSON lines, the one input format. Parsing one takes most of
a load (0.2-0.35 s for 25,000 transitions on 2 cores), and a workflow loads
the same file at each of its steps. So each parse that succeeds writes the
store it returned beside the file (``<file>.store``): its columns as they
are, keyed by sha256 over this module's source and the exact bytes the
parse read. A later load whose file still hashes to that key builds the
same store over the copy's bytes; a changed file, changed loader code, or a
missing, torn or corrupt copy falls through to the parse, which writes the
copy anew. A bad copy is never an error, and ``save_demos`` writes none.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .errors import ConfigError, EnvironmentFault, InvalidInputError
from .mathcore import SeededRng, atomic_write, derive_seed

DEMO_FORMAT_VERSION = 1
DEFAULT_NOISE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# Environment specs and dynamics
# ---------------------------------------------------------------------------

# What every axis of every environment shares. dt = 0.1 keeps returns
# sensitive to action noise: the integrator would low-pass-filter noise into
# irrelevance at much smaller timesteps.
ACTION_BOUND = 1.0   # actions are clipped to [-1, 1] on each axis
DT = 0.1
DAMPING = 0.05
ACTION_COST = 0.01
GOAL = 1.0           # the goal's coordinate on each axis
SPAWN = 0.5          # spawn positions are uniform in [-0.5, 0.5] on each axis
HORIZON = 100        # where the config names none

# name -> action width; the width lives in the name, so it needs no key
ENV_WIDTHS = {"double_integrator_1d": 1, "pointmass2d": 2, "pointmass6d": 6}


@dataclass(frozen=True)
class EnvSpec:
    """The point mass of ``action_dim`` axes, run for ``horizon`` steps; its
    state is the positions, then the velocities."""

    name: str
    action_dim: int
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}",
                              "horizon")

    @property
    def state_dim(self) -> int:
        return 2 * self.action_dim


def make_env_spec(name: str = "pointmass2d",
                  horizon: int | None = None) -> EnvSpec:
    if name not in ENV_WIDTHS:
        raise ConfigError(
            f"unknown environment {name!r}; choices: {sorted(ENV_WIDTHS)}",
            "name")
    return EnvSpec(name, ENV_WIDTHS[name],
                   HORIZON if horizon is None else horizon)


@dataclass
class EnvState:
    obs: np.ndarray  # (..., state_dim): positions then velocities
    t: int


def env_reset(spec: EnvSpec, rng: SeededRng, batch: int | None = None) -> EnvState:
    """Spawn with position uniform in the spawn region and zero velocity."""
    k = spec.action_dim
    shape = (k,) if batch is None else (batch, k)
    pos = rng.uniform(-SPAWN, SPAWN, shape)
    return EnvState(obs=np.concatenate([pos, np.zeros(shape)], axis=-1), t=0)


def env_step(spec: EnvSpec, state: EnvState, action: np.ndarray):
    """Damped double-integrator step; returns (state', reward, done).

    The action is clipped to bounds before integration. Reward is
    -||pos' - goal||^2 - action_cost * ||a||^2 and done fires at the horizon.
    """
    k = spec.action_dim
    a = np.clip(np.asarray(action, dtype=np.float64),
                -ACTION_BOUND, ACTION_BOUND)
    pos = state.obs[..., :k]
    vel = state.obs[..., k:]
    new_pos = pos + DT * vel
    new_vel = (1.0 - DAMPING) * vel + DT * a
    obs = np.concatenate([new_pos, new_vel], axis=-1)
    if not np.all(np.isfinite(obs)):
        raise EnvironmentFault(f"non-finite state at step {state.t + 1}")
    reward = (-((new_pos - GOAL) ** 2).sum(axis=-1)
              - ACTION_COST * (a ** 2).sum(axis=-1))
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


# (kp, kd), picked by a coarse grid search, which
# tests/test_envs.py::TestExpert::test_gains_within_5pct_of_grid_best
# re-runs on each environment: they share the dynamics, so they share gains.
EXPERT_GAINS = (9.0, 4.0)


def default_expert(spec: EnvSpec) -> ExpertController:
    return ExpertController(*EXPERT_GAINS)


def expert_act(ctrl: ExpertController, spec: EnvSpec,
               s: np.ndarray) -> np.ndarray:
    k = spec.action_dim
    s = np.asarray(s, dtype=np.float64)
    pos, vel = s[..., :k], s[..., k:]
    raw = ctrl.kp * (GOAL - pos) - ctrl.kd * vel
    return np.clip(raw, -ACTION_BOUND, ACTION_BOUND)


# ---------------------------------------------------------------------------
# The demo store
# ---------------------------------------------------------------------------

class DemoStore:
    """Demonstration set held as one array per field, the rows of every
    trajectory in store order: ``states``, ``actions``, ``rewards`` (zeros
    where a trajectory has none) and ``terminals``, ``columns`` in that
    order. ``rows`` describes the trajectories, one (traj_id, length,
    noise_level, had_rewards) each, and is their only description: the
    rows of trajectory i are ``bounds[i]`` up to ``bounds[i + 1]`` of every
    column, and its undiscounted return ``rets[i]`` is the plain sum of its
    rewards, or None where it has none. A segment of it is a range of those
    rows (expertise.segment_trajectories), never an object of its own.

    Batches drawn from the store carry only (state, action) pairs: rewards
    never reach the optimizers. A store is built once, from its columns and
    rows (``DemoStore.of`` concatenates them from per-trajectory arrays),
    and no code edits it afterwards: its columns are read-only. A filter
    pass and a load without rewards each build a new store. ``env`` is the
    env the store's transitions were run in, or None where that is unknown.
    """

    def __init__(self, columns, rows, env: EnvSpec | None = None):
        self.env = env
        self.rows = tuple(map(tuple, rows))
        ids = [row[0] for row in self.rows]
        if len(set(ids)) != len(ids):
            raise InvalidInputError("trajectory ids must be unique")
        self.columns = tuple(columns)
        self.states, self.actions, self.rewards, self.terminals = self.columns
        for column in self.columns:
            column.flags.writeable = False
        self.bounds = (0, *accumulate(row[1] for row in self.rows))
        self.rets = tuple(
            float(np.sum(self.rewards[start:stop])) if had_rewards else None
            for (*_, had_rewards), start, stop in zip(
                self.rows, self.bounds, self.bounds[1:]))

    @classmethod
    def of(cls, trajectories, env: EnvSpec | None = None) -> DemoStore:
        """The store of ``trajectories`` in order, each a ((traj_id,
        noise_level), states, actions, rewards or None, terminals) tuple:
        one concatenation per column."""
        columns = zip(*((states, actions, np.zeros(len(states))
                         if rewards is None else rewards, terminals)
                        for _, states, actions, rewards, terminals
                        in trajectories))
        return cls([np.concatenate(column) for column in columns]
                   or [np.zeros((0, 0))] * 4,
                   [(tid, len(states), level, rewards is not None)
                    for (tid, level), states, _, rewards, _ in trajectories],
                   env)

    @property
    def num_trajectories(self) -> int:
        return len(self.rows)

    @property
    def transition_count(self) -> int:
        return len(self.states)

    def sample(self, rng: SeededRng, batch_size: int):
        if self.transition_count == 0:
            raise InvalidInputError("cannot sample from an empty store")
        idx = rng.integers(0, self.transition_count, size=batch_size)
        return self.states[idx], self.actions[idx]


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
                             -ACTION_BOUND, ACTION_BOUND)
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
            trajectories.append(((len(trajectories), float(level)),
                                 states, actions, rewards, terminals))
    return DemoStore.of(trajectories, env=spec)


# ---------------------------------------------------------------------------
# Demo file I/O (JSON lines, bit-exact round trip)
# ---------------------------------------------------------------------------

def save_demos(store: DemoStore, path: str, seed: int | None = None) -> None:
    """Write ``store`` as a JSON-lines demo file, through ``atomic_write``:
    ``path`` holds either its old bytes or the whole new file."""
    env = store.env
    header = {
        "kind": "header",
        "format_version": DEMO_FORMAT_VERSION,
        "env": env.name if env else None,
        "state_dim": env.state_dim if env else store.states.shape[1],
        "action_dim": env.action_dim if env else store.actions.shape[1],
        "horizon": env.horizon if env else None,
        "seed": seed,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header) + "\n")
        for (tid, length, level, had_rewards), start, stop in zip(
                store.rows, store.bounds, store.bounds[1:]):
            rewards = (store.rewards[start:stop].tolist() if had_rewards
                       else [None] * length)
            for i, (s, a, r, terminal) in enumerate(zip(
                    store.states[start:stop].tolist(),
                    store.actions[start:stop].tolist(), rewards,
                    store.terminals[start:stop].tolist())):
                fh.write(json.dumps({
                    "traj_id": tid, "step": i, "s": s, "a": a, "r": r,
                    "terminal": terminal, "noise_level": level}) + "\n")


def _numbers_only(*lists) -> bool:
    """Whether the lists hold ints and floats only: numpy takes a bool as
    0 or 1 and parses a numeric string."""
    try:
        return set(map(type, chain(*lists))) <= {int, float}
    except TypeError:  # an entry that is not a list
        return False


def _header_env(where: str, header: dict,
                env: EnvSpec | None) -> EnvSpec | None:
    """The env of a demo file whose header is ``header``, under the run's
    ``env``: ``env`` where given, else the env the header names, or None
    for its null ``env``. The header's ``state_dim`` and ``action_dim`` must
    be integers >= 1 and the dims of the env it names, or of ``env`` where
    it names none; its ``horizon`` null or an integer >= 1; and an env it
    names ``env`` itself. Anything else raises InvalidInputError naming
    ``where``."""
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
    named = None
    if name is not None:
        if not isinstance(name, str) or name not in ENV_WIDTHS:
            raise InvalidInputError(
                f"{where}: unknown environment {name!r}; choices: "
                f"{sorted(ENV_WIDTHS)}")
        named = make_env_spec(name, horizon=horizon)
    spec = named or env
    if spec and dims != (spec.state_dim, spec.action_dim):
        raise InvalidInputError(
            f"{where}: header dims (state {dims[0]}, action {dims[1]}) do "
            f"not match env {spec.name} dims (state {spec.state_dim}, action "
            f"{spec.action_dim})")
    if named and env and named != env:
        raise InvalidInputError(
            f"{where}: demo file header env {named.name} (horizon "
            f"{named.horizon}) is not config env {env.name} (horizon "
            f"{env.horizon})")
    return env or named


def _horizon(header: dict, env: EnvSpec | None) -> int | None:
    """The most steps a trajectory of a demo file whose header is
    ``header`` may have in a store of ``env`` (_header_env): that env's
    horizon, or the header's where the store has no env."""
    return env.horizon if env else header.get("horizon")


def _demo_lines(path: str, digest):
    """(number, text) of each non-blank line of the file at ``path``, without
    its line end. The file is read and decoded one line at a time, never
    whole, so a byte that is not UTF-8 names its own line. Lines end at
    ``\n`` only. Every byte read, blank lines and line ends too, goes into
    the hash ``digest``, so once the lines run out it covers exactly the
    bytes they came from."""
    try:
        with open(path, "rb") as fh:
            for no, raw in enumerate(fh, 1):
                digest.update(raw)
                try:
                    text = raw.rstrip(b"\r\n").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InvalidInputError(
                        f"{path}:{no}: not UTF-8: {exc.reason}") from exc
                if text.strip():
                    yield no, text
    except OSError as exc:
        raise InvalidInputError(f"cannot read demo file {path}: {exc}") from exc


def load_demos(path: str, include_rewards: bool = True, *,
               env: EnvSpec | None = None) -> DemoStore:
    """Read a demo file into a store whose columns are read-only (DemoStore).
    ``include_rewards=False`` returns a new store over the same states,
    actions and terminals, with a zero rewards column and no trajectory's
    rewards or return.

    The header is checked against ``env``, the run's env, before the body
    is read (_header_env), and the store returned is of ``env``; without
    one, it is of the env the header names, or of None.

    A byte that is not UTF-8, malformed JSON, a bad header (_header_env), a
    missing field, a traj_id or step that is not a JSON integer, a state or
    action of the wrong width, an s, a or r entry that is not a JSON number,
    a terminal that is not a JSON boolean, a non-finite number, a trajectory
    whose steps are not 0, 1, 2, ... (a repeat or a gap), a trajectory with
    more steps than the horizon of the store's env, or of the header where
    the store has no env (_horizon), a noise level that is neither
    null nor a finite number >= 0 and a noise level that varies within a
    trajectory each raise InvalidInputError naming path:line (a width error
    names the first line of its trajectory, a long one its first step past
    the horizon). A file with no transitions raises InvalidInputError naming
    the path. Where a file has several faults, the earliest line is named,
    with one exception: a fault of one line alone (bytes, JSON, fields and
    their types) is raised as the file is read (_demo_lines), before any
    trajectory is checked, because a trajectory checked on the lines read
    so far can report a gap that a later line fills. Every trajectory's
    checks run once the file is read, and the earliest line any of them
    finds is named (widths and finite values go unchecked beside an s, a or
    r that is not a number).

    Each parse that succeeds leaves the store it read, its four columns
    rewards and all, at ``path + ".store"``, keyed by sha256 over this
    module's source and the bytes the parse read. A later load whose file
    hashes to that key, and whose copy's own checksum holds, builds the
    same store over the copy's bytes, read once, and skips the parse: the
    same arrays bit for bit, trajectory order, noise_level types, returns
    and env. Any other file bytes or loader source, or a missing, torn or
    corrupt copy, is parsed around and the copy rewritten, so a copy never
    changes what a load returns or raises; where no copy can be written
    (a read-only directory), none is. A path that is not a regular file,
    such as a pipe, is always parsed and gets no copy.
    """
    source = _source_hash()
    # a pipe's bytes can be read once only, so they are parsed, never
    # hashed against a copy first
    regular = os.path.isfile(path)
    store = _read_copy(path, source, env) if regular else None
    if store is None:
        digest = source.copy()
        header, head_no, store = _parse_demos(path, digest, env)
        if regular:
            _write_copy(path, header, head_no, store, digest.digest())
    if include_rewards:
        return store
    return DemoStore(
        (store.states, store.actions, np.zeros(store.transition_count),
         store.terminals),
        [(tid, length, level, False) for tid, length, level, _ in store.rows],
        store.env)


def _parse_demos(path: str, digest,
                 env: EnvSpec | None) -> tuple[dict, int, DemoStore]:
    """The header, its line and the store of the demo file at ``path`` under
    the run's ``env`` (load_demos), with rewards wherever the file has
    them; ``digest`` takes in every byte read."""
    lines = _demo_lines(path, digest)
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
    env = _header_env(f"{path}:{head_no}", header, env)
    dims = ((header["state_dim"],), (header["action_dim"],))
    horizon = _horizon(header, env)
    whose = ("the header's" if horizon == header.get("horizon")
             else f"env {env.name}'s")
    rows: dict[int, list[tuple]] = {}
    for no, ln in lines:
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
            # a list: 2,000 freed 7-tuples would stay on CPython's free list
            rows.setdefault(tid, []).append(
                [step, no, rec["s"], rec["a"], rec["r"], rec["terminal"],
                 level])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"{path}:{no}: bad demo record: {exc!r}") from exc
    if not rows:
        raise InvalidInputError(f"demo file {path} holds no transitions")
    trajectories = []
    faults = []   # (line, message) of each check that fails, in any trajectory
    for tid in list(rows):
        recs = rows.pop(tid)   # each file record is freed once it is read
        recs.sort(key=lambda rec: rec[0])
        steps, nos, states, actions, rewards, terminals, levels = zip(*recs)
        misplaced = np.asarray(steps) != np.arange(len(steps))
        if misplaced.any():
            i = int(np.argmax(misplaced))
            faults.append((nos[i], f"trajectory {tid} has step {steps[i]} "
                           f"where step {i} belongs (a repeated or missing "
                           f"step)"))
        if horizon is not None and len(steps) > horizon:
            faults.append((nos[horizon], f"trajectory {tid} has step "
                           f"{horizon}, past {whose} horizon {horizon}"))
        if levels.count(levels[0]) != len(levels):
            faults.append(min(
                (no, f"noise_level {lv} differs from {levels[0]} earlier "
                 f"in trajectory {tid}")
                for no, lv in zip(nos, levels) if lv != levels[0]))
        had_rewards = all(r is not None for r in rewards)
        rewards = [0.0 if r is None else r for r in rewards]
        if not _numbers_only(*states, *actions, rewards):
            faults.append((min(
                no for no, s, a, r in zip(nos, states, actions, rewards)
                if not _numbers_only(s, a, [r])), "s, a or r not a number"))
        else:
            try:
                states, actions, rewards = (np.asarray(
                    x, dtype=np.float64) for x in (states, actions, rewards))
            except (OverflowError, TypeError, ValueError) as exc:
                faults.append((min(nos), f"bad values in trajectory {tid}: "
                               f"{exc}"))
            else:
                finite = np.isfinite(np.column_stack(
                    (states, actions, rewards))).all(axis=1)
                if (states.shape[1:], actions.shape[1:]) != dims:
                    faults.append((min(nos), f"trajectory {tid} has states "
                                   f"{states.shape}, actions "
                                   f"{actions.shape}; header widths {dims}"))
                elif not finite.all():
                    faults.append((int(min(np.asarray(nos)[~finite])),
                                   f"non-finite value in trajectory {tid}"))
        if not faults:
            trajectories.append((
                (tid, levels[0]), states, actions,
                rewards if had_rewards else None,
                np.asarray(terminals, dtype=bool)))
    if faults:
        no, message = min(faults, key=lambda fault: fault[0])
        raise InvalidInputError(f"{path}:{no}: {message}")
    return header, head_no, DemoStore.of(trajectories, env)


# ---------------------------------------------------------------------------
# Parsed-store copies beside demo files
# ---------------------------------------------------------------------------
#
# A copy is, in order: _COPY_MAGIC; the 32-byte key; the byte length of a
# JSON text, as 8 little-endian bytes; that text, space-padded to a multiple
# of 8 bytes, holding the file's header, its line and each trajectory's
# [traj_id, length, noise_level, had_rewards] row (DemoStore.rows); the
# store's states, actions and rewards columns as little-endian float64; its
# terminals column, one byte each; and the sha256 of everything before it.

_COPY_MAGIC = b"SMILEDS\x01"
_HASH_BLOCK = 1 << 20


def _source_hash():
    """A sha256 that has taken in this module's source, from which every
    copy key starts, so a copy written by other loader code never matches.
    Where the source cannot be read it starts from random bytes instead,
    and no copy matches."""
    try:
        with open(__file__, "rb") as fh:
            return hashlib.sha256(fh.read())
    except OSError:
        return hashlib.sha256(os.urandom(32))


def _read_copy(path: str, source, env: EnvSpec | None) -> DemoStore | None:
    """The store the copy beside ``path`` holds under the run's ``env``, if
    its key is that of ``path``'s bytes, hashed in 1 MiB blocks after
    ``source``, and its checksum holds; None otherwise. Its header is
    checked at its line as the parse checks it, so a hit raises the same.
    A copy with a trajectory longer than the store's horizon (_horizon), as
    a load under no env or another one may write, is no hit: the parse names
    that trajectory's line. The file is hashed before the copy is read, so
    the hash's blocks and the copy are never held at once."""
    try:
        with open(path + ".store", "rb") as copy:
            key = source.copy()
            with open(path, "rb") as fh:
                while block := fh.read(_HASH_BLOCK):
                    key.update(block)
                    del block   # before the next read: one block at a time
            data = bytearray(os.fstat(copy.fileno()).st_size)
            copy.readinto(data)
    except OSError:
        return None
    if (data[:8] != _COPY_MAGIC or data[8:40] != key.digest()
            or hashlib.sha256(memoryview(data)[:-32]).digest() != data[-32:]):
        return None
    # A copy whose checksum and key hold was written by _write_copy of this
    # very source from these very bytes, so it decodes as written.
    at = 48 + int.from_bytes(data[40:48], "little")
    meta = json.loads(data[48:at])
    header, rows = meta["header"], meta["trajectories"]
    env = _header_env(f"{path}:{meta['header_line']}", header, env)
    horizon = _horizon(header, env)
    if horizon is not None and any(row[1] > horizon for row in rows):
        return None   # the parse names the line of the first step past it
    n = sum(length for _, length, _, _ in rows)
    s, a = header["state_dim"], header["action_dim"]
    floats = np.frombuffer(data, "<f8", n * (s + a + 1), at)
    return DemoStore(
        (floats[:n * s].reshape(n, s), floats[n * s:n * (s + a)].reshape(n, a),
         floats[n * (s + a):], np.frombuffer(data, np.bool_, n,
                                             at + floats.nbytes)),
        rows, env)


def _write_copy(path: str, header: dict, head_no: int, store: DemoStore,
                key: bytes):
    """Write the copy of ``store``, parsed from the file at ``path`` whose
    bytes have ``key`` and whose line ``head_no`` is ``header``, beside it
    through ``atomic_write``; a directory it cannot write to gets none."""
    meta = json.dumps({"header": header, "header_line": head_no,
                       "trajectories": store.rows}).encode()
    meta += b" " * (-len(meta) % 8)
    parts = [_COPY_MAGIC, key, len(meta).to_bytes(8, "little"), meta,
             *(column.astype("<f8", copy=False)
               for column in store.columns[:3]),
             store.terminals.view(np.uint8)]
    checksum = hashlib.sha256()
    try:
        with atomic_write(path + ".store", "wb") as fh:
            for part in parts:
                checksum.update(part)
                fh.write(part)
            fh.write(checksum.digest())
    except OSError:
        pass
