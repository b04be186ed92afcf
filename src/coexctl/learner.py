"""Deep Q-learning over the dual-augmented state.

The value network is a plain ReLU MLP with hand-written backprop (numpy only)
so the loss gradient can be checked against central finite differences. The
reward realizes the augmented Lagrangian with the negative-only scaled
violation: r = f0 + lambda * v_neg. Training samples lambda uniformly at each
episode start and keeps running the dual update every T0 steps so the lambda
trajectories seen in training match execution dynamics.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

# augment_state is unused here; perfbench/tracing.py wraps learner.augment_state by name
from .constraint import DualController, augment_state, constraint_signals, sample_lambda
from .env import CoexEnv
from .medium import NodeStats


def assemble_reward(f0: float, lam: float, v_neg: float) -> float:
    """Augmented-Lagrangian step reward: primary objective plus dual-weighted cost."""
    return f0 + lam * v_neg


def select_action(qvalues: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy with lowest-index argmax tie-break."""
    if len(qvalues) == 0:
        raise ValueError("qvalues must be non-empty")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, len(qvalues)))
    return int(np.argmax(qvalues))


# discount, the exploration rate's linear anneal over a training's steps, and
# Adam's moment decay rates and denominator guard
GAMMA = 0.99
EPSILON_START = 1.0
EPSILON_END = 0.01
EPSILON_ANNEAL_FRACTION = 0.5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def epsilon_at(step: int, total_steps: int) -> float:
    """Linear anneal from EPSILON_START to EPSILON_END over the first
    EPSILON_ANNEAL_FRACTION of total_steps, then EPSILON_END."""
    horizon = max(1, int(total_steps * EPSILON_ANNEAL_FRACTION))
    frac = min(step / horizon, 1.0)
    return EPSILON_START + (EPSILON_END - EPSILON_START) * frac


# elements per block of a blocked pass over parameters: 256 KiB of float64, so
# an Adam block of p, g, m, v and two scratch arrays stays in L2 across passes
_BLOCK = 32768


def param_shapes(dims: list[int]) -> list[tuple]:
    """Shapes of an MLP's parameters in buffer order: all weights, then all biases."""
    layers = list(zip(dims[:-1], dims[1:]))
    return [(fan_in, fan_out) for fan_in, fan_out in layers] + [(fan_out,) for _, fan_out in layers]


def _layer_views(buf: np.ndarray, dims: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat buffer laid out as param_shapes(dims)."""
    shapes = param_shapes(dims)
    ends = np.cumsum([np.prod(shape) for shape in shapes])[:-1]
    views = [part.reshape(shape) for part, shape in zip(np.split(buf, ends), shapes)]
    return views[:len(dims) - 1], views[len(dims) - 1:]


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    h = np.matmul(x, w, out=out)
    h += b
    if relu:
        np.maximum(h, 0.0, out=h)
    return h


class MLP:
    """Fully connected ReLU network with identity output and manual backprop.

    All parameters live in one contiguous float64 buffer `flat` (all weights,
    then all biases, in the artifact's payload order); `weights` and `biases`
    are views into it, and `grad` holds the gradients in the same layout.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator):
        n = sum(int(np.prod(shape)) for shape in param_shapes(dims))
        self._adopt(dims, np.empty(n))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            # drawn a block of rows at a time, the same stream as one draw,
            # so no layer-sized temporary is allocated and left in the heap
            for rows in np.array_split(w, max(1, w.size // _BLOCK)):
                rows[...] = rng.uniform(-bound, bound, size=rows.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    @classmethod
    def over(cls, dims: list[int], flat: np.ndarray) -> "MLP":
        """A network whose parameter buffer is flat itself (laid out as
        param_shapes(dims)), with no initialisation drawn."""
        net = cls.__new__(cls)
        net._adopt(dims, flat)
        return net

    def _adopt(self, dims: list[int], flat: np.ndarray) -> None:
        self.dims = list(dims)
        self.flat = flat
        self.grad = np.zeros(flat.size)  # calloc'd: pages a network never trains stay untouched
        self.weights, self.biases = _layer_views(self.flat, self.dims)
        self._grads_w, self._grads_b = _layer_views(self.grad, self.dims)
        self._scratch: dict[str, list[np.ndarray]] = {}

    def _hidden(self, kind: str, rows: int, dtype=np.float64) -> list[np.ndarray]:
        """One (rows, width) scratch array per hidden layer, kept per kind for the
        last batch size, so a step reuses memory instead of faulting in new pages."""
        bufs = self._scratch.get(kind)
        if bufs is None or (bufs and bufs[0].shape[0] != rows):
            bufs = self._scratch[kind] = [np.empty((rows, n), dtype) for n in self.dims[1:-1]]
        return bufs

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for w, b, h in zip(self.weights[:-1], self.biases[:-1], self._hidden("forward", len(x))):
            x = _dense(x, w, b, relu=True, out=h)
        return _dense(x, self.weights[-1], self.biases[-1], relu=False)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output and per-layer inputs; the hidden activations are scratch
        arrays that the next forward_cached call overwrites."""
        acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
        for w, b, h in zip(self.weights[:-1], self.biases[:-1], self._hidden("cached", len(acts[0]))):
            acts.append(_dense(acts[-1], w, b, relu=True, out=h))
        return _dense(acts[-1], self.weights[-1], self.biases[-1], relu=False), acts

    def backward(
        self, acts: list[np.ndarray], dout: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of a scalar loss given d(loss)/d(output).

        They are written into `grad` and returned as views of it, which the
        next call overwrites.
        """
        deltas = self._hidden("delta", len(dout))
        masks = self._hidden("mask", len(dout), bool)
        delta = dout
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=self._grads_w[layer])
            np.sum(delta, axis=0, out=self._grads_b[layer])
            if layer > 0:
                delta = np.matmul(delta, self.weights[layer].T, out=deltas[layer - 1])
                delta *= np.greater(acts[layer], 0.0, out=masks[layer - 1])
        return list(self._grads_w), list(self._grads_b)


class Adam:
    """Adam over one flat array, in place block by block; per element the
    arithmetic and its order are the textbook update's, whatever the block size."""

    def __init__(self, params: np.ndarray, lr: float):
        if params.ndim != 1:
            raise ValueError("Adam updates one flat parameter array")
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        block = min(params.size, _BLOCK)
        self._s1, self._s2 = np.empty(block), np.empty(block)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, self.lr, ADAM_EPS
        b1c = 1.0 - b1**self.t
        b2c = 1.0 - b2**self.t
        for lo in range(0, params.size, _BLOCK):
            hi = lo + _BLOCK
            p, g, m, v = params[lo:hi], grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            s1, s2 = self._s1[:p.size], self._s2[:p.size]
            # m = b1*m + (1-b1)*g
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1
            # v = b2*v + ((1-b2)*g)*g
            v *= b2
            np.multiply(g, 1.0 - b2, out=s1)
            s1 *= g
            v += s1
            # p -= (lr*(m/b1c)) / (sqrt(v/b2c) + eps)
            np.divide(m, b1c, out=s1)
            s1 *= lr
            np.divide(v, b2c, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            p -= s1


class ReplayBuffer:
    """Bounded FIFO ring of transitions; oldest evicted at capacity."""

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.next_obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.terminals = np.zeros(capacity, dtype=bool)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs: np.ndarray, action: int, reward: float, next_obs: np.ndarray,
             terminal: bool) -> None:
        i = self._next
        self.obs[i] = obs
        self.next_obs[i] = next_obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.terminals[i] = terminal
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self._size, size=batch_size)
        return (
            self.obs[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.terminals[idx],
        )


def td_targets(rewards: np.ndarray, q_next: np.ndarray, terminals: np.ndarray,
               gamma: float) -> np.ndarray:
    """y = r + gamma * max_a q_next[a] for non-terminal, y = r otherwise, where
    q_next holds the target network's Q-values of the next states, one row each."""
    best = np.asarray(q_next).max(axis=1)
    return rewards + gamma * best * (~np.asarray(terminals, dtype=bool))


@dataclass
class LearnerConfig:
    buffer_capacity: int = 100_000
    learning_rate: float = 1e-5
    batch_size: int = 256
    hidden_layers: tuple = (1024, 1024, 1024)
    target_sync_interval: int = 1000

    def validate(self) -> None:
        for name, ok, rule in (
            ("buffer_capacity", self.buffer_capacity > 0, "> 0"),
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("batch_size", self.batch_size > 0, "> 0"),
            ("hidden_layers", all(width >= 1 for width in self.hidden_layers),
             "widths >= 1"),
            ("target_sync_interval", self.target_sync_interval >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


# BLAS threads: each rollout sets the count its network's GEMMs run fastest
# at and leaves it set. OpenBLAS splits a product over blocks of its output,
# so the float64 results are the same bits at any count; only speed changes.

# One thread is at least as fast while both the largest weight matrix and the
# largest GEMM stay this small; measured crossover in the README
_ONE_THREAD_MAX_WEIGHTS = 1 << 15
_ONE_THREAD_MAX_MACS = 1 << 21


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as (get, set, its thread count at first use),
    or None when it or its thread control is not loaded. Found once, since
    every rollout start asks for it."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "libscipy_openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put, get()
    return None


def blas_threads(count: Optional[int] = None) -> Optional[int]:
    """The thread count of numpy's bundled OpenBLAS, set to count first when
    one is given; None, with nothing set, when there is no such control."""
    lib = _openblas()
    if lib is None:
        return None
    get, put, _ = lib
    if count is not None:
        put(count)
    return get()


def blas_threads_for(dims: list[int], batch: int) -> Optional[int]:
    """The BLAS thread count for an MLP of layer sizes dims run on batch rows:
    1 where a second thread does not pay, else the library's count at first
    use; None when there is no thread control."""
    lib = _openblas()
    if lib is None:
        return None
    weights = max(fan_in * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if weights <= _ONE_THREAD_MAX_WEIGHTS and batch * weights <= _ONE_THREAD_MAX_MACS:
        return 1
    return lib[2]


class QLearner:
    """Online network, target network, buffer, and one-step-per-env-step training."""

    def __init__(self, obs_dim: int, n_actions: int, config: LearnerConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        dims = [obs_dim, *config.hidden_layers, n_actions]
        self.online = MLP(dims, self.rng)
        self.target = MLP(dims, self.rng)
        self.sync_target()
        self.optimizer = Adam(self.online.flat, lr=config.learning_rate)
        self.buffer = ReplayBuffer(config.buffer_capacity, obs_dim)
        self.train_steps = 0

    def sync_target(self) -> None:
        np.copyto(self.target.flat, self.online.flat)

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        return self.online.forward(obs)[0]

    def act(self, obs: np.ndarray, epsilon: float) -> int:
        return select_action(self.q_values(obs), epsilon, self.rng)

    def train_step(self) -> Optional[float]:
        """One SGD step of squared TD error; None while the buffer is short."""
        if len(self.buffer) < self.config.batch_size:
            return None
        obs, actions, rewards, next_obs, terminals = self.buffer.sample(
            self.config.batch_size, self.rng
        )
        targets = td_targets(rewards, self.target.forward(next_obs), terminals, GAMMA)
        q_all, acts = self.online.forward_cached(obs)
        n = len(actions)
        q_taken = q_all[np.arange(n), actions]
        err = q_taken - targets
        loss = float(np.mean(err**2))
        dout = np.zeros_like(q_all)
        dout[np.arange(n), actions] = 2.0 * err / n
        self.online.backward(acts, dout)
        self.optimizer.step(self.online.flat, self.online.grad)
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_interval == 0:
            self.sync_target()
        return loss


# ----------------------------------------------------------------------
# policy artifact: versioned binary with JSON header and sha256 payload checksum

_ARTIFACT_MAGIC = b"CXQP"
_ARTIFACT_VERSION = 1
_ARTIFACT_KEYS = ("version", "obs_dim", "n_actions", "hidden_layers", "shapes", "checksum")


def _is_count(value) -> bool:
    return type(value) is int and value > 0


def _is_count_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_count, value))


# the header values load_policy computes with: what each must be, and its test
_ARTIFACT_TYPES = {
    "obs_dim": ("a positive integer", _is_count),
    "n_actions": ("a positive integer", _is_count),
    "hidden_layers": ("a list of positive integers", _is_count_list),
    "shapes": ("a list of lists of positive integers",
               lambda v: isinstance(v, list) and all(map(_is_count_list, v))),
    "meta": ("a JSON object", lambda v: isinstance(v, dict)),
}


def save_policy(path: str, learner: QLearner, meta: dict) -> None:
    net = learner.online
    payload = np.ascontiguousarray(net.flat, dtype="<f8")
    header = {
        "version": _ARTIFACT_VERSION,
        "obs_dim": learner.obs_dim,
        "n_actions": learner.n_actions,
        "hidden_layers": list(learner.config.hidden_layers),
        "shapes": [list(shape) for shape in param_shapes(net.dims)],
        "checksum": hashlib.sha256(payload).hexdigest(),
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_ARTIFACT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(payload)


@dataclass
class PolicyArtifact:
    obs_dim: int
    n_actions: int
    hidden_layers: tuple
    flat: np.ndarray  # the payload, laid out as param_shapes(dims)
    meta: dict

    @property
    def dims(self) -> list[int]:
        return [self.obs_dim, *self.hidden_layers, self.n_actions]

    @property
    def arrays(self) -> list[np.ndarray]:
        """Per-layer weights, then biases: views of flat."""
        weights, biases = _layer_views(self.flat, self.dims)
        return weights + biases

    def network(self) -> MLP:
        return MLP.over(self.dims, self.flat.copy())


def load_policy(path: str) -> PolicyArtifact:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _ARTIFACT_MAGIC:
            raise ValueError(f"not a policy artifact: {path}")
        prefix = f.read(4)
        if len(prefix) != 4:
            raise ValueError(f"policy artifact ends inside its 8-byte prefix: {path}")
        (hlen,) = struct.unpack("<I", prefix)
        header = json.loads(f.read(hlen).decode())
        if not isinstance(header, dict):
            raise ValueError("policy artifact header is not a JSON object")
        missing = [key for key in _ARTIFACT_KEYS if key not in header]
        if missing:
            raise ValueError(f"policy artifact header lacks {', '.join(missing)}")
        if header["version"] != _ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {header['version']}")
        for key, (kind, ok) in _ARTIFACT_TYPES.items():
            if key in header and not ok(header[key]):
                raise ValueError(f"policy artifact header {key} is not {kind}: {header[key]!r}")
        dims = [header["obs_dim"], *header["hidden_layers"], header["n_actions"]]
        shapes = param_shapes(dims)
        if [tuple(shape) for shape in header["shapes"]] != shapes:
            raise ValueError(f"artifact shapes {header['shapes']} do not match layer sizes {dims}")
        size = sum(int(np.prod(shape)) for shape in shapes)
        # read straight into the array: no intermediate bytes object
        flat = np.fromfile(f, dtype="<f8", count=size)
        trailing = f.read(1)
    if flat.size != size or trailing:
        raise ValueError(f"artifact payload is not the {8 * size} bytes its shapes imply")
    if hashlib.sha256(flat).hexdigest() != header["checksum"]:
        raise ValueError("artifact payload checksum mismatch")
    return PolicyArtifact(
        obs_dim=header["obs_dim"],
        n_actions=header["n_actions"],
        hidden_layers=tuple(header["hidden_layers"]),
        flat=flat,
        meta=header.get("meta", {}),
    )


# ----------------------------------------------------------------------
# the rollout loop shared by training, evaluation and the baseline

class StepLog(NamedTuple):
    """One per-step training/evaluation log row: the step log's columns are
    StepLog._fields and a row's values are the tuple itself."""

    episode: int
    step: int
    lam: float
    v: float
    v_scaled: float
    v_ema: float
    cost: float
    jfi: float
    delay_inst_us: float
    delay_smooth_us: float
    collision_rate: float
    airtime_util: float
    violation_rate: float
    reward: float
    epsilon: float
    action: int
    loss: float


@dataclass
class TrainResult:
    learner: QLearner
    log: list


def _rollout(
    env: CoexEnv,
    dual: Optional[DualController],
    episodes: int,
    seed: int,
    scaling: bool,
    act: Callable[[np.ndarray, float], Optional[int]],
    learner: Optional[QLearner] = None,
    hard_episode_resets: bool = False,
    log_hook: Optional[Callable[[StepLog], None]] = None,
) -> list[StepLog]:
    """The per-step control loop of training, evaluation and the baseline.

    After each reset and each dual feed the loop builds the policy input once,
    env.observe(lambda, lambda_max). With a learner, each episode restarts the
    dual from a sampled lambda0 and each step stores its transition and takes
    one gradient step; otherwise lambda carries over between episodes.
    act(obs, epsilon) returns the action, or None to keep the MAC parameters.
    Without a dual, a default DualController that is never fed logs the
    pipeline at its kappa, with lambda and v_ema at 0. Returns the step log.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    total_steps = episodes * env.episode_steps
    fed = dual is not None
    if not fed:
        dual = DualController()
    kappa, lambda_max = dual.kappa, dual.lambda_max
    log: list[StepLog] = []
    for episode in range(episodes):
        if learner is not None:
            dual.reset(sample_lambda(learner.rng, lambda_max))
        # a seeded reset builds a fresh medium; otherwise the medium persists
        env.reset(seed=seed + episode if episode == 0 or hard_episode_resets else None)
        obs = env.observe(dual.lam, lambda_max)
        for step in range(env.episode_steps):
            eps = epsilon_at(len(log), total_steps) if learner is not None else 0.0
            action = act(obs, eps)
            info = env.step(action)
            lam = dual.lam
            # scaled arm: smoothed delay; raw arm: the unsmoothed instantaneous
            # delay, unbounded in both directions
            delay_signal = info.pc1_delay_smooth_us if scaling else info.pc1_delay_inst_us
            v, v_dual, cost = constraint_signals(delay_signal, env.d_th_us, kappa, scaling)
            reward = assemble_reward(info.jfi, lam, cost)
            if fed:
                dual.feed(v_dual, step, smooth=scaling)
            next_obs = env.observe(dual.lam, lambda_max)
            loss = None
            if learner is not None:
                learner.buffer.push(obs, action, reward, next_obs,
                                    step == env.episode_steps - 1)
                loss = learner.train_step()
            entry = StepLog(
                episode=episode, step=step, lam=lam, v=v, v_scaled=v_dual,
                v_ema=dual.v_ema, cost=cost, jfi=info.jfi,
                delay_inst_us=info.pc1_delay_inst_us, delay_smooth_us=info.pc1_delay_smooth_us,
                collision_rate=info.coll_rate_agg, airtime_util=info.airtime_util,
                violation_rate=info.violation_rate, reward=reward, epsilon=eps,
                action=action if action is not None else -1,
                loss=loss if loss is not None else 0.0,
            )
            log.append(entry)
            if log_hook is not None:
                log_hook(entry)
            obs = next_obs
    return log


def run_training(
    env: CoexEnv,
    dual: DualController,
    config: LearnerConfig,
    seed: int,
    scaling: bool = True,
    *,
    episodes: int,
    log_hook: Optional[Callable[[StepLog], None]] = None,
    hard_episode_resets: bool = False,
) -> TrainResult:
    """Train a fresh learner over the constrained environment.

    Each step acts epsilon-greedily on the augmented state, assembles the
    reward, stores the transition (its next state carries lambda after the
    step's dual feed) and takes one gradient step; the dual keeps updating
    every dual.update_period steps so training matches execution dynamics.
    log_hook sees each step's log entry after its gradient step.
    The BLAS thread count is set for the train shape (blas_threads_for).
    """
    learner = QLearner(env.observation_dim, env.n_actions, config, seed=seed)
    blas_threads(blas_threads_for(learner.online.dims, config.batch_size))
    log = _rollout(env, dual, episodes, seed, scaling, learner.act, learner=learner,
                   hard_episode_resets=hard_episode_resets, log_hook=log_hook)
    return TrainResult(learner=learner, log=log)


@dataclass
class EvalRollout:
    """A greedy rollout's step log, and each node's cumulative NodeStats at its
    end keyed by simulator node name. The first episode's seeded reset builds
    a fresh medium that later episodes keep, so the counters cover the whole
    rollout; harness.report_from_rollout turns them and the log into a report."""

    log: list
    stats: dict[str, NodeStats]


def greedy_rollout(
    env: CoexEnv,
    q_net: Optional[MLP],
    dual: Optional[DualController],
    episodes: int,
    seed: int,
    scaling: bool = True,
) -> EvalRollout:
    """Greedy execution (epsilon = 0) with online dual updates and no learning.

    The policy reads the state augmented with the dual's current lambda over
    its lambda_max. With q_net None the environment keeps the preset's default
    MAC parameters (the fixed-parameter baseline); with dual None lambda stays
    0. A q_net sets the BLAS thread count for its shape at batch 1
    (blas_threads_for).
    """
    def act(obs: np.ndarray, eps: float) -> Optional[int]:
        return None if q_net is None else int(np.argmax(q_net.forward(obs)[0]))

    if q_net is not None:
        blas_threads(blas_threads_for(q_net.dims, 1))

    log = _rollout(env, dual, episodes, seed, scaling, act)
    return EvalRollout(log=log, stats=dict(zip(env.sim.node_names(), env.sim.stats_snapshot())))
