"""Lightweight value-based learner sized for edge deployment.

A fully connected Q-network (ReLU hidden layers, linear output) trained by
plain stochastic gradient descent on the mean squared TD error, with a
bounded FIFO experience replay and a periodically synced target network.
Everything is numpy; there is no framework dependency. The per-step path
takes numpy's cheapest call for each operation, with the same bits: every
matrix product is an ndarray.dot call (`@`'s BLAS call, without np.dot's
__array_function__ dispatch), and every constant or hyperparameter operand
of an array ufunc is a 0-d float64 array, which numpy 2 (NEP 50) reads
without the conversion a Python float costs on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array."""
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


_ZERO, _ONE, _TWO = map(_constant, (0.0, 1.0, 2.0))


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class Hyperparams:
    """Q-learner settings, read from the config's `agent:` keys; runs use these defaults."""

    hidden_layers: list[int] = field(default_factory=lambda: [64, 64])
    learning_rate: float = 0.01
    gamma: float = 0.95
    target_update_freq: int = 100
    batch_size: int = 16
    buffer_capacity: int = 5000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.3  # of total training action steps
    # transitions required in the buffer before updates begin; dilutes the
    # rare terminal-penalty samples that otherwise dominate tiny early batches
    warmup: int = 1000
    # per-sample TD-error bound applied to the gradient only (the reported
    # loss stays unclipped): the plant's fixed failure penalty (-500) dwarfs
    # dense rewards and unbounded errors blow up plain SGD at the stock
    # learning rate; None disables clipping so divergence surfaces
    td_error_clip: float | None = 10.0

    def __post_init__(self):
        if not all(isinstance(h, int) and h >= 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers entries must be positive integers")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("batch_size must be >= 1 and <= buffer_capacity")
        if self.target_update_freq < 1:
            raise ValueError("target_update_freq must be >= 1")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if not (0.0 < self.epsilon_decay_fraction <= 1.0):
            raise ValueError(
                f"epsilon_decay_fraction must be in (0,1], got {self.epsilon_decay_fraction}"
            )
        if not (self.batch_size <= self.warmup <= self.buffer_capacity):
            # a warmup the buffer cannot hold would never start training
            raise ValueError("warmup must be >= batch_size and <= buffer_capacity")
        if self.td_error_clip is not None and self.td_error_clip <= 0:
            raise ValueError("td_error_clip must be positive when set")


class Transition(NamedTuple):
    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    done: bool


class MlpPolicy:
    """Fully connected Q-network: ReLU hidden layers, identity output.

    Every weight and bias is a view into one flat float64 vector, `params`
    (W0, b0, W1, b1, ...); `grad` holds train_step's gradient in that layout.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.params = np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])
        self.grad = np.empty_like(self.params)
        self.weights, self.biases, self.grad_weights, self.grad_biases = [], [], [], []
        end = 0
        for w in weights:  # (fan_in, fan_out) per layer
            start, mid, end = end, end + w.size, end + w.size + w.shape[1]
            self.weights.append(self.params[start:mid].reshape(w.shape))
            self.biases.append(self.params[mid:end])
            self.grad_weights.append(self.grad[start:mid].reshape(w.shape))
            self.grad_biases.append(self.grad[mid:end])
        self.hidden = list(zip(self.weights[:-1], self.biases[:-1]))  # the ReLU layers
        self.output = (self.weights[-1], self.biases[-1])  # the linear one

    @classmethod
    def initialize(cls, layer_sizes: Sequence[int], rng: np.random.Generator) -> "MlpPolicy":
        """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)), zero biases."""
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def copy(self) -> "MlpPolicy":
        return MlpPolicy(self.weights, self.biases)

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """Input and every layer's output, for one float64 observation or a batch of rows."""
        out = [x]
        for w, b in self.hidden:
            x = x.dot(w)
            x += b  # in place, as is the ReLU: with the 0-d zero, cheaper than allocating
            np.maximum(x, _ZERO, out=x)
            out.append(x)
        w, b = self.output
        out.append(x.dot(w) + b)
        return out

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Action values for one observation, or one row of values per batch row."""
        return self.activations(obs)[-1]


def select_action(policy: MlpPolicy, obs: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the policy's values for obs, drawn first: only exploiting runs the
    forward pass, and its ties go to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, policy.biases[-1].size))
    return int(policy.forward(obs).argmax())


class Batch(NamedTuple):
    """Sampled transitions, one row per sample in each field array."""

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_obs: np.ndarray
    dones: np.ndarray


class ReplayBuffer:
    """Bounded FIFO transition store with uniform seeded sampling; obs and next_obs
    share one array, and so do rewards and dones."""

    def __init__(self, capacity: int, width: int):
        self.capacity = capacity
        self._obs_pairs = np.empty((2, capacity, width))  # [0] obs, [1] next_obs
        self._actions = np.empty(capacity, np.intp)
        self._rewards_dones = np.empty((2, capacity))  # [0] reward, [1] done
        self.inserted = 0

    def __len__(self) -> int:
        return min(self.inserted, self.capacity)

    def add(self, obs: np.ndarray, action: int, reward: float, next_obs: np.ndarray, done: bool) -> None:
        i = self.inserted % self.capacity
        self._obs_pairs[0, i] = obs
        self._obs_pairs[1, i] = next_obs
        self._actions[i] = action
        self._rewards_dones[0, i] = reward
        self._rewards_dones[1, i] = done
        self.inserted += 1

    def _rows(self, idx: np.ndarray) -> Batch:
        # indexing the gathers costs less than unpacking them
        pairs, rewards_dones = self._obs_pairs.take(idx, axis=1), self._rewards_dones.take(idx, axis=1)
        return Batch(pairs[0], self._actions.take(idx), rewards_dones[0], pairs[1], rewards_dones[1])

    def items(self) -> list[Transition]:
        """Stored transitions in insertion order, oldest first."""
        rows = self._rows(np.arange(self.inserted - len(self), self.inserted) % self.capacity)
        return [Transition(o, int(a), float(r), n, bool(d)) for o, a, r, n, d in zip(*rows)]

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        return self._rows(rng.choice(len(self), size=batch_size, replace=False))


@functools.cache
def _operands(gamma: float, learning_rate: float, batch_size: int, td_error_clip: float | None) -> tuple:
    """train_step's operands for one set of values, built once and read-only, as every
    train_step shares them: np.arange(batch_size), then gamma, learning_rate, batch_size
    and the clip bounds (-td_error_clip, td_error_clip), or None without a clip, as 0-d
    float64 arrays. Hyperparams holds a list, so it cannot be the cache key."""
    rows = np.arange(batch_size)
    rows.flags.writeable = False
    clip = None if td_error_clip is None else (_constant(-td_error_clip), _constant(td_error_clip))
    return rows, _constant(gamma), _constant(learning_rate), _constant(batch_size), clip


def train_step(policy: MlpPolicy, target: MlpPolicy, batch: Batch, hp: Hyperparams) -> None:
    """One SGD update on the mean squared TD error over a batch of hp.batch_size samples.

    Only the taken action's value contributes per sample. Raises
    DivergenceError, before updating, if the loss is not finite. With
    td_error_clip set, each sample's error is bounded inside the gradient
    (the loss checked is still computed from the raw errors), which keeps
    rare large-penalty targets from destabilizing the update.
    """
    rows, gamma, rate, n, clip = _operands(hp.gamma, hp.learning_rate, hp.batch_size, hp.td_error_clip)
    next_q = target.forward(batch.next_obs)
    # bare ufunc reductions: the bits of .max() and .sum(), less overhead
    targets = batch.rewards + gamma * np.maximum.reduce(next_q, axis=1) * (_ONE - batch.dones)

    activations = policy.activations(batch.obs)  # kept for backprop
    q = activations[-1]
    err = q[rows, batch.actions] - targets
    loss = float(np.add.reduce(err * err) / hp.batch_size)  # np.mean's arithmetic
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite training loss: {loss}")

    if clip is not None:
        # two bare ufuncs cost less than a clip call and give its bits on finite errors
        err = np.minimum(np.maximum(err, clip[0]), clip[1])
    # d(loss)/d(q) is nonzero only at the taken actions
    delta = np.zeros(q.shape)
    delta[rows, batch.actions] = _TWO * err / n

    for i in range(len(policy.weights) - 1, -1, -1):
        activations[i].T.dot(delta, out=policy.grad_weights[i])
        np.add.reduce(delta, axis=0, out=policy.grad_biases[i])
        if i > 0:
            delta = delta.dot(policy.weights[i].T)
            delta = delta * (activations[i] > _ZERO)

    policy.grad *= rate
    policy.params -= policy.grad


def sync_target(policy: MlpPolicy, target: MlpPolicy) -> None:
    """Copy policy parameters into the target network exactly."""
    target.params[...] = policy.params


class DqnAgent:
    """Owns the policy, target, replay buffer, and training schedule."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hp: Hyperparams,
        epsilon_decay_steps: int,
        init_rng: np.random.Generator,
        explore_rng: np.random.Generator,
        replay_rng: np.random.Generator,
    ):
        self.hp = hp
        self.epsilon_decay_steps = epsilon_decay_steps
        self.policy = MlpPolicy.initialize(layer_sizes, init_rng)
        self.target = self.policy.copy()
        self.buffer = ReplayBuffer(hp.buffer_capacity, layer_sizes[0])
        self.explore_rng = explore_rng
        self.replay_rng = replay_rng
        self.train_steps = 0
        self.action_steps = 0

    def act(self, obs: np.ndarray, greedy: bool) -> int:
        epsilon = 0.0 if greedy else self.epsilon_at(self.action_steps)
        if not greedy:
            self.action_steps += 1
        return select_action(self.policy, obs, epsilon, self.explore_rng)

    def epsilon_at(self, step: int) -> float:
        """Linear schedule from epsilon_start to epsilon_end over epsilon_decay_steps."""
        frac = min(step / self.epsilon_decay_steps, 1.0)
        return self.hp.epsilon_start + (self.hp.epsilon_end - self.hp.epsilon_start) * frac

    def record(self, obs: np.ndarray, action: int, reward: float, next_obs: np.ndarray, done: bool) -> None:
        self.buffer.add(obs, action, reward, next_obs, done)

    def train(self) -> None:
        """Run one train step if the buffer is warm; sync the target every tau steps."""
        if len(self.buffer) < self.hp.warmup:
            return
        batch = self.buffer.sample(self.hp.batch_size, self.replay_rng)
        train_step(self.policy, self.target, batch, self.hp)
        self.train_steps += 1
        if self.train_steps % self.hp.target_update_freq == 0:
            sync_target(self.policy, self.target)
