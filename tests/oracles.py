"""Independent reference implementations the tests check the package against.

Everything here is written from the documented behavior alone, using plain
loops and stdlib/numpy primitives, so a test comparing package output to an
oracle is a genuine cross-check rather than the same code run twice.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from edgeloop.dqn import DivergenceError
from edgeloop.simcore import CONTROL_PERIOD_S


# -- feedforward network -------------------------------------------------------


def mlp_forward(layer_sizes, weights, biases, obs):
    """Hand-rolled forward pass: explicit per-neuron loops, ReLU hidden."""
    x = [float(v) for v in obs]
    n_layers = len(layer_sizes) - 1
    for layer in range(n_layers):
        w = weights[layer]
        b = biases[layer]
        out = []
        for j in range(layer_sizes[layer + 1]):
            acc = float(b[j])
            for i in range(layer_sizes[layer]):
                acc += float(x[i]) * float(w[i][j])
            out.append(acc)
        if layer < n_layers - 1:
            out = [v if v > 0.0 else 0.0 for v in out]
        x = out
    return np.array(x, dtype=np.float64)


def unpack_params(layer_sizes, flat):
    """Row-major W0, b0, W1, b1, ... layout from a flat vector."""
    weights, biases, pos = [], [], 0
    for a, b in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(np.asarray(flat[pos : pos + a * b]).reshape(a, b))
        pos += a * b
        biases.append(np.asarray(flat[pos : pos + b]))
        pos += b
    return weights, biases


def pack_params(weights, biases):
    flat = []
    for w, b in zip(weights, biases):
        flat.extend(np.asarray(w).reshape(-1).tolist())
        flat.extend(np.asarray(b).tolist())
    return np.array(flat, dtype=np.float64)


def layer_outputs(weights, biases, x):
    """The input and each layer's output, by one `x @ w + b` product per layer, ReLU hidden."""
    out = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = x @ w + b
        if i < len(weights) - 1:
            x = np.maximum(x, 0.0)
        out.append(x)
    return out


def batch_q_loss(layer_sizes, flat_params, obs_batch, actions, targets):
    """Mean squared TD error at fixed targets, for finite differencing."""
    weights, biases = unpack_params(layer_sizes, flat_params)
    total = 0.0
    for obs, action, target in zip(obs_batch, actions, targets):
        err = layer_outputs(weights, biases, np.asarray(obs, dtype=np.float64))[-1][action] - target
        total += err * err
    return total / len(obs_batch)


def fd_gradient(layer_sizes, flat_params, obs_batch, actions, targets, h=1e-5):
    """Central finite differences of batch_q_loss over every parameter."""
    grad = np.zeros_like(flat_params)
    for k in range(len(flat_params)):
        plus = flat_params.copy()
        plus[k] += h
        minus = flat_params.copy()
        minus[k] -= h
        grad[k] = (
            batch_q_loss(layer_sizes, plus, obs_batch, actions, targets)
            - batch_q_loss(layer_sizes, minus, obs_batch, actions, targets)
        ) / (2.0 * h)
    return grad


# -- boiler dynamics -----------------------------------------------------------


def boiler_step(cfg, state, cmd, noise=0.0, disturbance=0.0):
    """Straight-line recompute of the plant difference equations.

    Returns the next (inlet, outlet, level, pressure) tuple; pure math on
    the documented update equations, no shared code with the package.
    """
    dt = CONTROL_PERIOD_S
    outflow = cfg.valve_gain * cmd.valve_level * math.sqrt(
        max(state.pressure, 0.0) / cfg.pressure_setpoint_kpa
    )
    level = state.water_level + (cfg.pump_gain * cmd.pump_level - outflow) * dt
    level = min(max(level, 0.0), 1.0)

    p_target = (
        cfg.pressure_setpoint_kpa
        * (state.outlet_temp / cfg.outlet_setpoint_c)
        * (1.0 + cfg.pressure_valve_span * (0.5 - cmd.valve_level))
    )
    pressure = max(0.0, state.pressure + cfg.pressure_rate * (p_target - state.pressure) * dt)

    temp_target = state.inlet_temp + cfg.heat_gain_c - cfg.level_cooling_c * state.water_level
    outlet = state.outlet_temp + cfg.temp_rate * (temp_target - state.outlet_temp) * dt
    outlet = min(max(outlet, 0.0), 600.0)

    inlet = (
        state.inlet_temp
        + cfg.inlet_rate * (cfg.inlet_nominal_c - state.inlet_temp) * dt
        + noise
        + disturbance
    )
    inlet = min(max(inlet, 0.0), 600.0)
    return inlet, outlet, level, pressure


def state_cost(cfg, state):
    """The module docstring's cost: weighted squared setpoint deviations, each
    clamped at deviation_clamp, summed level, pressure, outlet."""
    terms = (
        (cfg.w_level, state.water_level, cfg.level_setpoint),
        (cfg.w_pressure, state.pressure, cfg.pressure_setpoint_kpa),
        (cfg.w_temp, state.outlet_temp, cfg.outlet_setpoint_c),
    )
    total = 0.0
    for weight, value, setpoint in terms:
        d = (value - setpoint) / setpoint
        total += weight * min(d * d, cfg.deviation_clamp)
    return total


def reward(cfg, state, cmd):
    """The module docstring's reward of cmd from state: minus its cost and the motion cost."""
    motion = (cmd.pump_level - state.pump_pos) ** 2 + (cmd.valve_level - state.valve_pos) ** 2
    return -(state_cost(cfg, state) + cfg.w_action * motion)


# -- PID loop ------------------------------------------------------------------


class PidState(NamedTuple):
    integral: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False


def pid_step(gains, state, setpoint, measurement):
    """One textbook PID update over one control period; returns (output, new state).

    The derivative term is zero on the first call, the integral is clamped to
    +-integral_limit and the output to [out_lo, out_hi], each by comparisons
    (min()/max()'s bits).
    """
    error = setpoint - measurement
    integral = state.integral + error * CONTROL_PERIOD_S
    lim = gains.integral_limit
    integral = -lim if integral < -lim else (lim if integral > lim else integral)
    derivative = 0.0 if not state.initialized else (error - state.prev_error) / CONTROL_PERIOD_S
    output = gains.kp * error + gains.ki * integral + gains.kd * derivative
    lo, hi = gains.out_lo, gains.out_hi
    output = lo if output < lo else (hi if output > hi else output)
    return output, PidState(integral, error, True)


# -- generalized assignment ----------------------------------------------------


def brute_force_assignment(modules, resources, score):
    """Exhaustive search over every (resource or unassigned) choice per module.

    score[i][j] is the affinity of module j on resource i. Returns the
    (choice list, objective) pair maximizing total affinity subject to
    headroom, ties broken by the lexicographically smallest row-major
    placement matrix.
    """
    n, m = len(resources), len(modules)
    headroom = [r.capacity - r.current_load for r in resources]
    best = None
    for choice in itertools.product(range(-1, n), repeat=m):
        used = [0.0] * n
        feasible = True
        for j, i in enumerate(choice):
            if i >= 0:
                used[i] += modules[j].load
                if used[i] > headroom[i] + 1e-9:
                    feasible = False
                    break
        if not feasible:
            continue
        total = 0.0
        for j, i in enumerate(choice):
            if i >= 0:
                total += score[i][j]
        key = tuple(1 if choice[j] == i else 0 for i in range(n) for j in range(m))
        candidate = (-total, key, list(choice))
        if best is None or candidate < best:
            best = candidate
    assert best is not None  # the all-unassigned choice is always feasible
    return best[2], -best[0]


def affinity_score(module, resource, weights, max_bandwidth):
    quality = (
        weights.bandwidth * resource.bandwidth_mbps / max_bandwidth
        + weights.cpu * resource.compute_rating
    )
    return quality * (1.0 + module.intensity)


# -- trace resampling ----------------------------------------------------------


def repeat_expand(rows, period_s, target_period_s):
    """Repeat each (timestamp, sensor, value, unit) row for one source period.

    Assumes a uniform source period per sensor; this is the simple model the
    resampler must reproduce on uniformly sampled traces.
    """
    out = []
    for timestamp, sensor_id, value, unit in rows:
        for k in range(period_s // target_period_s):
            out.append((timestamp + k * target_period_s, sensor_id, value, unit))
    out.sort(key=lambda r: (r[0], r[1]))
    return out


# -- series statistics ---------------------------------------------------------


def trailing_mean(values, window):
    """Moving average over at most the last `window` values, per position."""
    out = []
    for i in range(len(values)):
        lo = i - window + 1
        if lo < 0:
            lo = 0
        chunk = values[lo : i + 1]
        out.append(sum(chunk) / len(chunk))
    return out


# -- observations --------------------------------------------------------------


def observation_layout(cfg, current, history, window=10):
    """From-scratch observation: current features, then (features, reward) per
    past state, most recent first, for at most `window` entries, zero-padded.

    history is a list of (state, reward) pairs, oldest first.
    """

    def features(s):
        return [
            s.water_level - cfg.level_setpoint,
            (s.pressure - cfg.pressure_setpoint_kpa) / cfg.pressure_setpoint_kpa,
            (s.outlet_temp - cfg.outlet_setpoint_c) / cfg.outlet_setpoint_c,
            (s.inlet_temp - cfg.inlet_nominal_c) / cfg.inlet_nominal_c,
            s.pump_pos - 0.5,
            s.valve_pos - 0.5,
        ]

    out = features(current)
    recent = list(reversed(history))[:window]
    for past_state, past_reward in recent:
        out.extend(features(past_state))
        out.append(past_reward)
    out.extend([0.0] * (window - len(recent)) * 7)
    return np.array(out, dtype=np.float64)


# -- reference action ------------------------------------------------------------


def brute_force_oracle_action(cfg, state, gamma):
    """Reference action by full two-step enumeration: 9 actions x 9 follow-ups.

    The value of action a is its reward plus gamma times the best reward any
    of the 9 follow-up actions earns from the landed state, or minus the
    failure penalty when a fails; ties go to the lowest index. It checks the
    search, so it lands each command with the package's plant step; the
    rewards come from the docstring's equations (reward above).
    """
    from edgeloop import boiler

    levels = boiler.ACTUATOR_LEVELS
    grid = [boiler.ActuatorCommand(p, v) for p in levels for v in levels]
    values = []
    for cmd in grid:
        nxt, r, failed = boiler.step(cfg, state, cmd, state_cost(cfg, state), 0.0, 0.0)
        if failed:
            follow = -cfg.failure_penalty
        else:
            follow = max(reward(cfg, nxt, b) for b in grid)
        values.append(r + gamma * follow)
    return values.index(max(values))


# -- experience replay -----------------------------------------------------------


class FifoReplay:
    """Bounded FIFO of transitions in a plain list, addressed as a ring.

    Slot k holds the k-th insertion until the list is full; after that each
    insertion overwrites the oldest slot. Sampling draws slot indices with
    one rng.choice call without replacement.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.slots = []
        self.oldest = 0

    def add(self, transition):
        if len(self.slots) < self.capacity:
            self.slots.append(transition)
        else:
            self.slots[self.oldest] = transition
            self.oldest = (self.oldest + 1) % self.capacity

    def items(self):
        return self.slots[self.oldest :] + self.slots[: self.oldest]

    def sample(self, batch_size, rng):
        idx = rng.choice(len(self.slots), size=batch_size, replace=False)
        return [self.slots[i] for i in idx]


# -- per-layer DQN update ------------------------------------------------------
# train_step and sync_target written per layer: their own `@` forward pass, one
# gradient array and one in-place update per weight or bias array. edgeloop.dqn
# updates one flat parameter vector instead, and must give the same bits.


def train_step(policy: MlpPolicy, target: MlpPolicy, batch: Batch, hp: Hyperparams) -> None:
    """One SGD update on the mean squared TD error over a batch of hp.batch_size samples.

    Only the taken action's value contributes per sample. Raises
    DivergenceError, before updating, if the loss is not finite. With
    td_error_clip set, each sample's error is bounded inside the gradient
    (the loss checked is still computed from the raw errors), which keeps
    rare large-penalty targets from destabilizing the update.
    """
    next_q = layer_outputs(target.weights, target.biases, batch.next_obs)[-1]
    targets = batch.rewards + hp.gamma * next_q.max(axis=1) * (1.0 - batch.dones)

    activations = layer_outputs(policy.weights, policy.biases, batch.obs)  # kept for backprop
    q = activations[-1]
    batch_idx = np.arange(hp.batch_size)
    err = q[batch_idx, batch.actions] - targets
    loss = float((err * err).sum() / hp.batch_size)  # np.mean's arithmetic, less overhead
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite training loss: {loss}")

    # d(loss)/d(q) is nonzero only at the taken actions
    grad_err = err
    if hp.td_error_clip is not None:
        # two bare ufuncs cost less than a clip call and give its bits on finite errors
        grad_err = np.minimum(np.maximum(err, -hp.td_error_clip), hp.td_error_clip)
    grad_out = np.zeros(q.shape)
    grad_out[batch_idx, batch.actions] = 2.0 * grad_err / hp.batch_size

    grads_w = [None] * len(policy.weights)
    grads_b = [None] * len(policy.biases)
    delta = grad_out
    for i in range(len(policy.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ policy.weights[i].T
            delta = delta * (activations[i] > 0.0)

    for w, b, gw, gb in zip(policy.weights, policy.biases, grads_w, grads_b):
        w -= hp.learning_rate * gw
        b -= hp.learning_rate * gb


def sync_target(policy: MlpPolicy, target: MlpPolicy) -> None:
    """Copy policy parameters into the target network exactly."""
    for tw, w in zip(target.weights, policy.weights):
        tw[...] = w
    for tb, b in zip(target.biases, policy.biases):
        tb[...] = b
