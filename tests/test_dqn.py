import collections
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgeloop.dqn import (
    Batch,
    DivergenceError,
    DqnAgent,
    Hyperparams,
    MlpPolicy,
    ReplayBuffer,
    Transition,
    select_action,
    sync_target,
    train_step,
)

import oracles


def policy_bytes(policy):
    return b"".join(w.tobytes() for w in policy.weights) + b"".join(
        b.tobytes() for b in policy.biases
    )


def random_policy(layer_sizes, seed):
    return MlpPolicy.initialize(layer_sizes, np.random.default_rng(seed))


def zero_policy(layer_sizes):
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    return MlpPolicy([np.zeros(pair) for pair in pairs], [np.zeros(b) for _, b in pairs])


def valued(values):
    """A policy whose action values are `values` for every observation, and an observation."""
    values = np.asarray(values, dtype=np.float64)
    return MlpPolicy([np.zeros((1, len(values)))], [values]), np.zeros(1)


def random_batch(layer_sizes, hp, seed, reward_scale=1.0, all_done=False):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(hp.batch_size):
        batch.append(
            Transition(
                obs=rng.normal(size=layer_sizes[0]),
                action=int(rng.integers(0, layer_sizes[-1])),
                reward=float(rng.normal()) * reward_scale,
                next_obs=rng.normal(size=layer_sizes[0]),
                done=all_done or bool(rng.random() < 0.1),
            )
        )
    return batch


def as_batch(transitions):
    """The sampled-batch arrays train_step takes, stacked from transitions."""
    return Batch(
        obs=np.stack([t.obs for t in transitions]),
        actions=np.array([t.action for t in transitions], dtype=np.intp),
        rewards=np.array([t.reward for t in transitions], dtype=np.float64),
        next_obs=np.stack([t.next_obs for t in transitions]),
        dones=np.array([t.done for t in transitions], dtype=np.float64),
    )


# -- forward pass ---------------------------------------------------------------------


def test_forward_all_zero_parameters_gives_zero_values():
    policy = zero_policy([5, 4, 3])
    np.testing.assert_array_equal(policy.forward(np.ones(5)), np.zeros(3))


def test_forward_identity_single_layer_passes_input_through():
    policy = MlpPolicy(weights=[np.eye(4)], biases=[np.zeros(4)])
    x = np.array([0.3, -1.2, 0.0, 2.5])
    np.testing.assert_array_equal(policy.forward(x), x)


def test_forward_matches_hand_rolled_network():
    layer_sizes = [6, 5, 4, 3]
    policy = random_policy(layer_sizes, 17)
    rng = np.random.default_rng(23)
    for _ in range(50):
        obs = rng.normal(size=6)
        want = oracles.mlp_forward(layer_sizes, policy.weights, policy.biases, obs)
        np.testing.assert_allclose(policy.forward(obs), want, atol=1e-12)


@pytest.mark.parametrize("hidden", [[64, 64], [1]])
def test_forward_has_the_bytes_of_a_product_loop(hidden):
    layer_sizes = [76, *hidden, 9]
    policy = random_policy(layer_sizes, 41)
    rng = np.random.default_rng(43)
    for obs in (rng.normal(size=76), rng.normal(size=(1, 76)), rng.normal(size=(16, 76))):
        want = oracles.layer_outputs(policy.weights, policy.biases, obs)[-1]
        got = policy.forward(obs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_forward_batch_matches_per_row_forward():
    policy = random_policy([4, 8, 9], 3)
    obs = np.random.default_rng(5).normal(size=(7, 4))
    batch = policy.forward(obs)
    assert batch.shape == (7, 9)
    for row in range(7):
        np.testing.assert_allclose(batch[row], policy.forward(obs[row]), atol=1e-12)


def test_initialize_respects_bound_and_seed():
    sizes = [10, 20, 5]
    a = random_policy(sizes, 99)
    b = random_policy(sizes, 99)
    for wa, wb, (fan_in, fan_out) in zip(a.weights, b.weights, zip(sizes[:-1], sizes[1:])):
        np.testing.assert_array_equal(wa, wb)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(wa).max() <= bound
    for ba in a.biases:
        np.testing.assert_array_equal(ba, 0.0)


# -- action selection ---------------------------------------------------------------------


def test_greedy_selection_is_argmax_and_draws_nothing():
    rng = np.random.default_rng(0)
    twin = np.random.default_rng(0)
    assert select_action(*valued([0.1, 2.0, -1.0]), 0.0, rng) == 1
    assert rng.random() == twin.random()  # no stream consumed at epsilon 0


def test_greedy_ties_go_to_lowest_index():
    assert select_action(*valued([1.0, 3.0, 3.0]), 0.0, np.random.default_rng(0)) == 1
    assert select_action(*valued([2.0, 2.0, 2.0]), 0.0, np.random.default_rng(0)) == 0


def test_exploring_runs_no_forward_pass(monkeypatch):
    policy, obs = valued([0.0, 1.0, 0.0])
    calls = []
    forward = policy.forward
    monkeypatch.setattr(policy, "forward", lambda x: calls.append(x) or forward(x))
    rng = np.random.default_rng(3)
    twin = np.random.default_rng(3)
    for _ in range(20):
        twin.random()  # the exploration draw, always under epsilon 1
        assert select_action(policy, obs, 1.0, rng) == int(twin.integers(0, 3))
    assert calls == []
    assert select_action(policy, obs, 0.0, rng) == 1
    assert len(calls) == 1


def test_full_exploration_is_uniform():
    n, draws = 9, 100_000
    rng = np.random.default_rng(1234)
    policy, obs = valued(np.linspace(0.0, 1.0, n))  # argmax would always pick the last
    counts = collections.Counter(
        select_action(policy, obs, 1.0, rng) for _ in range(draws)
    )
    expected = draws / n
    sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
    for action in range(n):
        assert abs(counts[action] - expected) < 3 * sigma, counts
    chi2 = sum((counts[a] - expected) ** 2 / expected for a in range(n))
    # df = 8; mean 8, sd 4 -> 3 sigma ceiling
    assert chi2 < 8 + 3 * 4


# -- replay buffer -----------------------------------------------------------------------


def make_transition(tag: float, dim: int = 1) -> Transition:
    return Transition(np.full(dim, tag), 0, tag, np.full(dim, tag), False)


def test_buffer_is_bounded_fifo():
    buf = ReplayBuffer(capacity=7, width=1)
    mirror = collections.deque(maxlen=7)
    rng = np.random.default_rng(8)
    for k in range(100):
        # randomized interleaving: sometimes several inserts per round
        for _ in range(int(rng.integers(1, 4))):
            t = make_transition(float(k + rng.random()))
            buf.add(*t)
            mirror.append(t)
            assert len(buf) <= 7
    assert buf.items() == list(mirror)
    assert buf.inserted >= 100


def test_buffer_sampling_is_seeded_and_without_replacement():
    buf = ReplayBuffer(capacity=50, width=1)
    for k in range(50):
        buf.add(*make_transition(float(k)))
    a = buf.sample(10, np.random.default_rng(77))
    b = buf.sample(10, np.random.default_rng(77))
    assert a.rewards.tolist() == b.rewards.tolist()
    assert len(set(a.rewards.tolist())) == 10


def transition_key(t):
    return (t.obs.tobytes(), t.action, t.reward, t.next_obs.tobytes(), t.done)


def test_buffer_matches_list_fifo_reference_after_wraparound():
    buf = ReplayBuffer(capacity=7, width=3)
    ref = oracles.FifoReplay(7)
    feed = np.random.default_rng(41)
    for k in range(40):
        t = Transition(feed.normal(size=3), int(feed.integers(0, 9)), float(feed.normal()),
                       feed.normal(size=3), bool(feed.random() < 0.3))
        buf.add(*t)
        ref.add(t)
        assert len(buf) == len(ref.slots)
        assert [transition_key(x) for x in buf.items()] == [transition_key(x) for x in ref.items()]
        if len(buf) < 4:
            continue
        got = buf.sample(4, np.random.default_rng(k))
        want = as_batch(ref.sample(4, np.random.default_rng(k)))
        for field in Batch._fields:
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, field)


# -- training step ------------------------------------------------------------------------


def small_hp(**overrides):
    defaults = dict(
        learning_rate=0.01,
        gamma=0.95,
        target_update_freq=100,
        batch_size=16,
        buffer_capacity=5000,
        warmup=16,
        td_error_clip=None,
    )
    defaults.update(overrides)
    return Hyperparams(**defaults)


def test_train_step_zero_error_leaves_parameters_unchanged():
    # zero net, zero rewards: predictions and targets are both exactly zero
    hp = small_hp()
    policy = zero_policy([4, 8, 9])
    target = policy.copy()
    batch = [
        Transition(np.ones(4) * k, k % 9, 0.0, np.ones(4), False)
        for k in range(hp.batch_size)
    ]
    before = policy_bytes(policy)
    assert batch_loss(policy, target, batch, hp) == 0.0
    train_step(policy, target, as_batch(batch), hp)
    assert policy_bytes(policy) == before


def recovered_gradient(policy, target, batch, hp):
    """Analytic gradient extracted from one update: (before - after) / lr."""
    probe = policy.copy()
    before = oracles.pack_params(probe.weights, probe.biases)
    train_step(probe, target, as_batch(batch), hp)
    after = oracles.pack_params(probe.weights, probe.biases)
    return (before - after) / hp.learning_rate


def fixed_targets(target, batch, gamma):
    out = []
    for t in batch:
        next_q = target.forward(t.next_obs)
        out.append(t.reward if t.done else t.reward + gamma * float(np.max(next_q)))
    return out


def batch_loss(policy, target, batch, hp):
    """The mean squared TD error train_step descends, at the policy's present parameters."""
    layer_sizes = [w.shape[0] for w in policy.weights] + [policy.weights[-1].shape[1]]
    return oracles.batch_q_loss(
        layer_sizes,
        oracles.pack_params(policy.weights, policy.biases),
        [t.obs for t in batch],
        [t.action for t in batch],
        fixed_targets(target, batch, hp.gamma),
    )


def test_train_step_gradient_matches_finite_differences():
    layer_sizes = [4, 8, 9]
    hp = small_hp()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for draw in range(20):
        policy = random_policy(layer_sizes, int(rng.integers(1, 10_000)))
        target = random_policy(layer_sizes, int(rng.integers(1, 10_000)))
        batch = random_batch(layer_sizes, hp, int(rng.integers(1, 10_000)))
        analytic = recovered_gradient(policy, target, batch, hp)
        flat = oracles.pack_params(policy.weights, policy.biases)
        targets = fixed_targets(target, batch, hp.gamma)
        fd = oracles.fd_gradient(
            layer_sizes, flat, [t.obs for t in batch], [t.action for t in batch], targets
        )
        rel = np.abs(analytic - fd) / np.maximum(
            1e-4, np.maximum(np.abs(analytic), np.abs(fd))
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"max relative gradient error {worst}"


def test_repeated_steps_on_fixed_batch_reduce_loss():
    layer_sizes = [4, 8, 9]
    hp = small_hp(learning_rate=1e-3)
    policy = random_policy(layer_sizes, 5)
    target = random_policy(layer_sizes, 6)
    batch = random_batch(layer_sizes, hp, 7)
    first = batch_loss(policy, target, batch, hp)
    for _ in range(100):
        train_step(policy, target, as_batch(batch), hp)
    assert batch_loss(policy, target, batch, hp) < first


def test_unclipped_training_surfaces_divergence():
    # a huge learning rate against far targets must error, not silently clip
    layer_sizes = [2, 8, 2]
    hp = small_hp(learning_rate=1e3, td_error_clip=None)
    policy = random_policy(layer_sizes, 11)
    target = policy.copy()
    batch = as_batch(random_batch(layer_sizes, hp, 12, reward_scale=1e6, all_done=True))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            for _ in range(200):
                train_step(policy, target, batch, hp)


def test_clip_bounds_the_gradient_not_the_loss():
    layer_sizes = [3, 6, 4]
    clip = 2.0
    hp_clip = small_hp(td_error_clip=clip)
    hp_raw = small_hp(td_error_clip=None)
    base = random_policy(layer_sizes, 21)
    target = random_policy(layer_sizes, 22)
    batch = random_batch(layer_sizes, hp_clip, 23, reward_scale=100.0, all_done=True)

    clipped = base.copy()
    train_step(clipped, target, as_batch(batch), hp_clip)
    # the divergence check reads the raw loss: an error whose square
    # overflows stops training even though the clip bounds its gradient
    overflowing = [t._replace(reward=1e200) for t in batch]
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        train_step(base.copy(), target, as_batch(overflowing), hp_clip)

    # moving each target to within the clip of the prediction reproduces the
    # clipped update exactly on an all-terminal batch
    q0 = base.forward(np.stack([t.obs for t in batch]))
    adjusted = []
    for row, t in enumerate(batch):
        err = q0[row, t.action] - t.reward
        err = float(np.clip(err, -clip, clip))
        adjusted.append(
            Transition(t.obs, t.action, q0[row, t.action] - err, t.next_obs, True)
        )
    equivalent = base.copy()
    train_step(equivalent, target, as_batch(adjusted), hp_raw)
    # target reconstruction costs an ulp per sample, so compare tightly, not bitwise
    got = oracles.pack_params(clipped.weights, clipped.biases)
    want = oracles.pack_params(equivalent.weights, equivalent.biases)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_small_errors_make_clip_a_no_op():
    layer_sizes = [3, 6, 4]
    base = random_policy(layer_sizes, 31)
    target = base.copy()
    batch = as_batch(random_batch(layer_sizes, small_hp(), 32, reward_scale=0.01))
    a = base.copy()
    train_step(a, target, batch, small_hp(td_error_clip=50.0))
    b = base.copy()
    train_step(b, target, batch, small_hp(td_error_clip=None))
    assert policy_bytes(a) == policy_bytes(b)


def test_default_network_weights_after_2000_updates_on_a_wrapped_buffer_are_pinned():
    # the stock 76-64-64-9 network, clip on, and a 5000-slot buffer that keeps
    # wrapping while it trains: the golden runs cover neither, so this pins
    # the learner's bytes across a refactor of replay or train_step
    hp = Hyperparams(td_error_clip=10.0)
    agent = DqnAgent(
        [76, 64, 64, 9],
        hp,
        epsilon_decay_steps=45000,
        init_rng=np.random.default_rng(71),
        explore_rng=np.random.default_rng(72),
        replay_rng=np.random.default_rng(73),
    )
    feed = np.random.default_rng(74)

    def record():
        failed = bool(feed.random() < 0.02)
        reward = -500.0 if failed else -float(feed.exponential(0.5))
        agent.record(feed.normal(size=76), int(feed.integers(0, 9)), reward,
                     feed.normal(size=76), failed)

    for _ in range(hp.buffer_capacity):
        record()
    for _ in range(2000):
        record()
        agent.train()
    assert agent.train_steps == 2000
    assert agent.buffer.inserted == 7000 and len(agent.buffer) == 5000
    digest = hashlib.sha256(policy_bytes(agent.policy) + policy_bytes(agent.target)).hexdigest()
    assert digest == "1d725effff7009138c5540a1262f9198373b13cac43a72797a12ea7288991707"


# -- target synchronization --------------------------------------------------------------


def test_sync_copies_exactly():
    policy = random_policy([4, 8, 9], 1)
    target = zero_policy([4, 8, 9])
    sync_target(policy, target)
    assert policy_bytes(target) == policy_bytes(policy)


def test_agent_syncs_on_schedule_and_target_is_bit_stable_between():
    hp = small_hp(batch_size=8, warmup=8, buffer_capacity=100, learning_rate=1e-4)
    agent = DqnAgent(
        [3, 8, 4],
        hp,
        epsilon_decay_steps=45000,
        init_rng=np.random.default_rng(1),
        explore_rng=np.random.default_rng(2),
        replay_rng=np.random.default_rng(3),
    )
    rng = np.random.default_rng(4)
    for _ in range(60):
        agent.record(rng.normal(size=3), int(rng.integers(0, 4)), float(rng.normal()),
                     rng.normal(size=3), False)
    snapshot = policy_bytes(agent.target)
    for step in range(1, 301):
        agent.train()
        assert agent.train_steps == step
        if step % hp.target_update_freq == 0:
            assert policy_bytes(agent.target) == policy_bytes(agent.policy)
            snapshot = policy_bytes(agent.target)
        else:
            assert policy_bytes(agent.target) == snapshot


# -- hyperparameters and agent -------------------------------------------------------------


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        small_hp(gamma=1.0)
    with pytest.raises(ValueError):
        small_hp(learning_rate=0.0)
    with pytest.raises(ValueError):
        small_hp(batch_size=0)
    with pytest.raises(ValueError):
        small_hp(batch_size=32, buffer_capacity=16)
    with pytest.raises(ValueError):
        small_hp(warmup=4)  # below batch size
    with pytest.raises(ValueError, match="warmup"):
        small_hp(buffer_capacity=500, warmup=1000)  # the buffer never fills that far
    with pytest.raises(ValueError):
        small_hp(td_error_clip=0.0)
    with pytest.raises(ValueError):
        small_hp(target_update_freq=0)


def test_hyperparams_rejects_out_of_range_epsilons():
    # caught at construction, not at the first exploring act()
    with pytest.raises(ValueError, match="epsilon_start"):
        small_hp(epsilon_start=1.5)
    with pytest.raises(ValueError, match="epsilon_end"):
        small_hp(epsilon_end=-0.2)
    small_hp(epsilon_start=0.0, epsilon_end=1.0)


def test_epsilon_schedule_is_linear():
    agent = DqnAgent(
        [2, 4, 3],
        small_hp(epsilon_start=1.0, epsilon_end=0.05),
        epsilon_decay_steps=1000,
        init_rng=np.random.default_rng(1),
        explore_rng=np.random.default_rng(2),
        replay_rng=np.random.default_rng(3),
    )
    assert agent.epsilon_at(0) == 1.0
    assert agent.epsilon_at(500) == pytest.approx(0.525)
    assert agent.epsilon_at(1000) == pytest.approx(0.05)
    assert agent.epsilon_at(5000) == pytest.approx(0.05)


def test_agent_waits_for_warmup_before_training():
    hp = small_hp(batch_size=4, warmup=10, buffer_capacity=50)
    agent = DqnAgent(
        [2, 4, 3],
        hp,
        epsilon_decay_steps=45000,
        init_rng=np.random.default_rng(1),
        explore_rng=np.random.default_rng(2),
        replay_rng=np.random.default_rng(3),
    )
    for k in range(9):
        agent.record(*make_transition(float(k), dim=2))
        agent.train()
        assert agent.train_steps == 0
    agent.record(*make_transition(9.0, dim=2))
    agent.train()
    assert agent.train_steps == 1


def test_agent_greedy_act_does_not_advance_the_schedule():
    agent = DqnAgent(
        [2, 4, 3],
        small_hp(),
        epsilon_decay_steps=10,
        init_rng=np.random.default_rng(1),
        explore_rng=np.random.default_rng(2),
        replay_rng=np.random.default_rng(3),
    )
    obs = np.zeros(2)
    agent.act(obs, greedy=True)
    assert agent.action_steps == 0
    agent.act(obs, greedy=False)
    assert agent.action_steps == 1


@pytest.mark.parametrize("hidden", [[], [8], [64, 64], [5, 7, 3], [1]])
@pytest.mark.parametrize("batch_size", [1, 16, 17])
@pytest.mark.parametrize("clip", [None, 10.0])
def test_flat_parameter_updates_match_the_per_layer_reference(hidden, batch_size, clip):
    layer_sizes = [6, *hidden, 4]
    hp = small_hp(batch_size=batch_size, warmup=batch_size, td_error_clip=clip, learning_rate=1e-3)
    policy = random_policy(layer_sizes, 81)
    target = policy.copy()
    initial = policy_bytes(target)
    # the layers tile the one parameter vector, W0, b0, W1, b1, ...; a copy owns its own
    assert all(np.shares_memory(a, policy.params) for a in policy.weights + policy.biases)
    assert policy.params.tobytes() == b"".join(
        a.tobytes() for layer in zip(policy.weights, policy.biases) for a in layer
    )
    assert not any(np.shares_memory(a, policy.params) for a in [target.params, *target.weights, *target.biases])

    ref_policy, ref_target = policy.copy(), target.copy()
    for step in range(50):
        # large rewards push some errors past the clip
        batch = as_batch(random_batch(layer_sizes, hp, 1000 + step, reward_scale=20.0))
        train_step(policy, target, batch, hp)
        oracles.train_step(ref_policy, ref_target, batch, hp)
        if step == 24:
            sync_target(policy, target)
            oracles.sync_target(ref_policy, ref_target)
    assert policy_bytes(target) == policy_bytes(ref_target) != initial  # the sync moved both targets
    assert policy_bytes(policy) == policy_bytes(ref_policy)


def test_interleaved_learners_each_update_with_their_own_hyperparameters():
    # train_step builds its operands once per hyperparameter set: two learners
    # trained turn about in one process must each keep the bytes of their own
    # history replayed through the reference update
    layer_sizes = [76, 64, 64, 9]
    settings = [Hyperparams(), Hyperparams(gamma=0.5, learning_rate=0.003, batch_size=7, td_error_clip=None)]
    learners = []
    for k, hp in enumerate(settings):
        agent = DqnAgent(layer_sizes, hp, epsilon_decay_steps=45000, init_rng=np.random.default_rng(k),
                         explore_rng=np.random.default_rng(10 + k), replay_rng=np.random.default_rng(20 + k))
        reference = (agent.policy.copy(), agent.target.copy(), oracles.FifoReplay(hp.buffer_capacity),
                     np.random.default_rng(20 + k))
        learners.append((hp, agent, reference, np.random.default_rng(30 + k)))
    while any(agent.train_steps < 50 for _, agent, _, _ in learners):
        for hp, agent, (ref_policy, ref_target, ref_replay, ref_rng), feed in learners:
            # rewards this large push some of the clipped learner's errors past its clip
            t = Transition(feed.normal(size=76), int(feed.integers(0, 9)), 20.0 * float(feed.normal()),
                           feed.normal(size=76), bool(feed.random() < 0.1))
            agent.record(*t)
            agent.train()
            ref_replay.add(t)
            if len(ref_replay.slots) >= hp.warmup:
                batch = as_batch(ref_replay.sample(hp.batch_size, ref_rng))
                oracles.train_step(ref_policy, ref_target, batch, hp)
    for hp, agent, (ref_policy, ref_target, _, _), _ in learners:
        assert agent.train_steps == 50 < hp.target_update_freq  # no sync: the targets stay at the start
        assert policy_bytes(agent.target) == policy_bytes(ref_target)
        assert policy_bytes(agent.policy) == policy_bytes(ref_policy) != policy_bytes(ref_target)


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_products_keep_the_reference_bytes_under_a_forced_blas_core(core):
    # numpy's OpenBLAS picks its kernels by CPU when it loads, and
    # OPENBLAS_CORETYPE forces one: the forward pass and every update must
    # still give the `@` reference's bytes under it
    here = Path(__file__).resolve()
    src = str(here.parent.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": core,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    checks = [
        f"{here}::test_forward_has_the_bytes_of_a_product_loop",
        f"{here}::test_flat_parameter_updates_match_the_per_layer_reference",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *checks],
        env=env, cwd=here.parent.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]  # 5 if nothing ran
