"""Acceptance gate: one test per documented behavior guarantee.

Each criterion prints a single PASS/FAIL verdict line with its headline
numbers directly on the process stdout, so the verdicts stay visible under
pytest's capture. The two training criteria share one five-seed suite via a
module fixture; that fixture dominates this file's runtime (a few minutes).
"""

import dataclasses
import time
from collections import deque

import numpy as np
import pytest

import oracles
import test_allocator
import test_dqn
from edgeloop import allocator, traces
from edgeloop.config import load_config
from edgeloop.dqn import DqnAgent, ReplayBuffer, Transition
from edgeloop.experiment import run_experiment, run_seed


# verdict lines, echoed by the conftest terminal-summary hook after the run
VERDICTS: list[str] = []


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{name}]: {verdict} ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)


# -- 1: control loop latency --------------------------------------------------------


def test_criterion_1_loop_latency():
    t0 = time.monotonic()
    base = load_config(None)
    pid = dataclasses.replace(
        base, controller="pid", episodes=0, eval_episodes=2, max_steps=600
    )
    failures = []
    details = []
    for scenario, expected in (("cloud-only", 1500.0), ("edge-collab", 300.0)):
        cfg = dataclasses.replace(pid, scenario=scenario)
        records = run_seed(cfg, 1).records
        samples = sum(r.latency_samples for r in records)
        if samples < 1000:
            failures.append(f"{scenario}: only {samples} zero-jitter samples")
        for r in records:
            if r.mean_latency_ms != expected or r.p95_latency_ms != expected:
                failures.append(
                    f"{scenario}: {r.mean_latency_ms}/{r.p95_latency_ms} != {expected}"
                )
                break
        jittered = dataclasses.replace(
            cfg, latency=dataclasses.replace(cfg.latency, jitter=0.1)
        )
        jrecords = run_seed(jittered, 2).records
        total = sum(r.latency_samples for r in jrecords)
        mean = sum(r.mean_latency_ms * r.latency_samples for r in jrecords) / total
        details.append(f"{scenario} {expected:.0f}ms exact, jittered {mean:.1f} over {total}")
        if total < 1000:
            failures.append(f"{scenario}: only {total} jittered samples")
        if abs(mean - expected) > 0.05 * expected:
            failures.append(f"{scenario}: jittered mean {mean:.2f} beyond 5% of {expected}")
    elapsed = time.monotonic() - t0
    if elapsed > 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    ok = not failures
    report(1, "loop latency", ok, "; ".join(details + failures) + f"; {elapsed:.1f}s")
    assert ok, failures


# -- 2: allocation optimality -------------------------------------------------------


def test_criterion_2_allocation_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(20_000)
    failures = []
    worst_gap = 0.0
    for case in range(200):
        modules, resources, weights = test_allocator.random_instance(rng)
        plan = allocator.solve_exact(modules, resources, weights)
        score = test_allocator.score_matrix(modules, resources, weights)
        choice, objective = oracles.brute_force_assignment(modules, resources, score)
        want_x = tuple(
            tuple(1 if choice[j] == i else 0 for j in range(len(modules)))
            for i in range(len(resources))
        )
        if plan.x != want_x or plan.objective != objective:
            failures.append(f"case {case}: exact differs from brute force")
            continue
        if allocator.validate(plan, modules, resources):
            failures.append(f"case {case}: exact plan violates constraints")
            continue
        greedy = allocator.solve_greedy(modules, resources, weights)
        if allocator.validate(greedy, modules, resources):
            failures.append(f"case {case}: greedy plan violates constraints")
        elif greedy.objective > plan.objective + 1e-9:
            failures.append(f"case {case}: greedy beat the exact optimum")
        else:
            worst_gap = max(worst_gap, plan.objective - greedy.objective)
    elapsed = time.monotonic() - t0
    if elapsed > 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    ok = not failures
    report(
        2,
        "allocation optimality",
        ok,
        f"200 instances match brute force, worst greedy gap {worst_gap:.4f}; {elapsed:.1f}s"
        + ("; " + "; ".join(failures[:3]) if failures else ""),
    )
    assert ok, failures


# -- 3: gradient correctness --------------------------------------------------------


def test_criterion_3_training_gradients():
    t0 = time.monotonic()
    layer_sizes = [4, 8, 9]
    hp = test_dqn.small_hp(batch_size=8, warmup=8)
    worst = 0.0
    for draw in range(100):
        policy = test_dqn.random_policy(layer_sizes, 5000 + draw)
        target = test_dqn.random_policy(layer_sizes, 6000 + draw)
        batch = test_dqn.random_batch(layer_sizes, hp, 7000 + draw)
        analytic = test_dqn.recovered_gradient(policy, target, batch, hp)
        obs = np.array([t.obs for t in batch])
        actions = [t.action for t in batch]
        targets = test_dqn.fixed_targets(target, batch, hp.gamma)
        flat = oracles.pack_params(policy.weights, policy.biases)
        fd = oracles.fd_gradient(layer_sizes, flat, obs, actions, targets)
        denom = np.maximum(1e-4, np.maximum(np.abs(analytic), np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    elapsed = time.monotonic() - t0
    failures = []
    if worst >= 1e-4:
        failures.append(f"max relative gradient error {worst:.2e} >= 1e-4")
    if elapsed > 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    ok = not failures
    report(
        3,
        "training gradients",
        ok,
        f"100 draws, max relative error {worst:.2e}; {elapsed:.1f}s",
    )
    assert ok, failures


# -- 4 and 5: the shared five-seed training suite -------------------------------------


@pytest.fixture(scope="module")
def training_suite():
    cfg = load_config(None)
    t0 = time.monotonic()
    drl = run_experiment(cfg).results
    drl_s = time.monotonic() - t0
    pid_cfg = dataclasses.replace(cfg, controller="pid", episodes=0)
    pid = run_experiment(pid_cfg).results
    total_s = time.monotonic() - t0
    return {"cfg": cfg, "drl": drl, "pid": pid, "drl_s": drl_s, "total_s": total_s}


def test_criterion_4_training_improves_reward(training_suite):
    window = 50
    failures = []
    details = []
    for seed in sorted(training_suite["drl"]):
        result = training_suite["drl"][seed]
        if result.diverged:
            failures.append(f"seed {seed}: diverged")
            continue
        train = [r.cumulative_reward for r in result.records if r.phase == "train"]
        first = sum(train[:window]) / window
        last = sum(train[-window:]) / window
        details.append(f"seed {seed}: {first:.0f} -> {last:.1f}")
        if not last > first:
            failures.append(f"seed {seed}: last-{window} {last:.2f} <= first-{window} {first:.2f}")
    drl_s = training_suite["drl_s"]
    if drl_s > 600.0:
        failures.append(f"training took {drl_s:.0f}s, budget 600s")
    ok = not failures
    report(
        4,
        "training improves reward",
        ok,
        "; ".join(details) + f"; {drl_s:.0f}s" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok, failures


def test_criterion_5_learned_policy_beats_pid(training_suite):
    def eval_stats(results):
        rewards = []
        fails = 0
        for res in results.values():
            for r in res.records:
                if r.phase == "eval":
                    rewards.append(r.cumulative_reward)
                    fails += r.failure_count
        return sum(rewards) / len(rewards), fails

    drl_mean, drl_fails = eval_stats(training_suite["drl"])
    pid_mean, pid_fails = eval_stats(training_suite["pid"])
    failures = []
    if not drl_mean > pid_mean:
        failures.append(f"drl eval mean {drl_mean:.3f} <= pid {pid_mean:.3f}")
    if not drl_fails <= pid_fails:
        failures.append(f"drl eval failures {drl_fails} > pid {pid_fails}")
    total_s = training_suite["total_s"]
    if total_s > 900.0:
        failures.append(f"suite took {total_s:.0f}s, budget 900s")
    ok = not failures
    report(
        5,
        "learned policy vs pid",
        ok,
        f"eval reward drl {drl_mean:.2f} vs pid {pid_mean:.2f}; "
        f"failures {drl_fails} vs {pid_fails}; {total_s:.0f}s",
    )
    assert ok, failures


# -- 6: replay bound and target sync --------------------------------------------------


def test_criterion_6_replay_bound_and_target_sync():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(606)
    buf = ReplayBuffer(5000)
    mirror = deque(maxlen=5000)
    for i in range(20_000):
        t = Transition(
            np.array([float(i)]),
            int(rng.integers(0, 9)),
            float(rng.normal()),
            np.array([float(i) + 0.5]),
            bool(rng.random() < 0.05),
        )
        buf.add(t)
        mirror.append(t)
        if len(buf) > 5000:
            failures.append(f"buffer grew to {len(buf)} at insertion {i}")
            break
        if i % 1999 == 0 and buf.items() != list(mirror):
            failures.append(f"FIFO order diverged at insertion {i}")
            break
    if not failures:
        if len(buf) != 5000 or buf.inserted != 20_000:
            failures.append(f"final size {len(buf)}, inserted {buf.inserted}")
        if buf.items() != list(mirror):
            failures.append("final contents differ from the FIFO reference")

    hp = test_dqn.small_hp(batch_size=8, warmup=8, buffer_capacity=100, learning_rate=1e-4)
    agent = DqnAgent(
        [3, 8, 4],
        hp,
        epsilon_decay_steps=45000,
        init_rng=np.random.default_rng(1),
        explore_rng=np.random.default_rng(2),
        replay_rng=np.random.default_rng(3),
    )
    feed = np.random.default_rng(4)
    for _ in range(60):
        agent.record(
            Transition(
                feed.normal(size=3),
                int(feed.integers(0, 4)),
                float(feed.normal()),
                feed.normal(size=3),
                False,
            )
        )
    snapshot = test_dqn.policy_bytes(agent.target)
    syncs = 0
    for step in range(1, 301):
        agent.train()
        if step % hp.target_update_freq == 0:
            if test_dqn.policy_bytes(agent.target) != test_dqn.policy_bytes(agent.policy):
                failures.append(f"target != policy after sync step {step}")
                break
            snapshot = test_dqn.policy_bytes(agent.target)
            syncs += 1
        elif test_dqn.policy_bytes(agent.target) != snapshot:
            failures.append(f"target drifted between syncs at step {step}")
            break
    if not failures and syncs != 3:
        failures.append(f"expected 3 syncs in 300 steps, saw {syncs}")
    elapsed = time.monotonic() - t0
    if elapsed > 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    ok = not failures
    report(
        6,
        "replay bound and target sync",
        ok,
        f"20000 insertions FIFO-exact at cap 5000; {syncs} exact syncs; {elapsed:.1f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok, failures


# -- 7: run repeatability --------------------------------------------------------------


def test_criterion_7_identical_runs_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    base = load_config(None)
    cfg = dataclasses.replace(
        base,
        seeds=[9],
        episodes=3,
        eval_episodes=2,
        max_steps=30,
        agent=dataclasses.replace(base.agent, hidden_layers=[16], warmup=16),
        latency=dataclasses.replace(base.latency, jitter=0.1),
    )
    first = run_experiment(cfg, tmp_path / "a")
    second = run_experiment(cfg, tmp_path / "b")
    failures = []
    for seed in cfg.seeds:
        a_bytes = open(first.metrics_paths[seed], "rb").read()
        b_bytes = open(second.metrics_paths[seed], "rb").read()
        if a_bytes != b_bytes:
            failures.append(f"seed {seed}: metrics files differ")
        if not a_bytes:
            failures.append(f"seed {seed}: empty metrics file")
    if open(first.summary_path, "rb").read() != open(second.summary_path, "rb").read():
        failures.append("summary files differ")
    elapsed = time.monotonic() - t0
    if elapsed > 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    ok = not failures
    report(
        7,
        "run repeatability",
        ok,
        f"jittered drl run twice, metrics and summary byte-identical; {elapsed:.1f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok, failures


# -- 8: trace resampling ----------------------------------------------------------------


def test_criterion_8_trace_resampling(tmp_path):
    t0 = time.monotonic()
    path = tmp_path / "hour.csv"
    with open(path, "w") as f:
        f.write("timestamp,sensor_id,value,unit\n")
        for minute in range(60):
            f.write(f"{minute * 60},boiler-inlet,{90.0 + 0.1 * minute},C\n")
            f.write(f"{minute * 60},feed-flow,{400.0 + 0.5 * minute},kPa\n")
    rows = traces.read_trace(path)
    resampled = traces.resample(rows, 5)
    failures = []
    if len(resampled) != 12 * len(rows):
        failures.append(f"{len(resampled)} rows from {len(rows)}, expected 12x")
    for sensor in ("boiler-inlet", "feed-flow"):
        count = sum(1 for r in resampled if r.sensor_id == sensor)
        if count != 720:
            failures.append(f"{sensor}: {count} rows, expected 720")
    expected = oracles.repeat_expand(rows, 60, 5)
    got = [(r.timestamp, r.sensor_id, r.value, r.unit) for r in resampled]
    if got != expected:
        failures.append("resampled rows differ from the repeat-expansion reference")
    elapsed = time.monotonic() - t0
    if elapsed > 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    ok = not failures
    report(
        8,
        "trace resampling",
        ok,
        f"60-minute trace to 5s grid, {len(resampled)} rows (12x per sensor); {elapsed:.1f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok, failures
