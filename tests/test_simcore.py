import math

import numpy as np
import pytest

from edgeloop import simcore
from edgeloop.config import ConfigError, config_from_dict
from edgeloop.simcore import Kernel, delay_range


def star_topology(n_edges=2, jitter=0.0):
    """Delay ranges of a cloud (0), edges 1..n and a sensor attached to edge 1."""
    sensor = n_edges + 1
    delays = {(sensor, 0): 700, (0, sensor): 700, (sensor, 1): 100, (1, sensor): 100}
    for i in range(1, n_edges + 1):
        delays[i, 0] = 600
        delays[0, i] = 600
        for j in range(1, n_edges + 1):
            if i != j:
                delays[i, j] = 100
    return {pair: delay_range(base_ms, jitter) for pair, base_ms in delays.items()}, sensor


# -- links ------------------------------------------------------------------------


def test_link_delay_bounds_are_rounded_inward():
    assert delay_range(700, 0.1) == (630, 770)
    assert delay_range(33, 0.1) == (30, 36)  # ceil(29.7), floor(36.3)
    assert delay_range(250, 0.0) == (250, 250)
    for base_ms, jitter in ((700, 0.1), (33, 0.1), (1, 0.99), (5000, 0.37), (250, 0.0)):
        low, high = delay_range(base_ms, jitter)
        assert low == math.ceil(base_ms * (1.0 - jitter))
        assert high == math.floor(base_ms * (1.0 + jitter))
        assert type(low) is int and type(high) is int


def delays(link, n, rng):
    """Link delays of n sends, in send order, over the single link 0 -> 1 whose
    closed delay range is `link`; every send leaves at clock 0."""
    delivered = []
    kernel = Kernel({(0, 1): link}, lambda node, body: delivered.append((body, kernel.clock)), rng)
    for index in range(n):
        kernel.send(0, 1, index)
    kernel.run()
    return [time for _, time in sorted(delivered)]


def test_link_sample_zero_jitter_is_exact_and_needs_no_rng():
    assert delays((250, 250), 3, None) == [250, 250, 250]


def test_single_delay_jittered_link_takes_no_word():
    # jitter 0.3 of a 1 ms base leaves 1 ms as the only delay, as numpy's integers(1, 2) would
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert delays(delay_range(1, 0.3), 5, rng) == [1] * 5
    assert rng.bit_generator.state == before


def test_link_sample_stays_in_bounds():
    draws = set(delays(delay_range(100, 0.1), 2000, np.random.default_rng(5)))
    assert min(draws) >= 90
    assert max(draws) <= 110
    assert {90, 110} <= draws  # the closed range is actually reachable


@pytest.mark.parametrize("span", [1, 2, 3, 21, 141, 301, 2**31 + 1, 2**32 - 1, 2**32])
def test_kernel_delays_equal_scalar_generator_integers(monkeypatch, span):
    # the metrics bytes rest on this: if a numpy release changes its
    # bounded-integer algorithm (NEP 19 allows it), this fails first; a
    # 7-word chunk makes 500 draws cross many refills, and 2**31 + 1 rejects
    # about half its words
    monkeypatch.setattr(simcore, "CHUNK", 7)
    low = 3
    for seed in range(5):
        reference = np.random.default_rng(seed)
        expected = [int(reference.integers(low, low + span)) for _ in range(500)]
        assert delays((low, low + span - 1), 500, np.random.default_rng(seed)) == expected, (span, seed)


# delay_range states its precondition and trusts it; the run config enforces it on every leg


def test_link_rejects_delay_ranges_past_32_bit_words():
    # at the longest delay the config accepts and the widest jitter, a
    # range still holds fewer than 2**32 values, which the kernel's words cover
    with pytest.raises(ConfigError, match="latency: cloud_uplink_ms must be >= 1 ms and < 2\\*\\*31 ms"):
        config_from_dict({"latency": {"cloud_uplink_ms": 2**31}})
    jitter = math.nextafter(1.0, 0.0)
    latency = config_from_dict({"latency": {"jitter": jitter, "cloud_uplink_ms": 2**31 - 1}}).latency
    low, high = delay_range(latency.cloud_uplink_ms, latency.jitter)
    assert high - low + 1 < 2**32


def test_link_validation():
    for key, value in (("inter_edge_ms", 0), ("edge_downlink_ms", -5)):
        with pytest.raises(ConfigError, match=f"latency: {key} must be >= 1 ms"):
            config_from_dict({"latency": {key: value}})
    for jitter in (-0.1, 1.0):
        with pytest.raises(ConfigError, match="latency: jitter must be in"):
            config_from_dict({"latency": {"jitter": jitter}})


# -- scheduling and ordering ----------------------------------------------------------


def test_simultaneous_events_dispatch_in_scheduling_order():
    # dicts do not order: a tie on time must never compare bodies
    for bodies in (["first", "second", "third"], [{"step": 2}, {"step": 1}, {}, {"step": 3}]):
        links, sensor = star_topology()
        seen = []
        kernel = Kernel(links, lambda node, body: seen.append(body), None)
        kernel.schedule(60, sensor, bodies[0])
        for body in bodies:
            kernel.schedule(50, sensor, body)
        kernel.run()
        assert seen == [*bodies, bodies[0]]


def test_send_timing_is_departure_plus_link_delay():
    links, sensor = star_topology()
    dispatched = []
    arrivals = []

    def handler(node, body):
        dispatched.append((node, body))
        if node == sensor:
            kernel.send(sensor, 0, None, depart_delay_ms=100)
        else:
            arrivals.append(kernel.clock)

    kernel = Kernel(links, handler, None)
    kernel.schedule(1000, sensor)
    kernel.run()
    assert len(dispatched) == 2
    assert arrivals == [1000 + 100 + 700]


def test_step_dispatches_one_event_at_a_time():
    links, sensor = star_topology()
    seen = []
    kernel = Kernel(links, lambda node, body: seen.append(kernel.clock), None)
    for t in (40, 10, 30, 20):
        kernel.schedule(t, sensor)
    kernel.step()
    assert seen == [10]
    kernel.step()
    assert seen == [10, 20]
    assert kernel.clock == 20
    kernel.run()
    assert seen == [10, 20, 30, 40]


def random_traffic(drain, traffic_seed=99):
    """Jittered random chatter over a star, drained by drain(kernel).

    Returns the (clock, node, body) trace of every dispatch and the bodies
    sent, in send order; ticks scheduled up front carry None.
    """
    links, sensor = star_topology(n_edges=3, jitter=0.2)
    traffic_rng = np.random.default_rng(traffic_seed)
    nodes = [0, 1, 2, 3, sensor]
    sent = []
    dispatched = []

    def chatter(node, body):
        dispatched.append((kernel.clock, node, body))
        if kernel.clock > 50_000:
            return
        for _ in range(int(traffic_rng.integers(0, 3))):
            dst = int(traffic_rng.choice([n for n in nodes if n != node]))
            if (node, dst) in links:
                sent.append(len(sent))
                kernel.send(node, dst, sent[-1])

    kernel = Kernel(links, chatter, np.random.default_rng(123))
    for t in (0, 100, 200, 300, 400):
        kernel.schedule(t, sensor)
    drain(kernel)
    return dispatched, sent


# the harness's own traffic seed and twenty more: each chatter dies out on its
# own, after 0 to 34 sends; together they send 255 messages
TRAFFIC_SEEDS = (99, *range(20))


def test_event_conservation_under_random_traffic():
    # every sent message is eventually delivered; scheduled ticks deliver too
    scheduled = 5
    sizes = []
    for traffic_seed in TRAFFIC_SEEDS:
        dispatched, sent = random_traffic(Kernel.run, traffic_seed)
        assert len(dispatched) == len(sent) + scheduled, traffic_seed
        assert sorted(body for _, _, body in dispatched if body is not None) == sent, traffic_seed
        sizes.append(len(sent))
    assert sum(sizes) > 200


def test_run_dispatches_what_repeated_steps_dispatch():
    # run drains in its own loop; a twin stepped one event at a time sees the same
    # trace, over every traffic seed
    def step_until_empty(kernel):
        while kernel._queue:
            kernel.step()

    sizes = []
    for traffic_seed in TRAFFIC_SEEDS:
        stepped, sent = random_traffic(step_until_empty, traffic_seed)
        assert random_traffic(Kernel.run, traffic_seed) == (stepped, sent), traffic_seed
        sizes.append(len(sent))
    assert sum(sizes) > 200


def test_identical_seeds_replay_identical_traces():
    def run_once():
        links, sensor = star_topology(jitter=0.3)
        hops = iter(range(200))
        trace = []

        def bounce(node, body):
            trace.append((kernel.clock, node, body))
            hop = next(hops)
            if hop < 150:
                kernel.send(node, 0 if node != 0 else 1, hop)

        kernel = Kernel(links, bounce, np.random.default_rng(42))
        kernel.schedule(0, sensor)
        kernel.run()
        return trace

    first = run_once()
    assert len(first) == 151
    assert first == run_once()
