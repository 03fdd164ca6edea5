import numpy as np
import pytest

from edgeloop.simcore import (
    CONTROL_PERIOD_MS,
    Kernel,
    Link,
    Node,
    NodeKind,
    Outgoing,
    SimulationDrained,
    SimulationError,
    StaleEventError,
    Topology,
    TopologyError,
)


def star_topology(n_edges=2, jitter=0.0):
    topo = Topology()
    topo.add_node(Node(0, NodeKind.CLOUD_CENTER))
    for i in range(1, n_edges + 1):
        topo.add_node(Node(i, NodeKind.EDGE_SERVER))
    sensor = n_edges + 1
    topo.add_node(Node(sensor, NodeKind.SENSOR, attached_to=1))
    topo.add_link(sensor, 0, 700, jitter)
    topo.add_link(0, sensor, 700, jitter)
    topo.add_link(sensor, 1, 100, jitter)
    topo.add_link(1, sensor, 100, jitter)
    for i in range(1, n_edges + 1):
        topo.add_link(i, 0, 600, jitter)
        topo.add_link(0, i, 600, jitter)
        for j in range(1, n_edges + 1):
            if i != j:
                topo.add_link(i, j, 100, jitter)
    return topo, sensor


# -- links ------------------------------------------------------------------------


def test_link_delay_bounds_are_rounded_inward():
    link = Link(base_ms=700, jitter=0.1)
    assert link.min_delay_ms == 630
    assert link.max_delay_ms == 770
    odd = Link(base_ms=33, jitter=0.1)
    assert odd.min_delay_ms == 30  # ceil(29.7)
    assert odd.max_delay_ms == 36  # floor(36.3)


def test_link_sample_zero_jitter_is_exact_and_needs_no_rng():
    link = Link(base_ms=250)
    assert link.sample_delay_ms(None) == 250


def test_link_sample_jittered_requires_rng():
    link = Link(base_ms=100, jitter=0.2)
    with pytest.raises(SimulationError):
        link.sample_delay_ms(None)


def test_link_sample_stays_in_bounds():
    link = Link(base_ms=100, jitter=0.1)
    rng = np.random.default_rng(5)
    draws = {link.sample_delay_ms(rng) for _ in range(2000)}
    assert min(draws) >= 90
    assert max(draws) <= 110
    assert {90, 110} <= draws  # the closed range is actually reachable


def test_link_validation():
    with pytest.raises(TopologyError):
        Link(base_ms=0)
    with pytest.raises(TopologyError):
        Link(base_ms=10, jitter=1.0)
    with pytest.raises(TopologyError):
        Link(base_ms=10, jitter=-0.1)


# -- topology ----------------------------------------------------------------------


def test_topology_requires_exactly_one_cloud():
    topo = Topology()
    topo.add_node(Node(1, NodeKind.EDGE_SERVER))
    with pytest.raises(TopologyError):
        topo.validate()
    topo.add_node(Node(0, NodeKind.CLOUD_CENTER))
    topo.add_node(Node(2, NodeKind.CLOUD_CENTER))
    with pytest.raises(TopologyError):
        topo.validate()


def test_topology_sensor_must_attach_to_edge():
    topo = Topology()
    topo.add_node(Node(0, NodeKind.CLOUD_CENTER))
    topo.add_node(Node(1, NodeKind.EDGE_SERVER))
    topo.add_node(Node(2, NodeKind.SENSOR, attached_to=0))
    with pytest.raises(TopologyError):
        topo.validate()


def test_topology_rejects_duplicates_and_self_links():
    topo = Topology()
    topo.add_node(Node(0, NodeKind.CLOUD_CENTER))
    with pytest.raises(TopologyError):
        topo.add_node(Node(0, NodeKind.EDGE_SERVER))
    with pytest.raises(TopologyError):
        topo.add_link(0, 0, 10)
    with pytest.raises(TopologyError):
        topo.add_link(0, 9, 10)


def test_topology_link_lookup_errors():
    topo, sensor = star_topology()
    with pytest.raises(TopologyError):
        topo.link(99, 0)
    with pytest.raises(TopologyError):
        topo.link(1, 2 + 99)
    # only the home edge has a direct link to the sensor
    with pytest.raises(TopologyError):
        topo.link(2, sensor)
    assert topo.link(1, sensor).base_ms == 100


# -- scheduling and ordering ----------------------------------------------------------


def test_schedule_validates_time_target_and_kind():
    topo, sensor = star_topology()
    kernel = Kernel(topo)
    kernel.schedule(10, sensor, "sensor-reading")
    with pytest.raises(TopologyError):
        kernel.schedule(10, 99, "sensor-reading")
    with pytest.raises(SimulationError):
        kernel.schedule(10, sensor, "bogus-kind")
    kernel.run()
    assert kernel.clock == 10
    with pytest.raises(StaleEventError):
        kernel.schedule(5, sensor, "sensor-reading")


def test_simultaneous_events_dispatch_in_scheduling_order():
    topo, sensor = star_topology()
    kernel = Kernel(topo)
    seen = []
    kernel.register_handler(sensor, lambda ev: seen.append(ev.body))
    kernel.schedule(50, sensor, "sensor-reading", "first")
    kernel.schedule(50, sensor, "sensor-reading", "second")
    kernel.schedule(50, sensor, "sensor-reading", "third")
    kernel.run()
    assert seen == ["first", "second", "third"]


def test_step_on_empty_queue_raises():
    topo, _ = star_topology()
    with pytest.raises(SimulationDrained):
        Kernel(topo).step()


def test_send_timing_is_departure_plus_link_delay():
    topo, sensor = star_topology()
    kernel = Kernel(topo)
    arrivals = []
    kernel.register_handler(0, lambda ev: arrivals.append(kernel.clock))
    kernel.register_handler(
        sensor,
        lambda ev: [Outgoing(0, "sensor-reading", None, depart_delay_ms=100)],
    )
    kernel.schedule(1000, sensor, "sensor-reading")
    kernel.run()
    assert arrivals == [1000 + 100 + 700]


def test_step_dispatches_one_event_at_a_time():
    topo, sensor = star_topology()
    kernel = Kernel(topo)
    seen = []
    kernel.register_handler(sensor, lambda ev: seen.append(ev.time))
    for t in (40, 10, 30, 20):
        kernel.schedule(t, sensor, "sensor-reading")
    assert kernel.step().time == 10
    assert kernel.step().time == 20
    assert seen == [10, 20]
    assert kernel.clock == 20
    assert kernel.run() == 2
    assert seen == [10, 20, 30, 40]


def test_event_conservation_under_random_traffic():
    # every sent message is eventually delivered; scheduled ticks deliver too
    topo, sensor = star_topology(n_edges=3, jitter=0.2)
    rng = np.random.default_rng(123)
    kernel = Kernel(topo, rng=rng)
    traffic_rng = np.random.default_rng(99)
    nodes = [0, 1, 2, 3, sensor]

    def chatter(ev):
        if ev.time > 50_000:
            return None
        out = []
        for _ in range(int(traffic_rng.integers(0, 3))):
            dst = int(traffic_rng.choice([n for n in nodes if n != ev.target]))
            if (ev.target, dst) in topo.links:
                out.append(Outgoing(dst, "state-report"))
        return out

    for node in nodes:
        kernel.register_handler(node, chatter)
    scheduled = 5
    for t in (0, 100, 200, 300, 400):
        kernel.schedule(t, sensor, "sensor-reading")
    processed = kernel.run()
    assert kernel.delivered_count == processed
    assert kernel.delivered_count == kernel.sent_count + scheduled
    assert kernel.sent_count > 0


def test_identical_seeds_replay_identical_traces():
    def run_once():
        topo, sensor = star_topology(jitter=0.3)
        kernel = Kernel(topo, rng=np.random.default_rng(42))
        hops = iter(range(200))
        trace = []

        def bounce(ev):
            trace.append((ev.time, ev.seq, ev.target, ev.kind))
            if next(hops) < 150:
                dst = 0 if ev.target != 0 else 1
                return [Outgoing(dst, "state-report")]
            return None

        for node in (0, 1, 2, sensor):
            kernel.register_handler(node, bounce)
        kernel.schedule(0, sensor, "sensor-reading")
        kernel.run()
        return trace

    first = run_once()
    assert len(first) == 151
    assert first == run_once()
