"""Deterministic discrete-event kernel over a table of directed links.

Time is integer milliseconds. Events are totally ordered by (time, seq),
where seq is a monotone counter issued at scheduling time, so simultaneous
events replay in scheduling order and runs are bit-reproducible for a
fixed link table, seed, and initial schedule. The nodes are the ends of
the links. An event's body is opaque to the kernel: it stores the payload
and hands it to the target's handler, and never reads it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

MS_PER_SECOND = 1000
CONTROL_PERIOD_MS = 5 * MS_PER_SECOND  # control cadence: one command every 5 s
CONTROL_PERIOD_S = CONTROL_PERIOD_MS / MS_PER_SECOND  # the plant and PID step


class SimulationError(Exception):
    """Base class for kernel errors."""


class StaleEventError(SimulationError):
    """Raised when an event is scheduled before the current clock."""


class TopologyError(SimulationError):
    """Raised for unknown nodes or missing links."""


class SimulationDrained(SimulationError):
    """Raised by step() when the event queue is empty."""


@dataclass(frozen=True)
class Link:
    """Directed link with a base delay and an optional jitter fraction.

    A delivered delay is drawn uniformly from the integer range
    [ceil(base*(1-jitter)), floor(base*(1+jitter))]; with jitter 0 the
    delay is exactly the base.
    """

    base_ms: int
    jitter: float = 0.0

    def __post_init__(self):
        if self.base_ms <= 0:
            raise TopologyError(f"link base delay must be positive, got {self.base_ms}")
        if not (0.0 <= self.jitter < 1.0):
            raise TopologyError(f"link jitter must be in [0, 1), got {self.jitter}")

    @cached_property  # kept in the instance dict; eq and hash read only the fields
    def min_delay_ms(self) -> int:
        return math.ceil(self.base_ms * (1.0 - self.jitter))

    @cached_property
    def max_delay_ms(self) -> int:
        return math.floor(self.base_ms * (1.0 + self.jitter))

    def sample_delay_ms(self, rng: np.random.Generator | None) -> int:
        if self.jitter == 0.0:
            return self.base_ms
        if rng is None:
            raise SimulationError("jittered link requires the kernel to own an rng")
        return int(rng.integers(self.min_delay_ms, self.max_delay_ms + 1))


class Event(NamedTuple):  # heaped as is: seq is unique, so body is never compared
    time: int
    seq: int
    target: int
    body: Any = None


# A handler reacts to a delivered event and sends its messages itself with
# Kernel.send. Handlers own their node state; the kernel owns time,
# ordering, and delivery.
Handler = Callable[[Event], None]


class Kernel:
    """Single-stream event kernel. One instance per simulation run."""

    def __init__(self, links: dict[tuple[int, int], Link], rng: np.random.Generator | None = None):
        self.links = links
        self.nodes = frozenset(node for pair in links for node in pair)
        self.rng = rng
        self.clock = 0
        self._seq = 0
        self._queue: list[Event] = []
        self._handlers: dict[int, Handler] = {}
        self.sent_count = 0
        self.delivered_count = 0

    def register_handler(self, node_id: int, handler: Handler) -> None:
        if node_id not in self.nodes:
            raise TopologyError(f"unknown node {node_id}")
        self._handlers[node_id] = handler

    def schedule(self, time: int, target: int, body: Any = None) -> Event:
        if time < self.clock:
            raise StaleEventError(f"cannot schedule at t={time} before clock {self.clock}")
        if target not in self.nodes:
            raise TopologyError(f"unknown node {target}")
        event = Event(time, self._seq, target, body)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def send(self, src: int, dst: int, body: Any = None, depart_delay_ms: int = 0) -> Event:
        """Schedule delivery of a payload over the src->dst link.

        The delivery time is now + depart_delay_ms + sampled link delay.
        """
        link = self.links.get((src, dst))
        if link is None:
            raise TopologyError(f"no link from {src} to {dst}")
        delay = link.sample_delay_ms(self.rng)
        event = self.schedule(self.clock + depart_delay_ms + delay, dst, body)
        self.sent_count += 1
        return event

    def step(self) -> Event:
        """Process the next event: advance the clock and dispatch it."""
        if not self._queue:
            raise SimulationDrained("event queue is empty")
        event = heapq.heappop(self._queue)
        self.clock = event.time
        self.delivered_count += 1
        handler = self._handlers.get(event.target)
        if handler is not None:
            handler(event)
        return event

    def run(self) -> int:
        """Drain the queue completely; returns the processed count."""
        count = 0
        while self._queue:
            self.step()
            count += 1
        return count
