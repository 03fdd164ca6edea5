"""Deterministic discrete-event kernel over a table of directed links.

Time is integer milliseconds. Events are totally ordered by (time, seq),
where seq is a monotone counter issued at scheduling time, so simultaneous
events replay in scheduling order and runs are bit-reproducible for a
fixed link table, seed, and initial schedule. The nodes are the ends of
the links. An event's body is opaque to the kernel: it stores the payload
and hands it to the target's handler, and never reads it. The kernel
checks nothing it is given: the run config enforces each Link's
precondition, and the episode builds the schedule.

Jittered link delays come from the kernel's rng, which only links read.
The kernel draws it CHUNK raw 32-bit words at a time and maps each word
to a delay with the bounded-integer rule numpy's Generator.integers uses
for ranges of at most 2**32 values, Lemire's multiply-shift with rejection
("Fast random integer generation in an interval", ACM TOMACS 2019), so the
delays equal one scalar rng.integers(min, max + 1) call per message, and a
link with a single possible delay takes no word. Byte-identical runs across
numpy versions therefore rest on numpy keeping that rule (NEP 19 allows it
to change); tests/test_simcore.py checks the mapping against
Generator.integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, Callable, NamedTuple

import numpy as np

MS_PER_SECOND = 1000
CONTROL_PERIOD_MS = 5 * MS_PER_SECOND  # control cadence: one command every 5 s
CONTROL_PERIOD_S = CONTROL_PERIOD_MS / MS_PER_SECOND  # the plant and PID step
CHUNK = 512  # jitter words drawn per refill of the kernel's word list


@dataclass(frozen=True)
class Link:
    """Directed link with a base delay and an optional jitter fraction.

    A delivered delay is drawn uniformly from the integer range
    [ceil(base*(1-jitter)), floor(base*(1+jitter))]; with jitter 0 the
    delay is exactly the base. Precondition, enforced by LatencyConfig:
    1 <= base_ms < 2**31 and 0 <= jitter < 1, so the range holds fewer than
    2**32 values (the kernel draws 32-bit words), and a jittered link needs an rng.
    """

    base_ms: int
    jitter: float = 0.0

    @cached_property  # kept in the instance dict; eq and hash read only the fields
    def min_delay_ms(self) -> int:
        return math.ceil(self.base_ms * (1.0 - self.jitter))

    @cached_property
    def max_delay_ms(self) -> int:
        return math.floor(self.base_ms * (1.0 + self.jitter))


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
        # per link: the lowest delay, the number of delays, and the rejection
        # threshold (2**32 - span) % span of numpy's bounded-integer rule
        self._routes = {}
        for pair, link in links.items():
            span = link.max_delay_ms - link.min_delay_ms + 1
            self._routes[pair] = (link.min_delay_ms, span, (2**32 - span) % span)
        self.rng = rng
        self._words: list[int] = []  # drawn jitter words, the next one last
        self.clock = 0
        self._seq = 0
        self._queue: list[Event] = []
        self._handlers: dict[int, Handler] = {}
        self.sent_count = 0
        self.delivered_count = 0

    def register_handler(self, node_id: int, handler: Handler) -> None:
        self._handlers[node_id] = handler

    def schedule(self, time: int, target: int, body: Any = None) -> Event:
        """Queue an event for target at time, which must not precede the clock."""
        event = Event(time, self._seq, target, body)
        self._seq += 1
        heappush(self._queue, event)
        return event

    def send(self, src: int, dst: int, body: Any = None, depart_delay_ms: int = 0) -> Event:
        """Schedule delivery of a payload over the src->dst link.

        The delivery time is now + depart_delay_ms (not negative) + drawn
        link delay.
        """
        low, span, threshold = self._routes[src, dst]
        if span == 1:
            delay = low
        else:
            m = (self._words or self._refill()).pop() * span
            while m & 0xFFFFFFFF < threshold:
                m = (self._words or self._refill()).pop() * span
            delay = low + (m >> 32)
        event = Event(self.clock + depart_delay_ms + delay, self._seq, dst, body)
        self._seq += 1
        heappush(self._queue, event)
        self.sent_count += 1
        return event

    def _refill(self) -> list[int]:
        words = self.rng.integers(0, 2**32, size=CHUNK, dtype=np.uint64).tolist()
        words.reverse()  # pop() takes them in drawn order
        self._words = words
        return words

    def step(self) -> Event:
        """Process the next event, of a non-empty queue: advance the clock and dispatch it."""
        event = heappop(self._queue)
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
