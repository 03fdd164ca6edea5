"""Deterministic discrete-event kernel over a table of directed links.

Time is integer milliseconds. Events are totally ordered by (time, seq),
where seq is a monotone counter issued at scheduling time, so simultaneous
events replay in scheduling order and runs are bit-reproducible for a
fixed link table, seed, and initial schedule. The queue holds plain
(time, seq, target, body) tuples, heaped as they are: seq is unique, so a
body is never compared. The table maps each directed (src, dst) link to
its closed delay range (min_ms, max_ms). One handler serves every node:
the kernel calls handler(target, body) for each event, with the clock set
to the event's time, and never reads the body. The kernel checks nothing
it is given: the run config enforces delay_range's precondition, and the
episode builds the schedule.

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
from heapq import heappop, heappush
from typing import Any, Callable

import numpy as np

MS_PER_SECOND = 1000
CONTROL_PERIOD_MS = 5 * MS_PER_SECOND  # control cadence: one command every 5 s
CONTROL_PERIOD_S = CONTROL_PERIOD_MS / MS_PER_SECOND  # the plant and PID step
CHUNK = 512  # draws per refill: the kernel's jitter words, an episode's inlet noise


def delay_range(base_ms: int, jitter: float) -> tuple[int, int]:
    """The closed range a link's delays are drawn from: base_ms*(1 -/+ jitter), rounded inward.

    Precondition, enforced by LatencyConfig: 1 <= base_ms < 2**31 and
    0 <= jitter < 1, so the range holds fewer than 2**32 values (the kernel
    draws 32-bit words), and a jittered link needs the kernel's rng.
    """
    return math.ceil(base_ms * (1.0 - jitter)), math.floor(base_ms * (1.0 + jitter))


class Kernel:
    """Single-stream event kernel. One instance per simulation run.

    The handler owns the node state and sends its messages itself with send.
    """

    def __init__(self, links: dict[tuple[int, int], tuple[int, int]],
                 handler: Callable[[int, Any], None], rng: np.random.Generator):
        # per link: the lowest delay, the number of delays, and the rejection
        # threshold (2**32 - span) % span of numpy's bounded-integer rule
        self._routes = {}
        for pair, (low, high) in links.items():
            span = high - low + 1
            self._routes[pair] = (low, span, (2**32 - span) % span)
        self.handler = handler
        self.rng = rng
        self._words: list[int] = []  # drawn jitter words, the next one last
        self.clock = 0
        self._seq = 0
        self._queue: list[tuple[int, int, int, Any]] = []  # (time, seq, target, body)

    def schedule(self, time: int, target: int, body: Any = None) -> None:
        """Queue an event for target at time, which must not precede the clock."""
        heappush(self._queue, (time, self._seq, target, body))
        self._seq += 1

    def send(self, src: int, dst: int, body: Any, depart_delay_ms: int = 0) -> None:
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
        heappush(self._queue, (self.clock + depart_delay_ms + delay, self._seq, dst, body))
        self._seq += 1

    def _refill(self) -> list[int]:
        words = self.rng.integers(0, 2**32, size=CHUNK, dtype=np.uint64).tolist()
        words.reverse()  # pop() takes them in drawn order
        self._words = words
        return words

    def step(self) -> None:
        """Process the next event, of a non-empty queue: advance the clock and hand it on."""
        self.clock, _, target, body = heappop(self._queue)
        self.handler(target, body)

    def run(self) -> None:
        """Drain the queue completely, one event at a time as step() takes them."""
        queue, handler = self._queue, self.handler
        while queue:
            self.clock, _, target, body = heappop(queue)
            handler(target, body)
