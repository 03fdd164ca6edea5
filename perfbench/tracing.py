"""Span tracing of edgeloop's public functions, installed from outside the package.

`install` replaces each traced function or method with a wrapper that
records one span per call: name, parent span, start and end in
nanoseconds, and for allocator.solve the plan it returned. Spans stay in
memory until the run ends. `layer_metrics` derives per-layer numbers from
them. A span's self time is its duration minus the durations of its direct
child spans, so self times never count the same interval twice; Kernel.step
self time therefore excludes Kernel.send, which has its own metric, but
includes the scenario's node handlers (message plumbing), which are private
and not traced.
"""

from __future__ import annotations

import importlib
import time

# span name, module that holds the reference the run calls, owning class, attribute
TRACED = [
    ("config.load_config", "cli", None, "load_config"),
    ("experiment.run_experiment", "cli", None, "run_experiment"),
    ("traces.ingest_trace", "traces", None, "ingest_trace"),
    ("simcore.Kernel.step", "simcore", "Kernel", "step"),
    ("simcore.Kernel.send", "simcore", "Kernel", "send"),
    ("boiler.step", "boiler", None, "step"),
    ("boiler.observe", "boiler", None, "observe"),
    ("dqn.DqnAgent.act", "dqn", "DqnAgent", "act"),
    ("dqn.DqnAgent.record", "dqn", "DqnAgent", "record"),
    ("dqn.DqnAgent.train", "dqn", "DqnAgent", "train"),
    ("dqn.ReplayBuffer.sample", "dqn", "ReplayBuffer", "sample"),
    ("dqn.train_step", "dqn", None, "train_step"),
    ("pid.BoilerPid.act", "pid", "BoilerPid", "act"),
    ("allocator.solve", "allocator", None, "solve"),
    ("experiment.oracle_action", "experiment", None, "oracle_action"),
    ("experiment.write_metrics", "experiment", None, "write_metrics"),
]

# span fields
NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def write(self, path) -> None:
        """One CSV row per span: name, parent index (-1 for none), start_ns, end_ns."""
        with open(path, "w") as f:
            f.write("name,parent,start_ns,end_ns\n")
            for span in self.spans:
                f.write(f"{span[NAME]},{span[PARENT]},{span[START]},{span[END]}\n")


def install() -> Tracer:
    """Wrap every function in TRACED; edgeloop must already be importable."""
    tracer = Tracer()
    for name, module_name, owner, attr in TRACED:
        target = importlib.import_module(f"edgeloop.{module_name}")
        if owner is not None:
            target = getattr(target, owner)
        note = (lambda plan: plan.x) if name == "allocator.solve" else None
        setattr(target, attr, tracer.wrap(name, getattr(target, attr), note))
    return tracer


def span_stats(spans) -> dict[str, dict]:
    """Per span name: calls, summed self time and summed duration, in ns."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    stats: dict[str, dict] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span[NAME], {"calls": 0, "self_ns": 0, "total_ns": 0})
        duration = span[END] - span[START]
        s["calls"] += 1
        s["self_ns"] += duration - covered[i]
        s["total_ns"] += duration
    return stats


def _plan_change_ratio(spans) -> float:
    plans = [span[NOTE] for span in spans if span[NAME] == "allocator.solve"]
    if len(plans) < 2:
        return 0.0
    return sum(a != b for a, b in zip(plans, plans[1:])) / (len(plans) - 1)


def layer_metrics(spans, steps: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times (µs or ms per call, self time) and counts per simulated step.

    Returns (times, counts). A layer that made no calls reads 0. Counts
    depend only on the simulation and repeat exactly from run to run.
    """
    stats = span_stats(spans)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def per_call(name, scale):
        s = stats.get(name)
        return s["self_ns"] / s["calls"] / scale if s else 0.0

    def us(name):
        return per_call(name, 1e3)

    def ms(name):
        return per_call(name, 1e6)

    train_calls = calls("dqn.DqnAgent.train")
    times = {
        "simcore.step_self_us": us("simcore.Kernel.step"),
        "simcore.send_us": us("simcore.Kernel.send"),
        "boiler.step_us": us("boiler.step"),
        "boiler.observe_us": us("boiler.observe"),
        "dqn.train_step_us": us("dqn.train_step"),
        "dqn.replay_sample_us": us("dqn.ReplayBuffer.sample"),
        "dqn.record_us": us("dqn.DqnAgent.record"),
        "dqn.act_us": us("dqn.DqnAgent.act"),
        "pid.act_us": us("pid.BoilerPid.act"),
        "allocator.solve_us": us("allocator.solve"),
        "experiment.oracle_us": us("experiment.oracle_action"),
        "experiment.write_metrics_ms": ms("experiment.write_metrics"),
        "traces.ingest_ms": ms("traces.ingest_trace"),
        "config.load_ms": ms("config.load_config"),
    }
    counts = {
        "simcore.events_per_step": calls("simcore.Kernel.step") / steps,
        "simcore.sends_per_step": calls("simcore.Kernel.send") / steps,
        "boiler.step_calls_per_step": calls("boiler.step") / steps,
        "dqn.train_update_ratio": calls("dqn.train_step") / train_calls if train_calls else 0.0,
        "allocator.solves_per_step": calls("allocator.solve") / steps,
        "allocator.plan_change_ratio": _plan_change_ratio(spans),
        "experiment.oracle_calls_per_step": calls("experiment.oracle_action") / steps,
    }
    return times, counts


def shares(spans, wall_ns: int) -> dict[str, dict[str, float]]:
    """Self and inclusive time of each span name as a share of the run's host time."""
    return {
        name: {"self": s["self_ns"] / wall_ns, "inclusive": s["total_ns"] / wall_ns}
        for name, s in sorted(span_stats(spans).items())
    }
