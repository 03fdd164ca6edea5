"""Command line entry points.

    edgeloop run --config run.yaml [--scenario S] [--controller C]
                 [--seeds 1,2,3] [--out DIR]
    edgeloop compare a.jsonl b.jsonl [--phase eval] [--json out.json]
    edgeloop alloc --instance instance.json
    edgeloop plot-data metrics.jsonl --out series.csv [--phase train]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import allocator, reporting
from .config import CONTROLLERS, SCENARIOS, ConfigError, load_config
from .experiment import run_experiment
from .traces import TraceError


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgeloop")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded experiment sweep")
    run_p.add_argument("--config", default=None, help="YAML run config")
    run_p.add_argument("--scenario", choices=SCENARIOS, default=None)
    run_p.add_argument("--controller", choices=CONTROLLERS, default=None)
    run_p.add_argument("--seeds", type=_parse_seeds, default=None, help="comma separated")
    run_p.add_argument("--episodes", type=int, default=None)
    run_p.add_argument("--out", default="out", help="metrics output directory")

    cmp_p = sub.add_parser("compare", help="compare two metrics files")
    cmp_p.add_argument("metrics_a")
    cmp_p.add_argument("metrics_b")
    cmp_p.add_argument("--phase", default=None, help="restrict to one phase")
    cmp_p.add_argument("--json", dest="json_out", default=None, help="also write JSON")

    alloc_p = sub.add_parser("alloc", help="solve one allocation instance")
    alloc_p.add_argument("--instance", required=True, help="instance JSON file")

    plot_p = sub.add_parser("plot-data", help="emit per-episode plot series as CSV")
    plot_p.add_argument("metrics")
    plot_p.add_argument("--out", required=True)
    plot_p.add_argument("--phase", default=None)

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.scenario:
        overrides["scenario"] = args.scenario
    if args.controller:
        overrides["controller"] = args.controller
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    result = run_experiment(cfg, args.out)
    for seed in sorted(result.results):
        res = result.results[seed]
        d = res.divergence
        note = f" DIVERGED in {d.phase} episode {d.episode} at step {d.step}: {d.message}" if d else ""
        evals = reporting.phase_records(res.records, "eval")
        tail = ""
        if evals:
            tail = f" eval_reward={reporting.mean([r.cumulative_reward for r in evals]):.2f}"
        print(
            f"seed {seed}: {len(res.records)} episodes"
            f" -> {result.metrics_paths[seed]}{tail}{note}"
        )
    print(f"summary -> {result.summary_path}")
    return 0


def _cmd_compare(args) -> int:
    a = reporting.phase_records(reporting.read_metrics(args.metrics_a), args.phase)
    b = reporting.phase_records(reporting.read_metrics(args.metrics_b), args.phase)
    if not a or not b:
        print("no records matched", file=sys.stderr)
        return 1
    comparisons = reporting.compare(a, b)
    if args.json_out:  # written first, so an unwritable path prints no table
        with open(args.json_out, "w") as f:
            json.dump([dataclasses.asdict(c) for c in comparisons], f, indent=2)
    print(reporting.render_table(comparisons))
    if args.json_out:
        print(f"json -> {args.json_out}")
    return 0


def _cmd_alloc(args) -> int:
    modules, resources, weights = allocator.load_instance(args.instance)
    plan = allocator.solve(allocator.prepare(modules, resources, weights), [r.headroom for r in resources])
    violations = allocator.validate(plan, modules, resources)
    out = allocator.plan_to_dict(plan)
    out["violations"] = violations
    print(json.dumps(out, indent=2))
    return 0 if not violations else 1


def _cmd_plot_data(args) -> int:
    records = reporting.phase_records(reporting.read_metrics(args.metrics), args.phase)
    if not records:
        print("no records matched", file=sys.stderr)
        return 1
    reporting.emit_plot_data(records, args.out)
    print(f"csv -> {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "alloc": _cmd_alloc,
        "plot-data": _cmd_plot_data,
    }
    # a fault in an input file or a command-line override: one stderr line, exit status 2
    try:
        return handlers[args.command](args)
    except ConfigError as exc:  # from the config file or the command-line overrides
        kind, message = "config", str(exc).removeprefix("config: ")
    except TraceError as exc:  # from the run's trace file
        kind, message = "trace", str(exc)
    except allocator.AllocationError as exc:  # from the alloc command's instance file
        kind, message = "instance", str(exc)
    except reporting.MetricsError as exc:  # from a metrics file compare or plot-data reads
        kind, message = "metrics", str(exc)
    except OSError as exc:  # input files raise their own errors above: this is an output path
        if exc.filename is None:  # not a file's fault
            raise
        kind, message = "output", f"{exc.filename}: {exc.strerror}"
    print(f"edgeloop: {kind}: {' '.join(message.split())}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
