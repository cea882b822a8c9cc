"""Command-line interface: gen, metrics, bench, analyze-readout, plot.

Exit codes: 0 success, 1 runtime error, 2 usage error.  ``HUBNET_SEED``
overrides the default seed when ``--seed`` is not given.  A flag that sets
a config field takes its type, default and valid range from the field:
``gen``, ``bench`` and ``analyze-readout`` build their configs before any
file is read or written, and a value a config rejects is a usage error
with the library's own message.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import html
import json
import math
import os
import sys
import typing

from . import bench as bench_mod
from . import netmetrics, tasks, topology
from .errors import HubnetError, check_int
from .reservoir import EsnConfig

TASK_FLAG_TO_NAME = {name.replace("_", "-"): name for name in bench_mod.TASKS}
MODEL_FLAG_TO_NAME = {name.replace("_", "-"): name for name in bench_mod.MODELS}

# the help of each flag that sets a config field, by field name; its type,
# default and valid range are the field's own.  The run settings'
# flags are bench's TOPOLOGY_FLAGS and ESN_FLAGS; the recurrent weight
# variance, which a trial's spectral rescale cancels, is a gen flag only
TRIAL_FLAGS = {
    "n": "node count",
    "n_train": "training steps (images for mnist)",
    "n_test": "test steps (images for mnist)",
}
GEN_FLAGS = {"n": TRIAL_FLAGS["n"], **bench_mod.TOPOLOGY_FLAGS,
             "weight_sigma2": "recurrent weight variance"}


class UsageError(Exception):
    pass


def _add_config_flags(p: argparse.ArgumentParser, config, table: dict) -> None:
    """One flag per ``{field: help}`` entry of ``table``, typed as ``config``'s field.

    An absent flag stays out of the parsed arguments, so the field's
    default is the only one; a field without a default makes a required flag.
    """
    hints = typing.get_type_hints(config)
    defaults = {f.name: f.default for f in dataclasses.fields(config)}
    for name, help_text in table.items():
        required = defaults[name] is dataclasses.MISSING
        if not required:
            help_text += f" (default {defaults[name]:g})"
        flag = "--trial" if name == "trial_index" else "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, type=hints[name], required=required,
                       default=argparse.SUPPRESS, help=help_text)


def _given(args, names) -> dict:
    """The flags of the fields ``names`` given on the command line, by field name."""
    return {name: getattr(args, name) for name in names if name in args}


@contextlib.contextmanager
def _settings_checked():
    """Report a setting that a config rejects as a usage error."""
    try:
        yield
    except HubnetError as exc:
        raise UsageError(str(exc)) from None


def _seed_from_env() -> int:
    """The seed when ``--seed`` is absent: ``HUBNET_SEED``, else 0."""
    env = os.environ.get("HUBNET_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"HUBNET_SEED must be an integer, got {env!r}") from None


def cmd_gen(args) -> int:
    with _settings_checked():
        cfg = topology.TopologyConfig(mode=args.mode, seed=args.seed,
                                      **_given(args, GEN_FLAGS))
    net = topology.generate_network(cfg)
    topology.save_network(net, args.out)
    return 0


def cmd_metrics(args) -> int:
    net = topology.load_network(getattr(args, "in"))
    metrics = netmetrics.network_metrics(net)
    doc = json.dumps(metrics, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    if args.degrees_out:
        bench_mod.write_csv(args.degrees_out, ["node", "degree"],
                            enumerate(netmetrics.node_degrees(net)))
    return 0


def _checked_run(args, models: list[str]):
    """Trial 0 of each model, the config overrides and the MNIST data of a run.

    Every setting is checked, as a usage error, before a file is read;
    the trials of a model differ only in their seeds.
    """
    overrides = _given(args, [*bench_mod.TOPOLOGY_FLAGS, *bench_mod.ESN_FLAGS])
    with _settings_checked():
        specs = [bench_mod.TrialSpec(task=TASK_FLAG_TO_NAME[args.task], model=m,
                                     base_seed=args.seed,
                                     **_given(args, [*TRIAL_FLAGS, "trial_index"]))
                 for m in models]
        for spec in specs:
            bench_mod.esn_config(spec, overrides)
    if specs[0].task != "mnist":
        return specs, overrides, None
    if not args.mnist_images or not args.mnist_labels:
        raise UsageError("task=mnist requires --mnist-images and --mnist-labels")
    return specs, overrides, tasks.load_mnist(args.mnist_images, args.mnist_labels)


def cmd_bench(args) -> int:
    models = []
    for flag in args.models.split(","):
        flag = flag.strip()
        if flag not in MODEL_FLAG_TO_NAME:
            raise UsageError(f"unknown model {flag!r}")
        if MODEL_FLAG_TO_NAME[flag] in models:
            # a repeated model would run each trial twice and count both
            raise UsageError(f"model {flag!r} given twice")
        models.append(MODEL_FLAG_TO_NAME[flag])
    with _settings_checked():
        check_int("repeats", args.repeats, 1)
        check_int("jobs", args.jobs, 1)
    specs, overrides, mnist = _checked_run(args, models)
    results = bench_mod.run_experiment(
        [(s.task, s.model, s.n, s.n_train, s.n_test) for s in specs],
        repeats=args.repeats, base_seed=args.seed, jobs=args.jobs,
        overrides=overrides, mnist=mnist,
    )
    bench_mod.write_results_csv(results, args.out,
                                include_wall_time=not args.omit_timing)
    if args.aggregate_out:
        bench_mod.write_aggregate_csv(bench_mod.aggregate(results),
                                      args.aggregate_out)
    return 0


def cmd_analyze_readout(args) -> int:
    (spec,), overrides, mnist = _checked_run(args, [MODEL_FLAG_TO_NAME[args.model]])
    bundle = bench_mod.readout_analysis(spec, overrides=overrides, mnist=mnist)
    # str(np.bool_) is "True": the mask is written as 0 and 1
    bench_mod.write_csv(args.out, ["neuron", "degree", "normalized_weight", "is_input"],
                        zip(range(bundle["esn"].n), bundle["degrees"], bundle["w_norm"],
                            bundle["esn"].input_mask.astype(int)))
    print(f"pearson_r={bench_mod.format_value(bundle['degree_weight_r'])}")
    print(f"score={bench_mod.format_value(bundle['score'])}")
    return 0


PLOT_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def cmd_plot(args) -> int:
    """SVG line chart: one polyline per model, mean score against n_train."""
    series: dict[str, list[tuple[int, float]]] = {}
    with open(getattr(args, "in"), newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"model", "n_train", "mean"} - set(reader.fieldnames or ())
        if missing:
            raise RuntimeError(f"aggregate CSV lacks columns {sorted(missing)}")
        for row in reader:
            if None in row.values():
                raise RuntimeError(f"aggregate CSV line {reader.line_num} "
                                   "has fewer fields than its header")
            mean = float(row["mean"])
            if not math.isfinite(mean):
                raise RuntimeError(f"non-finite mean for model {row['model']!r}")
            series.setdefault(row["model"], []).append((int(row["n_train"]), mean))
    if not series:
        raise RuntimeError("aggregate CSV has no rows")
    xs, ys = zip(*(p for pts in series.values() for p in pts))
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    width, height, margin = 640, 420, 60

    def place(v, lo, hi, start, stop):
        # a single distinct value sits mid-axis instead of dividing by zero
        return (start + stop) / 2 if hi == lo else start + (v - lo) * (stop - start) / (hi - lo)

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'font-family="sans-serif" font-size="12">',
           f'<path d="M{margin},{margin} V{height - margin} H{width - margin}" '
           f'fill="none" stroke="black"/>',
           f'<text x="{width / 2}" y="{height - 15}" text-anchor="middle">'
           f'n_train ({x_lo} to {x_hi})</text>',
           f'<text x="15" y="{margin - 20}">mean score ({y_lo:.4g} to {y_hi:.4g})</text>']
    for k, (model, pts) in enumerate(sorted(series.items())):
        color = PLOT_COLORS[k % len(PLOT_COLORS)]
        xy = [(place(x, x_lo, x_hi, margin, width - margin),
               place(y, y_lo, y_hi, height - margin, margin)) for x, y in sorted(pts)]
        points = " ".join(f"{px:.1f},{py:.1f}" for px, py in xy)
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
        # markers keep a single-n_train series visible
        out += [f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>' for px, py in xy]
        out.append(f'<text x="{width - margin}" y="{margin + 16 * k}" fill="{color}" '
                   f'text-anchor="end">{html.escape(model)}</text>')
    out.append("</svg>")
    with open(args.out, "w") as fh:
        fh.write("\n".join(out) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubnet",
        description="Hub-structured reservoir networks: generation, metrics, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a network and write it as JSON")
    _add_config_flags(p_gen, topology.TopologyConfig, GEN_FLAGS)
    p_gen.add_argument("--mode", choices=["hub", "random"], default="hub")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True, help="output network JSON path")
    p_gen.set_defaults(func=cmd_gen)

    p_met = sub.add_parser("metrics", help="measure a stored network")
    p_met.add_argument("--in", required=True, help="network JSON path")
    p_met.add_argument("--out", help="metrics JSON path (default: stdout)")
    p_met.add_argument("--degrees-out", help="optional per-node degree CSV")
    p_met.set_defaults(func=cmd_metrics)

    def add_run_flags(p, with_models: bool):
        p.add_argument("--task", choices=sorted(TASK_FLAG_TO_NAME), required=True)
        if with_models:
            p.add_argument("--models", default="esn,hubesn,hubesn-rand",
                           help="comma-separated subset of esn,hubesn,hubesn-rand")
        else:
            p.add_argument("--model", choices=sorted(MODEL_FLAG_TO_NAME),
                           default="hubesn")
        _add_config_flags(p, bench_mod.TrialSpec, TRIAL_FLAGS)
        _add_config_flags(p, topology.TopologyConfig, bench_mod.TOPOLOGY_FLAGS)
        _add_config_flags(p, EsnConfig, bench_mod.ESN_FLAGS)
        p.add_argument("--seed", type=int)
        p.add_argument("--mnist-images", help="IDX image file (.gz ok)")
        p.add_argument("--mnist-labels", help="IDX label file (.gz ok)")

    p_bench = sub.add_parser("bench", help="run the seeded benchmark grid")
    add_run_flags(p_bench, with_models=True)
    p_bench.add_argument("--repeats", type=int, default=100,
                         help="trials per setting (default 100)")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel trial workers (default 1)")
    p_bench.add_argument("--out", required=True, help="per-trial results CSV")
    p_bench.add_argument("--aggregate-out", help="aggregate CSV path")
    p_bench.add_argument("--omit-timing", action="store_true",
                         help="drop the wall_time_s column for byte-reproducible CSVs")
    p_bench.set_defaults(func=cmd_bench)

    p_an = sub.add_parser("analyze-readout",
                          help="train one model and export per-neuron readout weights")
    add_run_flags(p_an, with_models=False)
    _add_config_flags(p_an, bench_mod.TrialSpec, {"trial_index": "trial index"})
    p_an.add_argument("--out", required=True, help="per-neuron CSV path")
    p_an.set_defaults(func=cmd_analyze_readout)

    p_plot = sub.add_parser("plot", help="SVG line chart of an aggregate CSV")
    p_plot.add_argument("--in", required=True, help="aggregate CSV path")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # metrics and plot take no --seed
        if "seed" in vars(args) and args.seed is None:
            args.seed = _seed_from_env()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1
    # HubnetError and json.JSONDecodeError are both ValueErrors
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
