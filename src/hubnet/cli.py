"""Command-line interface: gen, metrics, bench, analyze-readout, plot.

Exit codes: 0 success, 1 runtime error, 2 usage error.  ``HUBNET_SEED``
overrides the default seed when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import csv
import html
import json
import math
import os
import sys

from . import bench as bench_mod
from . import netmetrics, tasks, topology

TASK_FLAG_TO_NAME = {
    "mackey-glass": "mackey_glass",
    "narma10": "narma10",
    "mnist": "mnist",
}
MODEL_FLAG_TO_NAME = {
    "esn": "esn",
    "hubesn": "hubesn",
    "hubesn-rand": "hubesn_rand",
}


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum`` (else exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its message for "ten"
    return parse


POSITIVE_INT = _int_at_least(1)
NONNEGATIVE_INT = _int_at_least(0)


def _finite_float(accept, rule: str):
    """argparse type: a finite float for which ``accept`` holds (else exit 2)."""
    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be finite and {rule}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


# the ranges the config dataclasses enforce, checked as usage errors
FRACTION = _finite_float(lambda v: 0.0 < v <= 1.0, "in (0, 1]")
POSITIVE_FLOAT = _finite_float(lambda v: v > 0.0, "> 0")
NONNEGATIVE_FLOAT = _finite_float(lambda v: v >= 0.0, ">= 0")


def _seed_from_env() -> int:
    """The seed when ``--seed`` is absent: ``HUBNET_SEED``, else 0."""
    env = os.environ.get("HUBNET_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"HUBNET_SEED must be an integer, got {env!r}") from None


def _add_topology_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=POSITIVE_INT, required=True, help="node count")
    p.add_argument("--density", type=FRACTION, default=0.2,
                   help="fraction of off-diagonal edges retained (default 0.2)")
    p.add_argument("--alpha", type=NONNEGATIVE_FLOAT, default=2.0,
                   help="distance-constraint exponent (default 2)")
    p.add_argument("--beta", type=NONNEGATIVE_FLOAT, default=2.0,
                   help="index-sum-constraint exponent (default 2)")
    p.add_argument("--lambda-dc", type=NONNEGATIVE_FLOAT, default=0.5,
                   help="distance-constraint weight (default 0.5)")
    p.add_argument("--lambda-nc", type=NONNEGATIVE_FLOAT, default=0.5,
                   help="index-sum-constraint weight (default 0.5)")
    p.add_argument("--lambda-reg", type=NONNEGATIVE_FLOAT, default=0.0,
                   help="random-regularizer weight (default 0)")
    p.add_argument("--weight-sigma2", type=POSITIVE_FLOAT, default=1.0 / 3.0,
                   help="recurrent weight variance (default 1/3)")


def _topology_config(args, mode: str) -> topology.TopologyConfig:
    return topology.TopologyConfig(
        n=args.n, density=args.density, alpha=args.alpha, beta=args.beta,
        lambda_dc=args.lambda_dc, lambda_nc=args.lambda_nc,
        lambda_reg=args.lambda_reg, mode=mode,
        weight_sigma2=args.weight_sigma2, seed=args.seed,
    )


def cmd_gen(args) -> int:
    cfg = _topology_config(args, args.mode)
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
        degrees = netmetrics.node_degrees(net)
        with open(args.degrees_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "degree"])
            for i, d in enumerate(degrees):
                writer.writerow([i, int(d)])
    return 0


def _overrides_from_args(args) -> dict:
    ov = {
        "density": args.density,
        "alpha": args.alpha,
        "beta": args.beta,
        "lambda_dc": args.lambda_dc,
        "lambda_nc": args.lambda_nc,
        "lambda_reg": args.lambda_reg,
        "weight_sigma2": args.weight_sigma2,
        "spec_rad": args.spec_rad,
        "r_sig": args.r_sig,
        "washout": args.washout,
    }
    return ov


def _load_mnist_if_needed(args, task: str):
    if task != "mnist":
        return None
    if not args.mnist_images or not args.mnist_labels:
        raise UsageError("task=mnist requires --mnist-images and --mnist-labels")
    return tasks.load_mnist(args.mnist_images, args.mnist_labels)


class UsageError(Exception):
    pass


def cmd_bench(args) -> int:
    task = TASK_FLAG_TO_NAME[args.task]
    models = []
    for flag in args.models.split(","):
        flag = flag.strip()
        if flag not in MODEL_FLAG_TO_NAME:
            raise UsageError(f"unknown model {flag!r}")
        if MODEL_FLAG_TO_NAME[flag] in models:
            # a repeated model would run each trial twice and count both
            raise UsageError(f"model {flag!r} given twice")
        models.append(MODEL_FLAG_TO_NAME[flag])
    mnist = _load_mnist_if_needed(args, task)
    grid = [(task, m, args.n, args.n_train, args.n_test) for m in models]
    results = bench_mod.run_experiment(
        grid, repeats=args.repeats, base_seed=args.seed, jobs=args.jobs,
        overrides=_overrides_from_args(args), mnist=mnist,
    )
    bench_mod.write_results_csv(results, args.out,
                                include_wall_time=not args.omit_timing)
    if args.aggregate_out:
        bench_mod.write_aggregate_csv(bench_mod.aggregate(results),
                                      args.aggregate_out)
    return 0


def cmd_analyze_readout(args) -> int:
    task = TASK_FLAG_TO_NAME[args.task]
    model = MODEL_FLAG_TO_NAME[args.model]
    mnist = _load_mnist_if_needed(args, task)
    spec = bench_mod.TrialSpec(task=task, model=model, n=args.n,
                               n_train=args.n_train, n_test=args.n_test,
                               trial_index=args.trial, base_seed=args.seed)
    bundle = bench_mod.readout_analysis(spec, overrides=_overrides_from_args(args),
                                        mnist=mnist)
    esn = bundle["esn"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["neuron", "degree", "normalized_weight", "is_input"])
        for i in range(esn.n):
            writer.writerow([i, int(bundle["degrees"][i]),
                             f"{bundle['w_norm'][i]:.17g}",
                             int(esn.input_mask[i])])
    r = bundle["degree_weight_r"]
    print(f"pearson_r={'' if r is None else f'{r:.17g}'}")
    print(f"score={bundle['score']:.17g}")
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
    _add_topology_flags(p_gen)
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
        _add_topology_flags(p)
        p.add_argument("--spec-rad", type=POSITIVE_FLOAT, default=0.9,
                       help="spectral radius of the recurrent matrix (default 0.9)")
        p.add_argument("--r-sig", type=FRACTION, default=0.1,
                       help="fraction of neurons receiving input (default 0.1)")
        p.add_argument("--washout", type=NONNEGATIVE_INT, default=0,
                       help="initial states discarded before fitting (default 0)")
        p.add_argument("--n-train", type=POSITIVE_INT, required=True)
        p.add_argument("--n-test", type=POSITIVE_INT, default=2000)
        p.add_argument("--seed", type=int)
        p.add_argument("--mnist-images", help="IDX image file (.gz ok)")
        p.add_argument("--mnist-labels", help="IDX label file (.gz ok)")

    p_bench = sub.add_parser("bench", help="run the seeded benchmark grid")
    add_run_flags(p_bench, with_models=True)
    p_bench.add_argument("--repeats", type=POSITIVE_INT, default=100,
                         help="trials per setting (default 100)")
    p_bench.add_argument("--jobs", type=POSITIVE_INT, default=1,
                         help="parallel trial workers")
    p_bench.add_argument("--out", required=True, help="per-trial results CSV")
    p_bench.add_argument("--aggregate-out", help="aggregate CSV path")
    p_bench.add_argument("--omit-timing", action="store_true",
                         help="drop the wall_time_s column for byte-reproducible CSVs")
    p_bench.set_defaults(func=cmd_bench)

    p_an = sub.add_parser("analyze-readout",
                          help="train one model and export per-neuron readout weights")
    add_run_flags(p_an, with_models=False)
    p_an.add_argument("--trial", type=NONNEGATIVE_INT, default=0, help="trial index")
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
