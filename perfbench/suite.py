"""Run every benchmark workload over several seeds, then once traced.

    python3 perfbench/suite.py                       # BENCHMARK.json's workloads, seeds 1-5
    python3 perfbench/suite.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/suite.py --workloads narma-n1500 --seeds 1-3

Each run is ``perfbench/run.py`` in its own process, one after another.
For every workload it prints each end-to-end metric's median, quartiles
and quartile spread (the distance between the quartiles as a share of
the median), the traced run's per-layer table with each function's share
of op time, and the tracing overhead: the untraced ops_per_s of the first
seed against the traced one.  ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    report["line"] = line
    return report


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2 and out["median"] != 0:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=quartile_spread(values))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Run the hubnet benchmark over seeds.")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    p.add_argument("--out", type=Path, default=OUT / "suite.json")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads.split(","):
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
        runs = [run_once(name, seed, args.seconds, 0) for seed in args.seeds]
        metrics = {}
        for key, m in runs[0]["end_to_end"].items():
            values = [r["end_to_end"][key]["value"] for r in runs if key in r["end_to_end"]]
            metrics[key] = {"unit": m["unit"], **summarize(values)}
        entry = {"manifest": runs[0]["manifest"], "end_to_end": metrics,
                 "correct": all(r["line"]["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs)}
        print(f"\n== {name}: {len(runs)} runs of {args.seconds} s, "
              f"correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for key, m in metrics.items():
            spread = m.get("spread")
            gate = f"  (bound {bounds[key]}, spread/bound {spread / bounds[key]:.2f})" \
                if key in bounds and spread is not None else ""
            print(f"  {key:<16} median {m['median']:<12.6g} {m['unit']:<10} "
                  f"spread {'-' if spread is None else f'{spread:.3f}'}{gate}")

        if not args.no_trace:
            seed = args.seeds[0]
            traced = run_once(name, seed, args.seconds, 1)
            plain = runs[0]["end_to_end"]["ops_per_s"]["value"]
            with_trace = traced["per_layer"]["trace.ops_per_s"]
            entry.update(trace_seed=seed, layers=traced["layers"], per_layer=traced["per_layer"],
                         tracing_overhead={"ops_per_s_untraced": plain,
                                           "ops_per_s_traced": with_trace,
                                           "slowdown": plain / with_trace - 1.0})
            print(f"  tracing overhead (seed {seed}): {plain:.4g} untraced vs "
                  f"{with_trace:.4g} traced ops/s ({plain / with_trace - 1.0:+.1%})")
            print(f"  {'layer.function':<40} {'s/op':>10} {'calls/op':>10} {'share':>7}")
            for row in traced["layers"]:
                print(f"  {row['name']:<40} {row['s_per_op']:>10.4g} "
                      f"{row['calls_per_op']:>10.4g} {row['share_of_op_time']:>7.1%}")
        summary["workloads"][name] = entry

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
