"""hubnet benchmark: one workload per run, in a fresh Python process.

    python3 perfbench/run.py --workload mg-n500 --seed 1 --seconds 20 --trace 0

Workloads: mg-n500, narma-n1500, mnist-synth, graph-n500 (see
``workloads.py``).  The workload process imports hubnet from this
checkout's ``src`` and drives it through ``hubnet.cli.main`` with the argv
a user would type, one call after another.  Around it, ``SETUP_PROBES``
processes run the same set-up alone, and ``setup_s`` is the median of all
of their set-up times.

``ops_per_s`` and ``op_s_p50`` are the raw throughput and median op time.
``ops_per_s_cal`` and ``op_s_p50_cal``, the ones BENCHMARK.json bounds,
are the same scaled to reference machine speed: ``machine_speed`` is the
calibration kernel's reference time over its median time in the run
(``calibrate.py``).

The report goes to stdout, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics and ``--trace 1`` the per-layer metrics that
``BENCHMARK.json`` names; the traced run also writes its spans to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.  Every run writes its
full report, with the run manifest, to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Each run also checks a reference block, run at a fixed seed, against the
scores checked in to ``perfbench/reference.json``.  Each workload fixes its
BLAS thread count; a run refuses a machine with fewer CPUs than the
workload's jobs times BLAS threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats, tracing  # noqa: E402
from perfbench.calibrate import REFERENCE_S  # noqa: E402
from perfbench.synth_idx import write_synthetic_mnist  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ACCURACY_ATOL,
    MNIST_IMAGES,
    MODULARITY_ATOL,
    REFERENCE_SEED,
    RMSE_RTOL,
    WORKLOADS,
    block_seed,
)

SETUP_PROBES = 20  # half before the workload process, half after it
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
OUT = ROOT / "perfbench" / "out"
REFERENCE_FILE = ROOT / "perfbench" / "reference.json"


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    """Digest of hubnet's sources; names the program where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hubnet").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def worker_cmd(args, workdir: Path, mnist, reference_mnist) -> list[str]:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if mnist:
        cmd += ["--mnist", *map(str, mnist), "--reference-mnist", *map(str, reference_mnist)]
    return cmd


def measure_setup(cmd, env) -> float:
    """Seconds from spawning a set-up probe to the moment it is ready."""
    start = time.monotonic()
    done = subprocess.run(cmd + ["--setup-only"], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["ready"] - start


def run_worker(cmd, env, result_path: Path) -> tuple[dict, float]:
    """Run the workload process; return its result and its set-up time."""
    start = time.monotonic()
    done = subprocess.run(cmd + ["--result", str(result_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"workload process exited {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - start


def compare_reference(wl, observed: dict, recorded: dict | None) -> list[str]:
    """Differences between the reference block and the recorded reference."""
    if recorded is None:
        return [f"no recorded reference for {wl.name} in {REFERENCE_FILE.name}"]
    if wl.kind == "graph":
        problems = []
        if observed.get("edges") != recorded["edges"]:
            problems.append(f"reference: {observed.get('edges')} edges, "
                            f"recorded {recorded['edges']}")
        q = observed.get("modularity")
        if q is None or abs(q - recorded["modularity"]) > MODULARITY_ATOL:
            problems.append(f"reference: modularity {q!r}, recorded "
                            f"{recorded['modularity']!r} (tolerance {MODULARITY_ATOL})")
        return problems
    problems = [f"reference {key}: no recorded score to check it against"
                for key in sorted(set(observed["scores"]) - set(recorded["scores"]))]
    for key, want in recorded["scores"].items():
        got = observed["scores"].get(key)
        if got is None:
            continue  # already counted as failed by the workload process
        if wl.task == "mnist":
            ok, tol = abs(got - want) <= ACCURACY_ATOL, f"{ACCURACY_ATOL} absolute"
        else:
            ok, tol = abs(got - want) <= RMSE_RTOL * abs(want), f"{RMSE_RTOL} relative"
        if not ok:
            problems.append(f"reference {key}: score {got!r}, recorded {want!r} "
                            f"(tolerance {tol})")
    return problems


def per_layer_values(result: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer values per op, the span totals, and nesting violations."""
    spans = [tracing.Span(*s) for s in result["spans"]]
    counts = result["counts"]
    ops = len(result["latencies"]) or 1
    selfs = tracing.self_times(spans)
    totals = tracing.totals_by_name(spans, selfs)
    values = {}
    for name in result["traced"]:
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
        for key in ("s", "self_s", "calls"):
            values[f"{name}.{key}"] = t[key] / ops
        values[f"{name}.errors"] = t["errors"]

    def calls(name):
        return totals.get(name, {"calls": 0})["calls"]

    capacity = counts.get("run_experiment.capacity_s", 0.0)
    values.update({
        "reservoir.harvest.steps": counts.get("harvest.steps", 0.0) / ops,
        "reservoir.harvest.gflop_computed": counts.get("harvest.flop", 0.0) / 1e9 / ops,
        "reservoir.fit_readout.rows": counts.get("fit_readout.rows", 0.0) / ops,
        "topology.json_bytes": counts.get("save_network.bytes", 0.0) / ops,
        "tasks.narma10.redraws": (calls("tasks.narma_recursion") - calls("tasks.narma10")) / ops,
        "bench.workers_busy_frac": (totals.get("bench.run_trial", {"s": 0.0})["s"] / capacity
                                    if capacity else 0.0),
        "trace.ops_per_s": ops / result["phase_s"],
    })
    return values, totals, tracing.nesting_violations(spans, selfs)


def layer_table(totals: dict, ops: int, op_time: float) -> list[dict]:
    rows = []
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["s"]):
        rows.append({"name": name, "s_per_op": t["s"] / ops, "self_s_per_op": t["self_s"] / ops,
                     "calls_per_op": t["calls"] / ops, "share_of_op_time": t["s"] / op_time,
                     "errors": t["errors"]})
    return rows


def print_report(report: dict) -> None:
    print(f"manifest: {json.dumps(report['manifest'], sort_keys=True)}")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<18} {m['value']:<14.6g} {m['unit']}")
    if report["layers"]:
        print(f"  {'layer.function':<40} {'s/op':>10} {'self s/op':>10} "
              f"{'calls/op':>10} {'share':>7} {'errors':>6}")
        for row in report["layers"]:
            print(f"  {row['name']:<40} {row['s_per_op']:>10.4g} {row['self_s_per_op']:>10.4g} "
                  f"{row['calls_per_op']:>10.4g} {row['share_of_op_time']:>7.1%} "
                  f"{row['errors']:>6}")
    for message in report["failures"][:20]:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description="Run one hubnet benchmark workload.")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.add_argument("--seconds", type=positive_int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hubnet" / "__init__.py").is_file():
        print(f"error: no hubnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    blas_threads = wl.blas_threads
    if wl.jobs * blas_threads > nproc:
        print(f"error: {wl.name} runs {wl.jobs} jobs x {blas_threads} BLAS threads, "
              f"but this process may use only {nproc} CPUs", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads), MKL_NUM_THREADS=str(blas_threads))

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        mnist = reference_mnist = None
        if wl.task == "mnist":
            mnist = (workdir / "images.idx", workdir / "labels.idx")
            reference_mnist = (workdir / "ref-images.idx", workdir / "ref-labels.idx")
            write_synthetic_mnist(*mnist, count=MNIST_IMAGES, seed=args.seed)
            write_synthetic_mnist(*reference_mnist, count=MNIST_IMAGES, seed=REFERENCE_SEED)
        cmd = worker_cmd(args, workdir, mnist, reference_mnist)
        setups = [measure_setup(cmd, env) for _ in range(SETUP_PROBES // 2)]
        result, setup = run_worker(cmd, env, workdir / "result.json")
        setups += [setup] + [measure_setup(cmd, env) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = json.loads(REFERENCE_FILE.read_text()).get(wl.name)
    mismatches = compare_reference(wl, result["reference"], recorded)
    failures = result["failures"] + mismatches
    attempted = result["attempted"] + result["reference_attempted"]
    failed = result["failed"] + result["reference_failed"] + len(mismatches)

    latencies = result["latencies"]
    ops_per_s = len(latencies) / result["phase_s"]
    op_s_p50 = statistics.median(latencies)
    e2e = {}
    if result["kernel_s"]:  # a traced run times no calibration kernel
        speed = REFERENCE_S / statistics.median(result["kernel_s"])
        e2e.update({"ops_per_s_cal": (ops_per_s / speed, "1/s"),
                    "op_s_p50_cal": (op_s_p50 * speed, "s"),
                    "machine_speed": (speed, "x")})
    e2e.update({
        "ops_per_s": (ops_per_s, "1/s"),
        "op_s_p50": (op_s_p50, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_frac": (failed / attempted, "fraction"),
    })
    scores = result["quality_scores"]
    if scores:
        quality = stats.geomean(scores) if wl.quality == "rmse_geomean" else statistics.mean(scores)
        e2e[wl.quality] = (quality, "RMSE" if wl.quality == "rmse_geomean" else "fraction")
    tail = stats.tail(latencies)
    if tail is not None:
        e2e["op_s_tail"] = (tail[1], "s")
        e2e["op_s_tail_pct"] = (tail[0], "percentile")
        e2e["op_s_tail_n"] = (len(latencies), "ops")

    layers, per_layer = [], {}
    if args.trace:
        per_layer, totals, violations = per_layer_values(result)
        failures += violations
        layers = layer_table(totals, len(latencies) or 1, sum(latencies) or 1.0)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in result["spans"]:
                fh.write(json.dumps(dict(zip(tracing.Span._fields, s))) + "\n")

    openblas = result["runtime"]["openblas"]
    first_argv = (wl.bench_argv(block_seed(args.seed, 0), "results-0.csv",
                                ("images.idx", "labels.idx") if mnist else None)
                  if wl.kind == "trials" else
                  wl.gen_argv(block_seed(args.seed, 0), "net-0.json")
                  + wl.metrics_argv("net-0.json", "degrees-0.csv"))
    report = {
        "manifest": {
            "git_commit": git_commit(), "hubnet_source_sha256": source_sha256(),
            "hubnet": result["runtime"]["hubnet"], "python": result["runtime"]["python"],
            "numpy": result["runtime"]["numpy"], "openblas": openblas["config"],
            "blas_threads": blas_threads, "blas_threads_runtime": openblas["threads"],
            "jobs": wl.jobs, "nproc": nproc, "machine": result["runtime"]["machine"],
            "argv": [Path(sys.argv[0]).name] + sys.argv[1:], "hubnet_argv_block0": first_argv,
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blocks": len(result["block_s"]), "setup_samples_s": setups,
            "run_wall_s": time.monotonic() - started,
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": per_layer,
        "layers": layers,
        "block_s": result["block_s"],
        "kernel_s": result["kernel_s"],
        "latencies": latencies,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print_report(report)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else {k: v for k, (v, _) in e2e.items()}
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
