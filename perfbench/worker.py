"""One workload in a fresh Python process: set up, run the closed loop, check.

``perfbench/run.py`` starts this module with the BLAS thread count already
fixed in the environment; it is not meant to be run by hand.  With
``--setup-only`` it stops where the first timed op would start and prints
the monotonic time of that moment.  Otherwise it runs the reference block
with tracing paused, which also warms the process up, then the measured
phase, timing the calibration kernel (``calibrate.py``) after each op; it
reads the peak RSS, checks every op's outputs and writes everything to the
``--result`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import calibrate
from perfbench.tracing import Tracer, install, public_functions, span_name
from perfbench.workloads import (
    ALL_MODELS,
    NX_MODULARITY_ATOL,
    REFERENCE_SEED,
    WORKLOADS,
    block_seed,
)

ROOT = Path(__file__).resolve().parent.parent


def import_hubnet():
    """Import hubnet from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hubnet
    import hubnet.cli  # noqa: F401  (binds hubnet.cli for the caller)

    if Path(hubnet.__file__).resolve().parent != src / "hubnet":
        raise SystemExit(f"hubnet was imported from {hubnet.__file__}, not {src}")
    return hubnet


def blas_runtime() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    import ctypes

    info = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
                    return info
    return info


def layer_modules(hubnet):
    return [hubnet.cli, hubnet.bench, hubnet.topology, hubnet.reservoir,
            hubnet.netmetrics, hubnet.tasks]


# --- observers: run after a wrapped call returns ---

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_harvest(tracer, args, kwargs, result, seconds):
    esn, inputs = args[0], _arg(args, kwargs, 1, "inputs")
    steps, n, d = len(inputs), esn.n, esn.config.input_dim
    tracer.add("harvest.steps", steps)
    tracer.add("harvest.flop", 2.0 * n * n * steps + 2.0 * n * d * steps)


def _count_fit_rows(tracer, args, kwargs, result, seconds):
    states = _arg(args, kwargs, 0, "states")
    tracer.add("fit_readout.rows", len(states) - _arg(args, kwargs, 2, "washout", 0))


def _count_json_bytes(tracer, args, kwargs, result, seconds):
    tracer.add("save_network.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_capacity(tracer, args, kwargs, result, seconds):
    tracer.add("run_experiment.capacity_s", _arg(args, kwargs, 3, "jobs", 1) * seconds)


def _trial_id(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    return f"{spec.task}/{spec.model}/{spec.base_seed}/{spec.trial_index}"


class Run:
    """State of one worker process: the tracer and what the observers capture."""

    def __init__(self, hubnet, workload, trace: bool):
        self.hubnet = hubnet
        self.wl = workload
        self.tracer = Tracer()
        self.trials = []  # (seconds, TrialResult), appended from worker threads
        self.captured = {}
        self.partitions = []  # (op, labels, Q) of graph ops that passed
        self.failures = []
        # calibration kernel times, one after each measured op; a traced run
        # times none, as the kernel would count in its parent spans
        self.calibrating = not trace
        self.kernel_s = []
        self.kernel_spent = 0.0
        h = hubnet
        options = {}
        if workload.kind == "trials":
            options[h.bench.run_trial] = {"observe": self._log_trial, "trial_of": _trial_id}
        else:
            options[h.topology.generate_network] = {"observe": self._capture("generated")}
            options[h.topology.load_network] = {"observe": self._capture("loaded")}
            options[h.netmetrics.louvain_partition] = {"observe": self._capture("labels")}
        functions = list(options)
        if trace:
            options[h.reservoir.harvest] = {"observe": _count_harvest}
            options[h.reservoir.fit_readout] = {"observe": _count_fit_rows}
            options[h.topology.save_network] = {"observe": _count_json_bytes}
            options[h.bench.run_experiment] = {"observe": _count_capacity}
            functions = public_functions(layer_modules(h)) + [h.cli.main]
        install(self.tracer, [h] + layer_modules(h), functions, options)
        self.traced = sorted({span_name(fn) for fn in functions})

    def _log_trial(self, tracer, args, kwargs, result, seconds):
        self.trials.append((seconds, result))
        if tracer.recording and self.calibrating:
            self.time_kernel()

    def time_kernel(self) -> None:
        """Time the calibration kernel between two ops.

        Every workload runs one job, so nothing else runs meanwhile.
        """
        start = time.perf_counter()
        self.kernel_s += calibrate.measure()
        self.kernel_spent += time.perf_counter() - start

    def _capture(self, key):
        def observe(tracer, args, kwargs, result, seconds):
            self.captured[key] = result
        return observe

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # --- trial workloads: ``hubnet bench`` blocks ---

    def bench_block(self, argv, out_csv):
        """Run one ``hubnet bench`` call; return (seconds, trials logged, exit code).

        The seconds leave out the calibration kernel run after each trial.
        """
        first = len(self.trials)
        spent = self.kernel_spent
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.hubnet.cli.main(argv)
        seconds = time.perf_counter() - start - (self.kernel_spent - spent)
        return seconds, self.trials[first:], rc

    def check_bench_block(self, rc, out_csv, trials, expected: int, tag: str) -> list:
        """``((model, trial), score)`` of the CSV rows that pass every check."""
        if rc != 0:
            self.fail(f"{tag}: hubnet bench exited {rc}")
            return []
        logged = {(r.spec.model, r.spec.trial_index): r.score for _, r in trials}
        try:
            with open(out_csv, newline="") as fh:
                rows = [((row["model"], int(row["trial"])), float(row["score"]))
                        for row in csv.DictReader(fh)]
        except (OSError, KeyError, ValueError) as exc:
            self.fail(f"{tag}: unreadable results CSV: {exc}")
            return []
        if len(rows) != expected:
            self.fail(f"{tag}: {len(rows)} CSV rows, expected {expected}")
        good = []
        for key, score in rows:
            if not math.isfinite(score):
                self.fail(f"{tag} {key}: non-finite score {score!r}")
            elif logged.get(key) != score:
                self.fail(f"{tag} {key}: CSV score {score!r} is not run_trial's "
                          f"{logged.get(key)!r}")
            elif not self.wl.score_ok(score):
                self.fail(f"{tag} {key}: score {score!r} outside the sanity limit "
                          f"{self.wl.score_limit}")
            else:
                good.append((key, score))
        return good

    def run_trials(self, seed: int, seconds: float, workdir: Path, mnist) -> dict:
        wl = self.wl
        per_block = len(ALL_MODELS.split(",")) * wl.repeats
        elapsed, attempted, failed, block = 0.0, 0, 0, 0
        quality_scores, latencies, block_s = [], [], []
        while elapsed < seconds or attempted < wl.min_ops:
            out_csv = workdir / f"results-{block}.csv"
            argv = wl.bench_argv(block_seed(seed, block), str(out_csv), mnist)
            took, trials, rc = self.bench_block(argv, out_csv)
            elapsed += took
            block_s.append(took)
            latencies += [s for s, _ in trials]
            self.tracer.recording = False
            good = self.check_bench_block(rc, out_csv, trials, per_block, f"block {block}")
            self.tracer.recording = True
            attempted += per_block
            failed += per_block - len(good)
            if len(quality_scores) < wl.min_ops:
                quality_scores += [score for _, score in good]
            block += 1
        return {"phase_s": elapsed, "latencies": latencies, "attempted": attempted,
                "failed": failed, "quality_scores": quality_scores[:wl.min_ops],
                "block_s": block_s, "kernel_s": self.kernel_s}

    def reference_trials(self, workdir: Path, mnist) -> tuple[dict, int, int]:
        wl = self.wl
        out_csv = workdir / "reference.csv"
        argv = wl.bench_argv(REFERENCE_SEED, str(out_csv), mnist, repeats=1)
        _, trials, rc = self.bench_block(argv, out_csv)
        expected = len(ALL_MODELS.split(","))
        good = self.check_bench_block(rc, out_csv, trials, expected, "reference")
        scores = {f"{model}/{trial}": score for (model, trial), score in good}
        return {"scores": scores}, expected, expected - len(scores)

    # --- graph workload: gen then metrics ---

    def graph_op(self, seed: int, net_path: Path, degrees_path: Path):
        """Run gen then metrics; return (seconds, exit codes, metrics stdout)."""
        cli = self.hubnet.cli
        out = io.StringIO()
        start = time.perf_counter()
        rc_gen = cli.main(self.wl.gen_argv(seed, str(net_path)))
        with contextlib.redirect_stdout(out):
            rc_metrics = cli.main(self.wl.metrics_argv(str(net_path), str(degrees_path)))
        return time.perf_counter() - start, (rc_gen, rc_metrics), out.getvalue()

    def read_graph_outputs(self, rcs, stdout, degrees_path, tag):
        """Parse the metrics JSON and degrees CSV; return (Q, edges) or None."""
        if rcs != (0, 0):
            self.fail(f"{tag}: gen/metrics exited {rcs}")
            return None
        try:
            q = float(json.loads(stdout)["modularity"])
            with open(degrees_path, newline="") as fh:
                degrees = [int(row["degree"]) for row in csv.DictReader(fh)]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            self.fail(f"{tag}: unreadable metrics output: {exc}")
            return None
        if len(degrees) != self.wl.n:
            self.fail(f"{tag}: {len(degrees)} degree rows, expected {self.wl.n}")
            return None
        if not math.isfinite(q):
            self.fail(f"{tag}: non-finite modularity {q!r}")
            return None
        return q, sum(degrees)

    def check_graph_op(self, op, rcs, stdout, degrees_path) -> float | None:
        tag = f"op {op}"
        parsed = self.read_graph_outputs(rcs, stdout, degrees_path, tag)
        generated = self.captured.pop("generated", None)
        loaded = self.captured.pop("loaded", None)
        labels = self.captured.pop("labels", None)
        if parsed is None:
            return None
        q, degree_sum = parsed
        ok = True
        if generated is None or loaded is None or labels is None:
            self.fail(f"{tag}: gen/metrics did not generate, load and partition a network")
            return None
        if not (np.array_equal(generated.weights, loaded.weights)
                and np.array_equal(generated.coords, loaded.coords)):
            self.fail(f"{tag}: load_network(save_network(net)) differs from net")
            ok = False
        edges = loaded.edge_count
        target = self.hubnet.topology.target_edge_count(self.wl.n, self.wl.density)
        if edges != target:
            self.fail(f"{tag}: {edges} edges, target_edge_count is {target}")
            ok = False
        if degree_sum != 2 * edges:
            self.fail(f"{tag}: degrees sum to {degree_sum}, expected 2 x {edges}")
            ok = False
        if len(labels) != self.wl.n:
            self.fail(f"{tag}: {len(labels)} Louvain labels for {self.wl.n} nodes")
            ok = False
        if not ok:
            return None
        self.partitions.append((op, labels, q))
        return q

    def run_graph(self, seed: int, seconds: float, workdir: Path) -> dict:
        wl = self.wl
        elapsed, op, failed = 0.0, 0, 0
        latencies, quality_scores = [], []
        while elapsed < seconds or op < wl.min_ops:
            net_path = workdir / f"net-{op}.json"
            degrees_path = workdir / f"degrees-{op}.csv"
            self.tracer.set_trial(f"gen+metrics/{block_seed(seed, op)}")
            took, rcs, stdout = self.graph_op(block_seed(seed, op), net_path, degrees_path)
            elapsed += took
            latencies.append(took)
            if self.calibrating:
                self.time_kernel()
            self.tracer.recording = False
            q = self.check_graph_op(op, rcs, stdout, degrees_path)
            self.tracer.recording = True
            failed += q is None
            if op < wl.min_ops and q is not None:
                quality_scores.append(q)
            op += 1
        return {"phase_s": elapsed, "latencies": latencies, "attempted": op,
                "failed": failed, "quality_scores": quality_scores, "block_s": latencies,
                "kernel_s": self.kernel_s}

    def check_partitions_with_networkx(self, workdir: Path) -> int:
        """Recompute each op's Q with networkx; return how many disagree."""
        import networkx as nx

        bad = 0
        for op, labels, q in self.partitions:
            with open(workdir / f"net-{op}.json") as fh:
                doc = json.load(fh)
            n = int(doc["n"])
            a = np.zeros((n, n))
            for i, j, w in doc["edges"]:
                a[int(i), int(j)] = abs(float(w))
            a = np.maximum(a, a.T)
            np.fill_diagonal(a, 0.0)
            graph = nx.from_numpy_array(a)
            labels = np.asarray(labels)
            communities = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
            q_nx = nx.community.modularity(graph, communities, weight="weight")
            if abs(q_nx - q) > NX_MODULARITY_ATOL:
                self.fail(f"op {op}: hubnet modularity {q!r}, networkx {q_nx!r}")
                bad += 1
        return bad

    def reference_graph(self, workdir: Path) -> tuple[dict, int, int]:
        net_path, degrees_path = workdir / "reference-net.json", workdir / "reference-degrees.csv"
        _, rcs, stdout = self.graph_op(REFERENCE_SEED, net_path, degrees_path)
        parsed = self.read_graph_outputs(rcs, stdout, degrees_path, "reference")
        if parsed is None:
            return {}, 1, 1
        q, degree_sum = parsed
        return {"modularity": q, "edges": degree_sum // 2}, 1, 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--mnist", nargs=2, metavar=("IMAGES", "LABELS"))
    p.add_argument("--reference-mnist", nargs=2, metavar=("IMAGES", "LABELS"))
    p.add_argument("--result")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    hubnet = import_hubnet()
    wl = WORKLOADS[args.workload]
    run = Run(hubnet, wl, trace=bool(args.trace))
    if args.mnist:
        hubnet.tasks.load_mnist(*args.mnist)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    workdir = Path(args.workdir)
    # the reference block runs untraced before the measured phase, so that
    # caches fill and lazy set-up finishes before the first timed op
    run.tracer.recording = False
    if wl.kind == "trials":
        reference, ref_attempted, ref_failed = run.reference_trials(workdir, args.reference_mnist)
    else:
        reference, ref_attempted, ref_failed = run.reference_graph(workdir)
        run.captured.clear()
    run.tracer.recording = True

    if wl.kind == "trials":
        phase = run.run_trials(args.seed, args.seconds, workdir, args.mnist)
    else:
        phase = run.run_graph(args.seed, args.seconds, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.tracer.recording = False
    if wl.kind == "graph":
        phase["failed"] += run.check_partitions_with_networkx(workdir)

    result = {
        "ready": ready,
        "peak_rss_mb": peak_rss_mb,
        "reference": reference,
        "reference_attempted": ref_attempted,
        "reference_failed": ref_failed,
        "failures": run.failures,
        "spans": [list(s) for s in run.tracer.spans] if args.trace else [],
        "counts": dict(run.tracer.counts),
        "traced": run.traced,
        "runtime": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "hubnet": hubnet.__version__,
            "openblas": blas_runtime(),
            "machine": platform.machine(),
        },
        **phase,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
