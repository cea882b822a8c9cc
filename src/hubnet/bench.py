"""Seeded benchmark harness comparing ESN, HubESN, and HubESN-rand.

Each trial derives a dataset seed from (base_seed, task, n_train,
trial_index) only, so the three model variants of one trial consume the
same dataset bytes; model construction mixes in a model id on top.
Trials are independent and may run concurrently; aggregation sorts by
grid point and trial index, so results do not depend on the job count.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import HubnetError, check_int
from .netmetrics import node_degrees
from .reservoir import (
    EsnConfig,
    fit_readout,
    harvest,
    harvest_steps,
    init_esn,
    normalized_readout_weights,
    pearson,
    stream_readout,
)
from .tasks import (
    MackeyGlassConfig,
    MnistData,
    NarmaConfig,
    mackey_glass,
    mnist_sequences,
    narma10,
)
from .topology import TopologyConfig

__all__ = [
    "TrialSpec",
    "TrialResult",
    "AggregateResult",
    "rmse",
    "majority_vote_accuracy",
    "run_trial",
    "run_experiment",
    "aggregate",
    "write_csv",
    "write_results_csv",
    "write_aggregate_csv",
]

TASKS = ("mackey_glass", "narma10", "mnist")
MODELS = ("esn", "hubesn", "hubesn_rand")

_TASK_ID = {name: i + 1 for i, name in enumerate(TASKS)}
_MODEL_ID = {name: i + 1 for i, name in enumerate(MODELS)}

_MASK64 = (1 << 64) - 1

# images an MNIST trial runs through the reservoir at a time, in lockstep,
# so no trial holds its whole state matrix.  Each recurrent step is one
# 294-row gemm, and each step's states one 294-row in-place update of
# S^T S.  Against 147-image blocks, this took the median mnist-synth op
# (n = 500, one BLAS thread, 2-vCPU VM) from 1.005 to 0.881 s, with the
# states summed two steps at a time; one step at a time, with the in-place
# update, it takes 0.856 s.  Blocks of 588 images raised the traced peak of
# a 1,000-image n = 60 trial from 5.8 to 9.3 MB
BLOCK_IMAGES = 294


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix(*values: int) -> int:
    h = 0
    for v in values:
        h = _splitmix64(h ^ (int(v) & _MASK64))
    return h


@dataclass(frozen=True)
class TrialSpec:
    task: str
    model: str
    n: int
    n_train: int
    n_test: int = 2000
    trial_index: int = 0
    base_seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise HubnetError(f"unknown task {self.task!r}")
        if self.model not in MODELS:
            raise HubnetError(f"unknown model {self.model!r}")
        for name, low in (("n", 1), ("n_train", 1), ("n_test", 1), ("trial_index", 0),
                          ("base_seed", None)):
            check_int(name, getattr(self, name), low)

    @property
    def dataset_seed(self) -> int:
        return _mix(self.base_seed, _TASK_ID[self.task], self.n_train, self.trial_index)

    @property
    def model_seed(self) -> int:
        return _mix(self.base_seed, _TASK_ID[self.task], self.n_train, self.trial_index,
                    _MODEL_ID[self.model])


@dataclass
class TrialResult:
    spec: TrialSpec
    score: float
    degree_weight_r: float | None
    wall_time: float


@dataclass
class AggregateResult:
    task: str
    model: str
    n: int
    n_train: int
    mean: float
    sd: float
    count: int
    ratio_to_esn_mean_of_ratios: float | None
    ratio_to_esn_ratio_of_means: float | None


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean square error over all elements."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.size == 0 or pred.shape != target.shape:
        raise HubnetError("rmse needs two nonempty arrays of equal shape")
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def majority_vote_accuracy(step_scores, labels) -> float:
    """Classification accuracy under per-timestep majority voting.

    ``step_scores`` is a (k, T, C) array, the (T, C) score matrix of each
    of k images.  Each of an image's timesteps votes the argmax of its
    score vector; vote ties break toward the class with the largest summed
    score, then the lowest class index.
    """
    scores = np.asarray(step_scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 3 or len(scores) == 0 or len(scores) != labels.shape[0]:
        raise HubnetError("need one score matrix per label")
    if scores.shape[1] == 0:
        raise HubnetError("every score matrix needs at least one timestep")
    votes = (scores.argmax(axis=2)[..., None] == np.arange(scores.shape[2])).sum(axis=1)
    # a sum over the timestep axis adds each image's timesteps in order
    sums = scores.sum(axis=1)
    # argmax takes the first of equal sums, the lowest class index
    pred = np.where(votes == votes.max(axis=1, keepdims=True), sums, -np.inf).argmax(axis=1)
    return float(np.mean(pred == labels))


def _time_series_split(spec: TrialSpec):
    """Train inputs and targets, then test inputs and targets, each (rows, 1).

    Both tasks make ``n_train + n_test`` aligned pairs and split them at
    ``n_train``: Mackey-Glass pairs series[t] with series[t + 1], one step
    ahead, and NARMA10 pairs u(t) with x(t + 1).
    """
    length = spec.n_train + spec.n_test
    if spec.task == "mackey_glass":
        _, series = mackey_glass(MackeyGlassConfig(length=length + 1))
        inputs, targets = series[:-1, None], series[1:, None]
    else:
        inputs, targets = narma10(NarmaConfig(length=length, seed=spec.dataset_seed))
    k = spec.n_train
    return inputs[:k], targets[:k], inputs[k:], targets[k:]


def _mnist_steps(esn, mnist: MnistData, indices: np.ndarray):
    """States of the images ``indices`` names, one column step at a time.

    The images run through the reservoir ``BLOCK_IMAGES`` at a time, in
    lockstep.  Yields ``(i0, t, states, onehot)``: ``states[b]`` is the
    state of block image b, image i0 + b of ``indices``, after column t, a
    read-only view that ``harvest_steps`` overwrites two steps later, and
    ``onehot`` holds the block's targets.
    """
    for i0 in range(0, len(indices), BLOCK_IMAGES):
        inputs, onehot = mnist_sequences(mnist, indices[i0:i0 + BLOCK_IMAGES])
        for t, states in enumerate(harvest_steps(esn, inputs)):
            yield i0, t, states, onehot


def _train_rows(steps, washout: int, col_abs: np.ndarray):
    """(S, Y) row blocks for ``stream_readout``, one per column step of a block.

    Every image drops its first ``washout`` steps from the fit, as each
    starts from the zero state, but not from ``col_abs``, which each
    step's column sums of |S| are added to once the fit has summed it.
    """
    # |S| goes to one buffer of a block's rows: the states are read-only
    scratch = np.empty((BLOCK_IMAGES, col_abs.size))
    for _, t, states, onehot in steps:
        if t >= washout:
            yield states, onehot
        col_abs += np.abs(states, out=scratch[:len(states)]).sum(axis=0)


def _mnist_readout(esn, mnist: MnistData, train_idx: np.ndarray):
    """MNIST readout and column sums of |S|, without holding the state matrix S.

    S holds the kept column states of each block of images, step-major:
    column t of every block image, then column t + 1, each image's first
    ``washout`` columns left out.  ``stream_readout`` fits it one step of
    a block at a time; each pass it makes harvests the training images
    again and sums ``col_abs`` afresh, to the same bits.
    """
    washout = esn.config.washout
    col_abs = np.zeros(esn.n)

    def blocks():
        col_abs[:] = 0.0
        return _train_rows(_mnist_steps(esn, mnist, train_idx), washout, col_abs)

    return stream_readout(blocks, (esn.n, 10)), col_abs


def _mnist_step_scores(esn, mnist: MnistData, test_idx: np.ndarray,
                       w_out: np.ndarray) -> np.ndarray:
    """Readout scores of every test image and column, (k, 28, 10)."""
    step_scores = np.empty((len(test_idx), mnist.images.shape[2], w_out.shape[1]))
    for i0, t, states, _ in _mnist_steps(esn, mnist, test_idx):
        step_scores[i0:i0 + len(states), t] = states @ w_out
    return step_scores


# the run settings, the only fields overrides may set, with their flags'
# help.  A trial sets n, seed, mode, injection, input_dim and topology
# itself, and its spectral rescale cancels the weight variance
TOPOLOGY_FLAGS = {
    "density": "fraction of off-diagonal edges retained",
    "alpha": "distance-constraint exponent",
    "beta": "index-sum-constraint exponent",
    "lambda_dc": "distance-constraint weight",
    "lambda_nc": "index-sum-constraint weight",
    "lambda_reg": "random-regularizer weight",
}
ESN_FLAGS = {
    "spec_rad": "spectral radius of the recurrent matrix",
    "r_sig": "fraction of neurons receiving input",
    "washout": "initial states discarded before fitting",
}


def esn_config(spec: TrialSpec, overrides: dict | None = None) -> EsnConfig:
    """The reservoir config of one trial.

    ``overrides`` sets run settings, the ``TOPOLOGY_FLAGS`` and
    ``ESN_FLAGS`` fields, by name; any other name is a ``HubnetError``,
    and so is a washout that drops every training step of a sequence: all
    ``n_train`` of a time series, or all 28 columns of an MNIST image.
    """
    esn = dict(overrides or {})
    unknown = sorted(set(esn) - {*TOPOLOGY_FLAGS, *ESN_FLAGS})
    if unknown:
        raise HubnetError(f"no setting is named {unknown[0]!r}")
    topo = {k: esn.pop(k) for k in TOPOLOGY_FLAGS if k in esn}
    cfg = EsnConfig(**{
        "n": spec.n,
        "input_dim": 28 if spec.task == "mnist" else 1,
        "injection": "hub" if spec.model == "hubesn" else "random",
        "seed": spec.model_seed,
        "topology": TopologyConfig(**{
            "n": spec.n,
            "mode": "random" if spec.model == "esn" else "hub",
            "seed": spec.model_seed,
            **topo,
        }),
        **esn,
    })
    if cfg.washout >= (28 if spec.task == "mnist" else spec.n_train):
        raise HubnetError("washout leaves no rows to fit")
    return cfg


def readout_analysis(spec: TrialSpec, overrides: dict | None = None,
                     mnist: MnistData | None = None) -> dict:
    """Train one model on the trial's shared dataset; return the full bundle.

    ``overrides`` are the settings ``esn_config`` takes.
    """
    cfg = esn_config(spec, overrides)
    if spec.task == "mnist":
        if mnist is None:
            raise HubnetError("mnist task requires loaded MnistData")
        ds_rng = np.random.default_rng(spec.dataset_seed)
        if spec.n_train + spec.n_test > mnist.count:
            raise HubnetError("not enough MNIST images for the requested split")
        perm = ds_rng.permutation(mnist.count)
        train_idx = perm[: spec.n_train]
        test_idx = perm[spec.n_train: spec.n_train + spec.n_test]

        esn = init_esn(cfg)
        w_out, col_abs = _mnist_readout(esn, mnist, train_idx)
        step_scores = _mnist_step_scores(esn, mnist, test_idx, w_out)
        score = majority_vote_accuracy(step_scores, mnist.labels[test_idx])
    else:
        train_in, train_tg, test_in, test_tg = _time_series_split(spec)
        esn = init_esn(cfg)
        train_states = harvest(esn, train_in)
        # the washout leaves the fit, not col_abs, which sums every state
        w_out = fit_readout(train_states[cfg.washout:], train_tg[cfg.washout:])
        # |S| overwrites the train states, which are dropped before the
        # test states are harvested from the last one
        s0 = train_states[-1].copy()
        col_abs = np.abs(train_states, out=train_states).sum(axis=0)
        del train_states
        score = rmse(harvest(esn, test_in, s0=s0) @ w_out, test_tg)

    w_norm = normalized_readout_weights(w_out, col_abs)
    degrees = node_degrees(esn.w_rec)
    return {
        "esn": esn,
        "w_out": w_out,
        "score": score,
        "w_norm": w_norm,
        "degrees": degrees,
        "degree_weight_r": pearson(w_norm, degrees),
    }


def run_trial(spec: TrialSpec, overrides: dict | None = None,
              mnist: MnistData | None = None) -> TrialResult:
    """Build the model, run the shared dataset through it, score it."""
    start = time.perf_counter()
    bundle = readout_analysis(spec, overrides, mnist)
    if not np.isfinite(bundle["score"]):
        raise HubnetError(f"non-finite score for {spec}")
    return TrialResult(spec=spec, score=bundle["score"],
                       degree_weight_r=bundle["degree_weight_r"],
                       wall_time=time.perf_counter() - start)


def run_experiment(grid, repeats: int, base_seed: int, jobs: int = 1,
                   overrides: dict | None = None,
                   mnist: MnistData | None = None) -> list[TrialResult]:
    """Run ``repeats`` trials for every (task, model, n, n_train, n_test).

    Results come back sorted by grid point then trial index, independent
    of the degree of parallelism.
    """
    check_int("repeats", repeats, 1)
    check_int("jobs", jobs, 1)
    specs = [
        TrialSpec(task=task, model=model, n=n, n_train=n_train,
                  n_test=n_test, trial_index=t, base_seed=base_seed)
        for task, model, n, n_train, n_test in grid
        for t in range(repeats)
    ]
    runner = lambda s: run_trial(s, overrides=overrides, mnist=mnist)
    # more workers than trials or CPUs would only idle or contend
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers <= 1:
        return [runner(s) for s in specs]
    # imported here: concurrent.futures imports logging, which only a
    # parallel run needs
    from concurrent.futures import ThreadPoolExecutor

    # pool.map preserves submission order, so the output ordering is
    # identical to the sequential run regardless of worker count
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(runner, specs))


def aggregate(results: list[TrialResult]) -> list[AggregateResult]:
    """Per-setting mean/SD plus both ratio constructions against the ESN baseline."""
    by_point: dict[tuple, list[TrialResult]] = {}
    for r in results:
        key = (r.spec.task, r.spec.model, r.spec.n, r.spec.n_train)
        by_point.setdefault(key, []).append(r)

    out = []
    for (task, model, n, n_train), rs in by_point.items():
        rs = sorted(rs, key=lambda r: r.spec.trial_index)
        scores = np.array([r.score for r in rs])
        base_key = (task, "esn", n, n_train)
        mean_of_ratios = ratio_of_means = None
        if base_key in by_point:
            base = sorted(by_point[base_key], key=lambda r: r.spec.trial_index)
            base_scores = np.array([r.score for r in base])
            if base_scores.shape == scores.shape and np.all(base_scores != 0.0):
                mean_of_ratios = float(np.mean(scores / base_scores))
                ratio_of_means = float(scores.mean() / base_scores.mean())
        out.append(AggregateResult(
            task=task, model=model, n=n, n_train=n_train,
            mean=float(scores.mean()), sd=float(scores.std()),
            count=len(rs),
            ratio_to_esn_mean_of_ratios=mean_of_ratios,
            ratio_to_esn_ratio_of_means=ratio_of_means,
        ))
    return out


def format_value(x) -> str:
    """A table cell or printed value: a float to 17 significant digits, None as ""."""
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, every cell through ``format_value``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_value(x) for x in row] for row in rows)


RESULT_COLUMNS = ["task", "model", "n", "n_train", "n_test", "trial", "seed",
                  "score", "degree_weight_r", "wall_time_s"]

AGGREGATE_COLUMNS = [f.name for f in fields(AggregateResult)]


def write_results_csv(results: list[TrialResult], path,
                      include_wall_time: bool = True) -> None:
    """Per-trial CSV; wall time can be omitted for byte-reproducible output."""
    cols = RESULT_COLUMNS if include_wall_time else RESULT_COLUMNS[:-1]
    write_csv(path, cols, ([r.spec.task, r.spec.model, r.spec.n, r.spec.n_train,
                            r.spec.n_test, r.spec.trial_index, r.spec.dataset_seed,
                            r.score, r.degree_weight_r, r.wall_time][:len(cols)]
                           for r in results))


def write_aggregate_csv(aggregates: list[AggregateResult], path) -> None:
    write_csv(path, AGGREGATE_COLUMNS, (astuple(a) for a in aggregates))
