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
from dataclasses import dataclass

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
    make_one_step_dataset,
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
    "write_results_csv",
    "write_aggregate_csv",
    "dataset_seed",
    "model_seed",
]

TASKS = ("mackey_glass", "narma10", "mnist")
MODELS = ("esn", "hubesn", "hubesn_rand")

_TASK_ID = {name: i + 1 for i, name in enumerate(TASKS)}
_MODEL_ID = {name: i + 1 for i, name in enumerate(MODELS)}

_MASK64 = (1 << 64) - 1

# images an MNIST trial runs through the reservoir at a time, in lockstep,
# so no trial holds its whole state matrix.  Each recurrent step is one
# 294-row gemm: against 147-image blocks, this and _drive's zero-start skip
# took the median mnist-synth op (n = 500, one BLAS thread, 2-vCPU VM) from
# 1.005 to 0.881 s, with the states summed two steps at a time (10 runs
# each); summed one step at a time they take 0.975 s against 0.857 s.
# Blocks of 588 images raised the traced peak of a 1,000-image n = 60 trial
# from 5.8 to 9.3 MB
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


def dataset_seed(base_seed: int, task: str, n_train: int, trial_index: int) -> int:
    """Seed for the trial's dataset stream; model-independent by design."""
    return _mix(base_seed, _TASK_ID[task], n_train, trial_index)


def model_seed(base_seed: int, task: str, n_train: int, trial_index: int,
               model: str) -> int:
    """Seed for model construction; mixes a model id on top of the dataset seed."""
    return _mix(base_seed, _TASK_ID[task], n_train, trial_index, _MODEL_ID[model])


@dataclass(frozen=True)
class TrialSpec:
    task: str
    model: str
    n: int
    n_train: int
    n_test: int
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
        return dataset_seed(self.base_seed, self.task, self.n_train, self.trial_index)

    @property
    def model_seed(self) -> int:
        return model_seed(self.base_seed, self.task, self.n_train,
                          self.trial_index, self.model)


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

    ``step_scores`` holds one (T, C) score matrix per image, for example
    as a (k, T, C) array.  Each of an image's timesteps votes the argmax
    of its score vector; vote ties break toward the class with the largest
    summed score, then the lowest class index.
    """
    labels = np.asarray(labels)
    lengths = [len(scores) for scores in step_scores]
    if not lengths or len(lengths) != labels.shape[0]:
        raise HubnetError("need one score matrix per label")
    if min(lengths) == 0:
        raise HubnetError("every score matrix needs at least one timestep")
    scores = np.concatenate(step_scores).astype(float, copy=False)
    shape = (len(lengths), scores.shape[1])
    image = np.repeat(np.arange(shape[0]), lengths)
    votes, sums = np.zeros(shape, dtype=int), np.zeros(shape)
    np.add.at(votes, (image, scores.argmax(axis=1)), 1)
    # add.at sums each image's timesteps in order, as a per-image sum does
    np.add.at(sums, image, scores)
    # argmax takes the first of equal sums, the lowest class index
    pred = np.where(votes == votes.max(axis=1, keepdims=True), sums, -np.inf).argmax(axis=1)
    return float(np.mean(pred == labels))


def _time_series_split(spec: TrialSpec):
    if spec.task == "mackey_glass":
        mg = MackeyGlassConfig(length=spec.n_train + spec.n_test + 1)
        _, series = mackey_glass(mg)
        train, test = make_one_step_dataset(series, spec.n_train, spec.n_test)
        return train.inputs, train.targets, test.inputs, test.targets
    # NARMA pairs input u(t) with target x(t+1); no shifted-series split
    ds = narma10(NarmaConfig(length=spec.n_train + spec.n_test, seed=spec.dataset_seed))
    return (ds.inputs[: spec.n_train], ds.targets[: spec.n_train],
            ds.inputs[spec.n_train: spec.n_train + spec.n_test],
            ds.targets[spec.n_train: spec.n_train + spec.n_test])


def _mnist_steps(esn, mnist: MnistData, indices: np.ndarray):
    """States of the images ``indices`` names, one column step at a time.

    The images run through the reservoir ``BLOCK_IMAGES`` at a time, in
    lockstep.  Yields ``(i0, t, states, onehot)``: ``states[b]`` is the
    state of block image b, image i0 + b of ``indices``, after column t, a
    view of ``harvest_steps``'s reused buffer, and ``onehot`` holds the
    block's targets.
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
    for _, t, states, onehot in steps:
        if t >= washout:
            yield states, onehot
        # |S| overwrites the states, which the fit no longer needs
        col_abs += np.abs(states, out=states).sum(axis=0)


def _mnist_readout(esn, mnist: MnistData, train_idx: np.ndarray):
    """MNIST readout and column sums of |S|, without holding the state matrix S.

    S holds the kept column states of each block of images, step-major:
    column t of every block image, then column t + 1, each image's first
    ``washout`` columns left out.  ``stream_readout`` fits it one step of
    a block at a time; each pass it makes harvests the training images
    again and sums ``col_abs`` afresh, to the same bits.
    """
    washout = esn.config.washout
    if washout >= mnist.images.shape[2]:
        raise HubnetError("washout leaves no rows to fit")
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


def readout_analysis(spec: TrialSpec, overrides: dict | None = None,
                     mnist: MnistData | None = None) -> dict:
    """Train one model on the trial's shared dataset; return the full bundle.

    ``overrides`` sets topology fields (density, alpha, ...) and any other
    ``EsnConfig`` field by name.
    """
    overrides = dict(overrides or {})
    topo_kwargs = {
        "n": spec.n,
        "mode": "random" if spec.model == "esn" else "hub",
        "seed": spec.model_seed,
    }
    for key in ("density", "alpha", "beta", "lambda_dc", "lambda_nc",
                "lambda_reg", "weight_sigma2"):
        if key in overrides:
            topo_kwargs[key] = overrides.pop(key)
    cfg = EsnConfig(**{
        "n": spec.n,
        "input_dim": 28 if spec.task == "mnist" else 1,
        "injection": "hub" if spec.model == "hubesn" else "random",
        "seed": spec.model_seed,
        "topology": TopologyConfig(**topo_kwargs),
        **overrides,
    })
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
        w_out = fit_readout(train_states, train_tg, washout=cfg.washout)
        # |S| overwrites the train states, which are dropped before the
        # test states are harvested from the last one
        s0 = train_states[-1].copy()
        col_abs = np.abs(train_states, out=train_states).sum(axis=0)
        del train_states
        score = rmse(harvest(esn, test_in, s0=s0) @ w_out, test_tg)

    w_norm = normalized_readout_weights(w_out, col_abs)
    degrees = node_degrees(esn.network)
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


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


RESULT_COLUMNS = ["task", "model", "n", "n_train", "n_test", "trial", "seed",
                  "score", "degree_weight_r", "wall_time_s"]

AGGREGATE_COLUMNS = ["task", "model", "n", "n_train", "mean", "sd", "count",
                     "ratio_to_esn_mean_of_ratios", "ratio_to_esn_ratio_of_means"]


def write_results_csv(results: list[TrialResult], path,
                      include_wall_time: bool = True) -> None:
    """Per-trial CSV; wall time can be omitted for byte-reproducible output."""
    cols = RESULT_COLUMNS if include_wall_time else RESULT_COLUMNS[:-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in results:
            row = [r.spec.task, r.spec.model, r.spec.n, r.spec.n_train,
                   r.spec.n_test, r.spec.trial_index, r.spec.dataset_seed,
                   _fmt(r.score), _fmt(r.degree_weight_r)]
            if include_wall_time:
                row.append(_fmt(r.wall_time))
            writer.writerow(row)


def write_aggregate_csv(aggregates: list[AggregateResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for a in aggregates:
            writer.writerow([a.task, a.model, a.n, a.n_train, _fmt(a.mean),
                             _fmt(a.sd), a.count,
                             _fmt(a.ratio_to_esn_mean_of_ratios),
                             _fmt(a.ratio_to_esn_ratio_of_means)])
