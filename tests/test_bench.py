import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hubnet import bench, reservoir
from hubnet.bench import (
    AggregateResult,
    TrialResult,
    TrialSpec,
    aggregate,
    esn_config,
    majority_vote_accuracy,
    readout_analysis,
    rmse,
    run_experiment,
    run_trial,
    write_aggregate_csv,
    write_results_csv,
)
from hubnet.errors import HubnetError
from hubnet.tasks import MnistData, load_mnist, mnist_sequences
from hubnet.topology import TopologyConfig

SMALL = dict(n=30, n_train=60, n_test=20)


def spec(model="esn", task="mackey_glass", trial=0, seed=0, **kw):
    params = {**SMALL, **kw}
    return TrialSpec(task=task, model=model, trial_index=trial,
                     base_seed=seed, **params)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(task="lorenz")
    with pytest.raises(ValueError):
        spec(model="lstm")
    # a negative n_train used to fit 6 rows and score 2, with score 0.0
    for field, value, message in [("n", 0, "n must be >= 1, got 0"),
                                  ("n_train", -2, "n_train must be >= 1, got -2"),
                                  ("n_test", 0, "n_test must be >= 1, got 0"),
                                  ("trial", -1, "trial_index must be nonnegative, got -1")]:
        with pytest.raises(HubnetError, match=message):
            spec(task="narma10", **{field: value})


# the spectral-radius rescale cancels the scale of the weights, and the
# regularizer term is divided by its own maximum, so the weight variance
# is no run setting
@pytest.mark.parametrize("task", ["mackey_glass", "narma10"])
def test_weight_variance_leaves_the_reservoir(task):
    cfg = esn_config(spec("hubesn", task=task))
    base, *others = [
        reservoir.init_esn(replace(cfg, topology=replace(cfg.topology, weight_sigma2=v)))
        for v in (1.0 / 3.0, 1.0, 7.0)]
    for esn in others:
        assert np.array_equal(esn.input_mask, base.input_mask)
        assert np.array_equal(esn.w_rec != 0.0, base.w_rec != 0.0)
        assert np.max(np.abs(esn.w_rec - base.w_rec)) <= 1e-14 * np.max(np.abs(base.w_rec))


def test_dataset_seed_is_model_independent():
    assert spec("esn").dataset_seed == spec("hubesn").dataset_seed
    assert spec("esn").dataset_seed == spec("hubesn_rand").dataset_seed
    assert spec("esn", trial=0).dataset_seed != spec("esn", trial=1).dataset_seed
    assert spec("esn", seed=0).dataset_seed != spec("esn", seed=1).dataset_seed


def test_model_seeds_differ_across_models():
    seeds = {spec(m).model_seed for m in ("esn", "hubesn", "hubesn_rand")}
    assert len(seeds) == 3
    narma, mg = spec(task="narma10", trial=2), spec(task="mackey_glass", trial=2)
    assert narma.dataset_seed != mg.dataset_seed
    assert narma.model_seed != narma.dataset_seed


def test_esn_config_applies_overrides_by_field_name():
    s = spec("hubesn", task="narma10")
    cfg = esn_config(s, {"density": 0.3, "lambda_reg": 0.25, "spec_rad": 0.8, "washout": 4})
    assert (cfg.topology.density, cfg.topology.lambda_reg, cfg.topology.mode) == (0.3, 0.25, "hub")
    assert (cfg.spec_rad, cfg.washout, cfg.injection) == (0.8, 4, "hub")
    assert cfg.seed == cfg.topology.seed == s.model_seed
    assert esn_config(spec("esn")).topology.mode == "random"
    # a key that names no field used to raise a raw TypeError
    with pytest.raises(HubnetError, match="no setting is named 'bogus'"):
        readout_analysis(s, {"bogus": 1})


# the trial sets these itself, and the spectral rescale cancels the weight
# variance: a "mode": "random" override used to score a uniformly pruned
# network under the hubesn label
@pytest.mark.parametrize("name, value", [
    ("n", 40), ("seed", 3), ("mode", "random"), ("injection", "random"),
    ("input_dim", 2), ("topology", TopologyConfig(n=30)), ("weight_sigma2", 1.0)])
def test_run_trial_refuses_a_field_the_trial_sets(monkeypatch, name, value):
    def no_reservoir(cfg):
        raise AssertionError("the setting must be refused before any reservoir is built")

    monkeypatch.setattr(bench, "init_esn", no_reservoir)
    with pytest.raises(HubnetError, match=f"no setting is named '{name}'"):
        run_trial(spec("hubesn"), {name: value})


def test_rmse_oracle():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))
    with pytest.raises(HubnetError, match="rmse needs two nonempty arrays"):
        rmse(np.array([]), np.array([]))
    with pytest.raises(HubnetError, match="rmse needs two nonempty arrays"):
        rmse(np.zeros(3), np.zeros(4))


def test_majority_vote_accuracy():
    # image 1: steps vote class 1 three times, class 0 once
    s1 = np.array([[0.1, 0.9], [0.2, 0.8], [0.7, 0.3], [0.3, 0.7]])
    # image 2: 2-2 vote tie; summed score favors class 0
    s2 = np.array([[0.9, 0.1], [0.2, 0.7], [0.9, 0.1], [0.2, 0.7]])
    acc = majority_vote_accuracy(np.stack([s1, s2]), np.array([1, 0]))
    assert acc == 1.0
    acc = majority_vote_accuracy(np.stack([s1, s2]), np.array([0, 0]))
    assert acc == 0.5
    with pytest.raises(HubnetError, match="one score matrix per label"):
        majority_vote_accuracy(np.empty((0, 4, 2)), np.array([]))
    with pytest.raises(HubnetError, match="one score matrix per label"):
        majority_vote_accuracy(s1, np.array([1, 0, 0, 1]))
    with pytest.raises(HubnetError, match="at least one timestep"):
        majority_vote_accuracy(np.empty((2, 0, 2)), np.array([1, 0]))


def loop_majority_vote(step_scores, labels):
    """The per-image loop that ``majority_vote_accuracy`` vectorizes."""
    correct = 0
    for scores, label in zip(step_scores, labels):
        votes = np.bincount(scores.argmax(axis=1), minlength=scores.shape[1])
        tied = np.flatnonzero(votes == votes.max())
        sums = scores[:, tied].sum(axis=0)
        correct += int(tied[sums == sums.max()][0] == label)
    return correct / len(labels)


def test_majority_vote_accuracy_matches_per_image_loop():
    rng = np.random.default_rng(12)
    for _ in range(300):
        k, steps, classes = rng.integers(1, 8), rng.integers(1, 30), rng.integers(2, 11)
        # quarter-integer scores make many vote and sum ties, and sum exactly
        # in any order, so the two tie-breaks see the same sums
        scores = rng.integers(-2, 3, size=(k, steps, classes)) * 0.25
        labels = rng.integers(0, classes, size=k)
        for c in range(classes):
            expected = loop_majority_vote(scores, np.full(k, c))
            assert majority_vote_accuracy(scores, np.full(k, c)) == expected
        assert majority_vote_accuracy(scores, labels) == loop_majority_vote(scores, labels)


def test_run_trial_is_deterministic():
    a = run_trial(spec("hubesn"))
    b = run_trial(spec("hubesn"))
    assert a.score == b.score
    assert a.degree_weight_r == b.degree_weight_r
    assert np.isfinite(a.score)


def test_trials_share_dataset_across_models():
    a = readout_analysis(spec("esn", task="narma10"))
    b = readout_analysis(spec("hubesn", task="narma10"))
    # same dataset seed implies different reservoirs but identical inputs,
    # which shows up as different scores on the same task instance
    assert a["score"] != b["score"]
    assert spec("esn", task="narma10").dataset_seed == \
        spec("hubesn", task="narma10").dataset_seed


def test_model_topologies_and_injection():
    esn = readout_analysis(spec("esn"))["esn"]
    hub = readout_analysis(spec("hubesn"))["esn"]
    hub_rand = readout_analysis(spec("hubesn_rand"))["esn"]
    assert esn.config.topology.mode == "random"
    assert hub.config.topology.mode == "hub"
    assert hub_rand.config.topology.mode == "hub"
    assert esn.config.injection == "random"
    assert hub.config.injection == "hub"
    assert hub_rand.config.injection == "random"


def test_run_experiment_parallel_equals_sequential():
    grid = [("mackey_glass", m, SMALL["n"], SMALL["n_train"], SMALL["n_test"])
            for m in ("esn", "hubesn")]
    seq = run_experiment(grid, repeats=3, base_seed=5, jobs=1)
    par = run_experiment(grid, repeats=3, base_seed=5, jobs=4)
    assert [r.spec for r in seq] == [r.spec for r in par]
    assert [r.score for r in seq] == [r.score for r in par]
    with pytest.raises(ValueError):
        run_experiment(grid, repeats=0, base_seed=0)
    for jobs in (0, -3):
        with pytest.raises(HubnetError, match="jobs must be >= 1"):
            run_experiment(grid, repeats=1, base_seed=0, jobs=jobs)


class RecordingPool:
    """A ``ThreadPoolExecutor`` stand-in that records its size and starts no thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, workers", [
    (100_000, 64, 6),  # no more workers than trials
    (100_000, 4, 4),  # no more workers than CPUs
    (3, 64, 3),  # no more workers than --jobs
    (100_000, None, None),  # an unknown CPU count runs the trials in turn
    (100_000, 1, None),
])
def test_run_experiment_caps_its_worker_pool(monkeypatch, jobs, cpus, workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    grid = [("narma10", m, 20, 30, 10) for m in ("esn", "hubesn")]
    results = run_experiment(grid, repeats=3, base_seed=5, jobs=jobs)
    assert RecordingPool.sizes == ([] if workers is None else [workers])
    seq = run_experiment(grid, repeats=3, base_seed=5, jobs=1)
    assert [(r.spec, r.score) for r in results] == [(r.spec, r.score) for r in seq]


def test_aggregate_ratios():
    def make(model, scores):
        return [TrialResult(spec=spec(model, trial=i), score=s,
                            degree_weight_r=None, wall_time=0.0)
                for i, s in enumerate(scores)]

    results = make("esn", [2.0, 4.0]) + make("hubesn", [1.0, 1.0])
    aggs = {a.model: a for a in aggregate(results)}
    assert aggs["esn"].mean == 3.0
    assert aggs["esn"].ratio_to_esn_mean_of_ratios == 1.0
    hub = aggs["hubesn"]
    assert hub.mean == 1.0
    assert hub.ratio_to_esn_mean_of_ratios == pytest.approx((0.5 + 0.25) / 2)
    assert hub.ratio_to_esn_ratio_of_means == pytest.approx(1.0 / 3.0)
    assert hub.count == 2


def test_csv_outputs(tmp_path):
    results = [run_trial(spec("esn")), run_trial(spec("hubesn"))]
    out = tmp_path / "results.csv"
    write_results_csv(results, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["task", "model", "n", "n_train", "n_test", "trial",
                       "seed", "score", "degree_weight_r", "wall_time_s"]
    assert len(rows) == 3

    write_results_csv(results, out, include_wall_time=False)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "degree_weight_r"

    agg_out = tmp_path / "agg.csv"
    write_aggregate_csv(aggregate(results), agg_out)
    with open(agg_out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "task"
    assert len(rows) == 3


def test_mnist_trial_path(write_idx):
    rng = np.random.default_rng(0)
    count = 12
    images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    img, lab = write_idx(images, labels)
    data = load_mnist(img, lab)
    s = spec("hubesn", task="mnist", n=30, n_train=8, n_test=4)
    result = run_trial(s, mnist=data)
    assert 0.0 <= result.score <= 1.0
    with pytest.raises(ValueError):
        run_trial(s, mnist=None)
    with pytest.raises(HubnetError, match="not enough MNIST images"):
        run_trial(spec("hubesn", task="mnist", n=30, n_train=10, n_test=4),
                  mnist=data)


@pytest.mark.parametrize("task", ["narma10", "mnist"])
def test_trial_esn_is_rebuilt_from_its_config(write_idx, task):
    mnist = None
    if task == "mnist":
        rng = np.random.default_rng(2)
        mnist = load_mnist(*write_idx(rng.integers(0, 256, size=(12, 28, 28)),
                                      rng.integers(0, 10, size=12)))
        s = spec("hubesn", task="mnist", n=30, n_train=8, n_test=4)
    else:
        # a model seed above 2**63, which a 32-bit mask would have changed
        s = spec("hubesn_rand", task="narma10", n=60, trial=1, seed=3)
        assert s.model_seed >= 2 ** 63
    esn = readout_analysis(s, mnist=mnist)["esn"]
    assert esn.config.seed == esn.config.topology.seed == s.model_seed
    rebuilt = reservoir.init_esn(esn.config)
    assert np.array_equal(rebuilt.w_rec, esn.w_rec)
    assert np.array_equal(rebuilt.w_in, esn.w_in)
    assert np.array_equal(rebuilt.input_mask, esn.input_mask)


def test_mnist_trial_fits_through_normal_equations(write_idx, monkeypatch):
    rng = np.random.default_rng(1)
    img, lab = write_idx(rng.integers(0, 256, size=(40, 28, 28)),
                         rng.integers(0, 10, size=40))
    data = load_mnist(img, lab)
    s = spec("hubesn", task="mnist", n=50, n_train=30, n_test=10)  # 840 rows >= n

    def no_lstsq(*args, **kwargs):
        raise AssertionError("well-conditioned MNIST states must skip lstsq")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", no_lstsq)
        gram = readout_analysis(s, mnist=data)
    reject_gram_solves(monkeypatch)
    plain = readout_analysis(s, mnist=data)
    assert gram["score"] == plain["score"]
    scale = np.max(np.abs(plain["w_out"]))
    assert np.max(np.abs(gram["w_out"] - plain["w_out"])) <= 1e-9 * scale


def test_mnist_trial_scores_the_same_without_dsyrk(monkeypatch):
    data = synthetic_mnist(50, seed=3)
    s = spec("esn", task="mnist", n=50, n_train=40, n_test=10)
    solved, gram_solve = [], reservoir._gram_solve

    def recording(gram, sty):
        solved.append(gram_solve(gram, sty))
        return solved[-1]

    monkeypatch.setattr(reservoir, "_gram_solve", recording)
    in_place = run_trial(s, mnist=data)
    monkeypatch.setattr(reservoir, "_DSYRK", None)
    fallback = run_trial(s, mnist=data)
    assert len(solved) == 2 and all(w is not None for w in solved)  # both passed the gate
    assert fallback.score == in_place.score
    assert abs(fallback.degree_weight_r - in_place.degree_weight_r) <= 1e-9


def reject_gram_solves(monkeypatch):
    """Make the one Gram gate reject, so every streamed fit takes the QR pass."""
    monkeypatch.setattr(reservoir, "_gram_solve", lambda gram, sty: None)


def synthetic_mnist(count, seed=0):
    rng = np.random.default_rng(seed)
    return MnistData(images=rng.uniform(size=(count, 28, 28)),
                     labels=rng.integers(0, 10, size=count))


def whole_train_states(s, data, bundle):
    """The train states of an MNIST trial, harvested at once: (images, 28, n)."""
    train_idx = np.random.default_rng(s.dataset_seed).permutation(data.count)[:s.n_train]
    train_in, onehot = mnist_sequences(data, train_idx)
    return reservoir.harvest(bundle["esn"], train_in), onehot


# 200 images make one block of 294 images, or two blocks of 147 and 53
# images at 147-image blocks; washout 27 leaves each image's last step
@pytest.mark.parametrize("washout", [0, 5, 27])
def test_streamed_mnist_readout_matches_fit_on_whole_states(monkeypatch, washout,
                                                             near_lstsq):
    assert_streamed_mnist_readout_matches_fit_on_whole_states(monkeypatch, washout,
                                                              near_lstsq, [200, 30])


@pytest.mark.parametrize("washout", [0, 5, 27])
def test_streamed_mnist_readout_over_two_blocks_matches_fit_on_whole_states(
        monkeypatch, washout, near_lstsq):
    monkeypatch.setattr(bench, "BLOCK_IMAGES", 147)
    assert_streamed_mnist_readout_matches_fit_on_whole_states(monkeypatch, washout,
                                                              near_lstsq, [147, 53, 30])


def assert_streamed_mnist_readout_matches_fit_on_whole_states(monkeypatch, washout,
                                                              near_lstsq, blocks):
    """The streamed fit of 200 train images against a fit on their whole S.

    ``blocks`` lists the image counts of the train then the test blocks.
    """
    data = synthetic_mnist(230)
    # the esn model: this hubesn reservoir has a neuron no input reaches, and
    # its singular S^T S would send the streamed fit to the QR pass
    s = spec("esn", task="mnist", n=50, n_train=200, n_test=30)
    overrides = {"washout": washout}

    def no_lstsq(*args, **kwargs):
        raise AssertionError("the streamed fit must come from the per-step Gram sums")

    batches, harvest_steps = [], bench.harvest_steps

    def recording(esn, inputs):
        batches.append(len(inputs))
        return harvest_steps(esn, inputs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", no_lstsq)
        m.setattr(bench, "harvest_steps", recording)
        streamed = readout_analysis(s, overrides, mnist=data)
    assert batches == blocks
    batch, onehot = whole_train_states(s, data, streamed)
    # every image drops its own first washout steps
    states = batch[:, washout:].reshape(-1, s.n)
    targets = np.repeat(onehot, 28 - washout, axis=0)
    w_ref = reservoir.fit_readout(states, targets)
    assert np.max(np.abs(streamed["w_out"] - w_ref)) <= 1e-9 * np.max(np.abs(w_ref))
    # the column sums of |S| cover every step, washout or not
    col_abs = np.abs(batch).sum(axis=(0, 1))
    w_norm_ref = reservoir.normalized_readout_weights(w_ref, col_abs)
    assert np.allclose(streamed["w_norm"], w_norm_ref, rtol=1e-8, atol=0.0)

    test_idx = np.random.default_rng(s.dataset_seed).permutation(data.count)[200:230]
    test_in, _ = mnist_sequences(data, test_idx)
    step_scores = reservoir.harvest(streamed["esn"], test_in) @ w_ref
    assert streamed["score"] == majority_vote_accuracy(step_scores, data.labels[test_idx])

    # a rejected gate reduces the steps to R, and the same column sums
    reject_gram_solves(monkeypatch)
    rejected = readout_analysis(s, overrides, mnist=data)
    near_lstsq(rejected["w_out"], states, targets)
    # the second pass over the steps sums col_abs afresh, not on top
    w_norm_ref = reservoir.normalized_readout_weights(rejected["w_out"], col_abs)
    assert np.allclose(rejected["w_norm"], w_norm_ref, rtol=1e-8, atol=0.0)


def test_mnist_washout_of_a_whole_image_leaves_no_rows(monkeypatch):
    def no_harvest(*args, **kwargs):
        raise AssertionError("the washout must be refused before any harvest")

    monkeypatch.setattr(bench, "harvest_steps", no_harvest)
    s = spec("hubesn", task="mnist", n=30, n_train=20, n_test=5)
    with pytest.raises(HubnetError, match="washout leaves no rows to fit"):
        readout_analysis(s, {"washout": 28}, mnist=synthetic_mnist(25))


def test_streamed_mnist_readout_rejects_non_finite_states(monkeypatch):
    harvest_steps = reservoir.harvest_steps

    def poisoned(esn, inputs, s0=None):
        for states in harvest_steps(esn, inputs, s0):
            states = states.copy()
            states[-1, 0] = np.nan
            yield states

    monkeypatch.setattr(bench, "harvest_steps", poisoned)
    s = spec("hubesn", task="mnist", n=30, n_train=20, n_test=5)
    with pytest.raises(HubnetError, match="readout states and targets must be finite"):
        readout_analysis(s, mnist=synthetic_mnist(25))


def test_rejected_mnist_gate_runs_once(monkeypatch):
    # 60 copies of one image: S has 28 distinct rows, so S^T S is singular
    data = MnistData(images=np.repeat(synthetic_mnist(1).images, 60, axis=0),
                     labels=np.zeros(60, dtype=int))
    calls = []
    gram_solve = reservoir._gram_solve

    def counting(gram, sty):
        calls.append(gram_solve(gram, sty))
        return calls[-1]

    monkeypatch.setattr(reservoir, "_gram_solve", counting)
    readout_analysis(spec("hubesn", task="mnist", n=50, n_train=50, n_test=10), mnist=data)
    assert len(calls) == 1 and calls[0] is None


def assert_mnist_trial_never_holds_its_train_state_matrix():
    data = synthetic_mnist(1020)
    s = spec("hubesn", task="mnist", n=60, n_train=1000, n_test=20)
    state_bytes = s.n_train * 28 * s.n * 8  # 13.4 MB
    tracemalloc.start()
    try:
        readout_analysis(s, mnist=data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state_bytes / 2


def test_mnist_trial_never_holds_its_train_state_matrix():
    assert_mnist_trial_never_holds_its_train_state_matrix()


def test_rejected_mnist_gate_never_holds_its_train_state_matrix(monkeypatch):
    reject_gram_solves(monkeypatch)
    assert_mnist_trial_never_holds_its_train_state_matrix()


def test_mnist_trial_never_holds_one_state_block():
    data = synthetic_mnist(450)
    s = spec("hubesn", task="mnist", n=250, n_train=300, n_test=150)
    readout_analysis(spec("hubesn", task="mnist", n=10, n_train=5, n_test=5),
                     mnist=data)  # first-call allocations
    block_bytes = 147 * 28 * s.n * 8  # 8.2 MB, the states of half a 294-image block
    tracemalloc.start()
    try:
        readout_analysis(s, mnist=data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 5.7 MB: generation's 6 n**2 floats (3.0 MB), then S^T S, the one-step
    # state buffer and a block of column-scanned images
    assert peak < block_bytes


def fake_steps(count, block, t_len=28):
    """``bench._mnist_steps``'s layout, each state holding its row of image-major S."""
    for i0 in range(0, count, block):
        batch = min(block, count - i0)
        onehot = np.zeros((batch, 10))
        onehot[:, 0] = i0 + np.arange(batch)
        for t in range(t_len):
            rows = (i0 + np.arange(batch)) * t_len + t
            yield i0, t, rows[:, None].astype(float), onehot


# any washout from 28 on keeps no row, however far past 28 it is
@pytest.mark.parametrize("washout", [0, 1, 3, 4, 5, 27, 28, 29, 30, 200, 4116, 4125,
                                     5599, 5600])
def test_train_rows_drop_the_first_washout_rows_of_image_major_states(washout):
    # 200 images in blocks of 147 and 53; row r of the image-major S is
    # image r // 28 after column r % 28, and every image drops its own
    # first washout columns
    col_abs = np.zeros(1)
    # a washout from 28 on yields no block at all
    kept, images = [np.empty(0)], [np.empty(0)]
    for states, targets in bench._train_rows(fake_steps(200, 147), washout, col_abs):
        kept.append(states[:, 0])
        images.append(targets[:, 0])
    kept, images = np.concatenate(kept), np.concatenate(images)
    expected = np.arange(5600)[np.arange(5600) % 28 >= washout]
    order = np.argsort(kept)
    assert np.array_equal(kept[order], expected)
    assert np.array_equal(images[order], expected // 28)
    # the column sums cover every row, washout or not
    assert col_abs[0] == np.arange(5600).sum()


def test_mackey_glass_trial_never_holds_its_train_and_test_states_together():
    s = spec("esn", n=100, n_train=2000, n_test=20000)
    train_bytes, test_bytes = s.n_train * s.n * 8, s.n_test * s.n * 8  # 1.6 and 16 MB
    tracemalloc.start()
    try:
        readout_analysis(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < test_bytes + train_bytes


def test_time_series_washout_leaves_the_fit_not_the_column_sums():
    s = spec("hubesn", task="narma10")
    bundle = readout_analysis(s, {"washout": 7})
    train_in, train_tg, _, _ = bench._time_series_split(s)
    states = reservoir.harvest(bundle["esn"], train_in)
    w_out = reservoir.fit_readout(states[7:], train_tg[7:])
    assert np.array_equal(bundle["w_out"], w_out)
    col_abs = np.abs(states).sum(axis=0)
    assert np.array_equal(bundle["w_norm"], reservoir.normalized_readout_weights(w_out, col_abs))
