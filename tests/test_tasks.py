import dataclasses

import numpy as np
import pytest

from hubnet.bench import TrialSpec, _time_series_split
from hubnet.errors import HubnetError
from hubnet.tasks import (
    MackeyGlassConfig,
    NarmaConfig,
    load_mnist,
    mackey_glass,
    mnist_sequences,
    narma10,
    narma_recursion,
)


def test_mackey_glass_shapes_and_range():
    cfg = MackeyGlassConfig(length=800)
    raw, norm = mackey_glass(cfg)
    assert raw.shape == norm.shape == (800,)
    assert norm.min() == pytest.approx(-1.0 + 1e-6)
    assert norm.max() == pytest.approx(1.0 - 1e-6)
    # normalization is affine, so the ordering is preserved
    assert np.array_equal(np.argsort(raw), np.argsort(norm))


def test_mackey_glass_is_deterministic_and_chaotic_looking():
    a = mackey_glass(MackeyGlassConfig(length=500))[0]
    b = mackey_glass(MackeyGlassConfig(length=500))[0]
    assert np.array_equal(a, b)
    assert a.std() > 0.05  # the attractor is not a fixed point from x0=1.2


def test_mackey_glass_unit_fixed_point():
    # x = 1 solves beta * x / (1 + x^k) = gamma * x for beta=0.2, gamma=0.1
    raw, _ = mackey_glass(MackeyGlassConfig(length=200, transient=0, x0=1.0))
    assert np.max(np.abs(raw - 1.0)) < 1e-12


def numpy_mackey_glass(cfg):
    """The Euler loop on a numpy array that ``mackey_glass`` runs on floats."""
    total = cfg.transient + cfg.length
    x = np.full(cfg.tau + 1 + total, cfg.x0)
    for t in range(total):
        xt = x[cfg.tau + t]
        xd = x[t]
        x[cfg.tau + t + 1] = xt + cfg.dt * (
            cfg.beta_m * xd / (1.0 + xd ** cfg.k) - cfg.gamma_m * xt
        )
    raw = x[cfg.tau + 1 + cfg.transient:]
    lo, hi = raw.min(), raw.max()
    scale = (2.0 - 2.0 * 1e-6) / (hi - lo)
    return raw, -1.0 + 1e-6 + (raw - lo) * scale


@pytest.mark.parametrize("cfg", [
    MackeyGlassConfig(length=3201),
    MackeyGlassConfig(length=5000),
    MackeyGlassConfig(length=20000),
    MackeyGlassConfig(length=700, transient=0, x0=0.5),
    MackeyGlassConfig(length=500, x0=0.9),
])
def test_mackey_glass_equals_the_numpy_loop(cfg):
    raw, norm = mackey_glass(cfg)
    expected_raw, expected_norm = numpy_mackey_glass(cfg)
    assert raw.dtype == norm.dtype == np.float64
    assert np.array_equal(raw, expected_raw)
    assert np.array_equal(norm, expected_norm)


@pytest.mark.parametrize("cfg", [
    MackeyGlassConfig(length=50, x0=1e40),  # x ** k overflows
])
def test_mackey_glass_rejects_a_diverging_series(cfg):
    with pytest.raises(HubnetError, match="not finite and real"):
        mackey_glass(cfg)


def test_mackey_glass_rejects_a_non_finite_series(monkeypatch):
    # no finite x0 reaches this check under the constants: a huge step
    # makes inf - inf without an OverflowError
    monkeypatch.setattr(MackeyGlassConfig, "dt", 1e300)
    with pytest.raises(HubnetError, match="not finite and real"):
        mackey_glass(MackeyGlassConfig(length=50, x0=2.0))


TASK_CONSTANTS = {
    MackeyGlassConfig: {"tau": 17, "beta_m": 0.2, "gamma_m": 0.1, "k": 10.0, "dt": 1.0},
    NarmaConfig: {"l": 10, "alpha_n": 0.3, "beta_n": 0.05, "gamma_n": 1.5, "delta_n": 0.1},
}


@pytest.mark.parametrize("config", TASK_CONSTANTS)
def test_task_coefficients_are_class_constants(config):
    fields = {MackeyGlassConfig: ["length", "transient", "x0"], NarmaConfig: ["length", "seed"]}
    assert [f.name for f in dataclasses.fields(config)] == fields[config]
    for name, value in TASK_CONSTANTS[config].items():
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            config(**{name: value})
        assert getattr(config(), name) == value
        assert type(getattr(config, name)) is type(value)


def test_mackey_glass_config_validation():
    with pytest.raises(ValueError):
        MackeyGlassConfig(length=0)
    with pytest.raises(ValueError):
        MackeyGlassConfig(transient=-1)
    with pytest.raises(HubnetError, match="seed must be nonnegative"):
        NarmaConfig(seed=-1)


def test_narma_recursion_warmup_and_fixed_point():
    cfg = NarmaConfig(length=300)
    x = narma_recursion(np.zeros(300), cfg)
    assert np.all(x[: cfg.l] == 0.0)
    # under u = 0 the recursion converges to the positive root of
    # x = 0.3 x + 0.5 x^2 + 0.1, i.e. 0.7 - sqrt(0.29)
    assert x[-1] == pytest.approx(0.7 - np.sqrt(0.29), abs=1e-9)


def test_narma10_dataset_shapes_and_alignment():
    cfg = NarmaConfig(length=400, seed=3)
    inputs, targets = narma10(cfg)
    assert inputs.shape == (400, 1)
    assert targets.shape == (400, 1)
    assert np.all(inputs >= 0.0) and np.all(inputs <= 0.5)
    # target row t is x(t+1) for input u(t)
    u = inputs[:, 0]
    x_full = narma_recursion(np.append(u, 0.0), cfg)  # u(length) unused before t=length
    assert np.allclose(targets[:-1, 0], x_full[1:400])


def test_narma10_deterministic_per_seed():
    a, _ = narma10(NarmaConfig(length=200, seed=1))
    b, _ = narma10(NarmaConfig(length=200, seed=1))
    c, _ = narma10(NarmaConfig(length=200, seed=2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_narma10_bounded():
    _, targets = narma10(NarmaConfig(length=3000, seed=0))
    assert np.all(np.isfinite(targets))
    assert np.abs(targets).max() <= 1e3


def test_narma10_gives_up_on_divergent_parameters(monkeypatch):
    # delta_n = 2000 drives every draw past the 1e3 bound
    monkeypatch.setattr(NarmaConfig, "delta_n", 2000.0)
    with pytest.raises(HubnetError, match="divergent NARMA draws"):
        narma10(NarmaConfig(length=50))


def test_time_series_split_alignment():
    # Mackey-Glass pair t is series[t] -> series[t + 1]: 6 train pairs,
    # then the next 3, from a series of n_train + n_test + 1 values
    spec = TrialSpec(task="mackey_glass", model="esn", n=5, n_train=6, n_test=3)
    train_in, train_tg, test_in, test_tg = _time_series_split(spec)
    _, series = mackey_glass(MackeyGlassConfig(length=10))
    assert np.array_equal(train_in[:, 0], series[:6])
    assert np.array_equal(train_tg[:, 0], series[1:7])
    assert np.array_equal(test_in[:, 0], series[6:9])
    assert np.array_equal(test_tg[:, 0], series[7:10])
    # NARMA10 pairs split at the same row: the first 6 train, the next 3 test
    spec = TrialSpec(task="narma10", model="esn", n=5, n_train=6, n_test=3)
    train_in, train_tg, test_in, test_tg = _time_series_split(spec)
    inputs, targets = narma10(NarmaConfig(length=9, seed=spec.dataset_seed))
    assert np.array_equal(np.vstack([train_in, test_in]), inputs)
    assert np.array_equal(np.vstack([train_tg, test_tg]), targets)
    assert (train_in.shape, test_tg.shape) == ((6, 1), (3, 1))


def _toy_images(count=3):
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(count, 28, 28)), rng.integers(0, 10, size=count)


def test_load_mnist_plain_and_gzip(write_idx):
    images, labels = _toy_images()
    for gz in (False, True):
        img, lab = write_idx(images, labels, gz=gz)
        data = load_mnist(img, lab)
        assert data.count == 3
        assert data.images.shape == (3, 28, 28)
        assert data.images.max() <= 1.0 and data.images.min() >= 0.0
        assert np.allclose(data.images * 255.0, images)
        assert np.array_equal(data.labels, labels)


def test_load_mnist_bad_magic(write_idx):
    images, labels = _toy_images()
    img, lab = write_idx(images, labels, image_magic=0x1234)
    with pytest.raises(HubnetError, match="image file magic 0x00001234"):
        load_mnist(img, lab)
    img, lab = write_idx(images, labels, label_magic=0x9999)
    with pytest.raises(HubnetError, match="label file magic 0x00009999"):
        load_mnist(img, lab)


def test_load_mnist_truncated(write_idx):
    images, labels = _toy_images()
    img, lab = write_idx(images, labels, truncate_images=True)
    with pytest.raises(HubnetError, match="image payload: expected"):
        load_mnist(img, lab)


def test_load_mnist_count_mismatch(write_idx):
    images, labels = _toy_images()
    # header claims fewer labels than images; payload is read accordingly
    img, lab = write_idx(images, labels[:2], label_count=2)
    with pytest.raises(HubnetError, match="3 images vs 2 labels"):
        load_mnist(img, lab)


def test_load_mnist_wrong_geometry(write_idx):
    rng = np.random.default_rng(1)
    img, lab = write_idx(rng.integers(0, 256, size=(2, 14, 14)), [0, 1])
    with pytest.raises(HubnetError, match="expected 28x28 images, got 14x14"):
        load_mnist(img, lab)


def test_mnist_sequences_column_scan(write_idx):
    images, labels = _toy_images()
    data = load_mnist(*write_idx(images, labels))
    inputs, onehot = mnist_sequences(data, [1, 2])
    assert inputs.shape == (2, 28, 28) and onehot.shape == (2, 10)
    # timestep t presents column t of the image
    assert np.array_equal(inputs[0, 5], data.images[1][:, 5])
    assert np.array_equal(inputs[1, 27], data.images[2][:, 27])
    assert np.array_equal(onehot.sum(axis=1), [1.0, 1.0])
    assert onehot[0, labels[1]] == 1.0 and onehot[1, labels[2]] == 1.0
    # numpy indexing would wrap -1 to the last image, and a cast to int
    # select image 1 for 1.7
    for bad in ([3], [0, -1], [1.7]):
        with pytest.raises(HubnetError, match="not an integer in 0..2"):
            mnist_sequences(data, bad)
