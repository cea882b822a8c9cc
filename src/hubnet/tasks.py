"""Benchmark data: Mackey-Glass, NARMA10, and column-scanned MNIST.

Mackey-Glass is Euler-discretized (dt = 1) from constant history with a
discarded transient, and min-max normalized into the open interval
(-1, 1).  NARMA10 inputs are uniform on [0, 0.5] and left unnormalized;
divergent draws are regenerated.  MNIST images are read from the IDX
byte format and scanned column by column over ``MNIST_SIDE`` timesteps.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import HubnetError, check_float, check_indices, check_int

__all__ = [
    "MackeyGlassConfig",
    "NarmaConfig",
    "MnistData",
    "mackey_glass",
    "narma10",
    "narma_recursion",
    "load_mnist",
    "mnist_sequences",
]

NORM_EPS = 1e-6
NARMA_MAX_ATTEMPTS = 100
MNIST_SIDE = 28  # an MNIST image is MNIST_SIDE x MNIST_SIDE pixels


@dataclass(frozen=True)
class MackeyGlassConfig:
    tau: ClassVar[int] = 17
    beta_m: ClassVar[float] = 0.2
    gamma_m: ClassVar[float] = 0.1
    k: ClassVar[float] = 10.0
    dt: ClassVar[float] = 1.0
    length: int = 5000
    transient: int = 1000
    x0: float = 1.2

    def __post_init__(self):
        check_int("length", self.length, 1)
        check_int("transient", self.transient, 0)
        check_float("x0", self.x0)


@dataclass(frozen=True)
class NarmaConfig:
    l: ClassVar[int] = 10
    alpha_n: ClassVar[float] = 0.3
    beta_n: ClassVar[float] = 0.05
    gamma_n: ClassVar[float] = 1.5
    delta_n: ClassVar[float] = 0.1
    length: int = 5000
    seed: int = 0

    def __post_init__(self):
        check_int("length", self.length, 1)
        check_int("seed", self.seed, 0)


@dataclass
class MnistData:
    images: np.ndarray  # count x MNIST_SIDE x MNIST_SIDE, floats in [0, 1]
    labels: np.ndarray  # count, ints 0..9

    @property
    def count(self) -> int:
        return self.images.shape[0]


def mackey_glass(cfg: MackeyGlassConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate the series; returns (raw, normalized-to-(-1,1)) copies.

    Update: x(t+1) = x(t) + dt * (beta * x(t-tau) / (1 + x(t-tau)^k)
    - gamma * x(t)), with constant history x0 and the first ``transient``
    steps discarded.  An x0 so large that x ** k overflows raises ``HubnetError``.
    """
    total = cfg.transient + cfg.length
    # x[tau + t] holds x(t); indices below tau carry the constant history.
    # A list of Python floats: the same IEEE arithmetic as numpy scalars,
    # about 3 times faster per step
    x = [float(cfg.x0)] * (cfg.tau + 1 + total)
    tau, dt, beta, gamma, k = cfg.tau, cfg.dt, cfg.beta_m, cfg.gamma_m, cfg.k
    diverged = "the Mackey-Glass series is not finite and real; check the parameters"
    try:
        for t in range(total):
            xt = x[tau + t]
            xd = x[t]  # x(t - tau)
            x[tau + t + 1] = xt + dt * (beta * xd / (1.0 + xd ** k) - gamma * xt)
    except OverflowError:
        raise HubnetError(diverged) from None
    raw = np.array(x[tau + 1 + cfg.transient:])
    if not np.isfinite(raw).all():
        raise HubnetError(diverged)
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        scale = (2.0 - 2.0 * NORM_EPS) / (hi - lo)
        norm = -1.0 + NORM_EPS + (raw - lo) * scale
    else:
        norm = np.zeros_like(raw)
    return raw, norm


def narma_recursion(u: np.ndarray, cfg: NarmaConfig) -> np.ndarray:
    """NARMA target series for a given input sequence.

    x(t) = alpha*x(t-1) + beta*x(t-1)*sum_{i=1..l} x(t-i)
         + gamma*u(t-l)*u(t-1) + delta, with x = 0 and u = 0 before t = 0.
    """
    u = np.asarray(u, dtype=float)
    t_len = u.shape[0]
    x = np.zeros(t_len)  # x(t) = 0 for the first l warmup steps
    # overflow is an expected outcome here: divergent series are detected
    # and regenerated by the caller, so the warning is just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.l, t_len):
            x[t] = (
                cfg.alpha_n * x[t - 1]
                + cfg.beta_n * x[t - 1] * x[t - cfg.l:t].sum()
                + cfg.gamma_n * u[t - cfg.l] * u[t - 1]
                + cfg.delta_n
            )
            if not np.isfinite(x[t]):
                break
    return x


def narma10(cfg: NarmaConfig) -> tuple[np.ndarray, np.ndarray]:
    """NARMA pairs ``(inputs, targets)``, each (length, 1): u(t) ~ U[0, 0.5] and x(t+1).

    Inputs are drawn from ``default_rng(cfg.seed)``.  A draw whose targets
    exceed 1e3 in magnitude is discarded and redrawn from the same stream,
    up to ``NARMA_MAX_ATTEMPTS`` times.
    """
    rng = np.random.default_rng(cfg.seed)
    for _ in range(NARMA_MAX_ATTEMPTS):
        u = rng.uniform(0.0, 0.5, size=cfg.length + 1)
        x = narma_recursion(u, cfg)
        if np.all(np.isfinite(x)) and np.abs(x).max() <= 1e3:
            return u[: cfg.length, None], x[1: cfg.length + 1, None]
    raise HubnetError(
        f"{NARMA_MAX_ATTEMPTS} consecutive divergent NARMA draws; check the parameters"
    )


def _open_maybe_gz(path):
    path = str(path)
    return gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise HubnetError(f"{what}: expected {count} bytes, got {len(data)}")
    return data


IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def load_mnist(images_path, labels_path) -> MnistData:
    """Parse IDX image/label files (gzip transparent); pixels scaled to [0, 1]."""
    with _open_maybe_gz(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "image header"))
        if magic != IMAGE_MAGIC:
            raise HubnetError(f"image file magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}")
        if (rows, cols) != (MNIST_SIDE, MNIST_SIDE):
            raise HubnetError(f"expected {MNIST_SIDE}x{MNIST_SIDE} images, got {rows}x{cols}")
        payload = _read_exact(fh, count * rows * cols, "image payload")
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)
    with _open_maybe_gz(labels_path) as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, "label header"))
        if magic != LABEL_MAGIC:
            raise HubnetError(f"label file magic {magic:#010x}, expected {LABEL_MAGIC:#010x}")
        labels = np.frombuffer(_read_exact(fh, label_count, "label payload"), dtype=np.uint8)
    if count != label_count:
        raise HubnetError(f"{count} images vs {label_count} labels")
    pixels = images.astype(float)
    pixels /= 255.0
    return MnistData(images=pixels, labels=labels.astype(np.int64))


def mnist_sequences(data: MnistData, indices) -> tuple[np.ndarray, np.ndarray]:
    """Column-scan selected images: inputs (k, 28, 28) and one-hot targets (k, 10).

    Row t of an image's input sequence is column t of the image; the
    image's one-hot label is the target at every step.
    """
    idx = np.asarray(indices, dtype=float).reshape(-1)
    # fancy indexing would wrap a negative index, and a cast truncate a fraction
    check_indices("image index", idx, data.count)
    idx = idx.astype(int)
    inputs = np.ascontiguousarray(data.images[idx].transpose(0, 2, 1))
    onehot = np.zeros((idx.size, 10))
    onehot[np.arange(idx.size), data.labels[idx]] = 1.0
    return inputs, onehot
