"""Echo state network: init, dynamics, state harvesting, linear readout.

The recurrent matrix comes from the topology module and is rescaled to a
target spectral radius.  Input reaches only a fraction of the neurons
(``r_sig``): the highest-degree ones under hub injection, a uniform
sample otherwise.  The readout is the closed-form least-squares solution
on the harvested state matrix; normalized readout weights support the
mechanistic comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HubnetError
from .netmetrics import node_degrees
from .topology import Network, TopologyConfig, generate_network

__all__ = [
    "EsnConfig",
    "Esn",
    "spectral_radius",
    "scale_spectral_radius",
    "init_esn",
    "harvest",
    "harvest_chunks",
    "stream_readout",
    "fit_readout",
    "normalized_readout_weights",
    "pearson",
]

# the normal equations are solved only when lambda_min(S^T S) exceeds this
# fraction of lambda_max, i.e. cond(S) < 1e5; lstsq's rcond=1e-10 cuts no
# singular value of such an S
GRAM_EIG_RATIO = 1e-10


@dataclass(frozen=True)
class EsnConfig:
    """Reservoir hyperparameters.

    ``topology`` defaults to a hub config of matching size; its mode sets
    the recurrent structure while ``injection`` sets where input lands.
    ``seed`` seeds the network, ``w_in`` and the input mask: ``init_esn``
    never reads ``topology.seed``, because ``generate_network`` draws from
    the ESN's stream, so a ``topology.seed`` other than ``seed`` is
    rejected.  A config is thus the complete description of its ESN.
    """

    n: int
    input_dim: int = 1
    spec_rad: float = 0.9
    r_sig: float = 0.1
    injection: str = "random"
    washout: int = 0
    topology: TopologyConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.r_sig <= 1.0):
            raise HubnetError(f"r_sig must be in (0, 1], got {self.r_sig}")
        if not 0.0 < self.spec_rad < np.inf:
            raise HubnetError(f"spec_rad must be positive and finite, got {self.spec_rad}")
        if self.injection not in ("hub", "random"):
            raise HubnetError(f"injection must be 'hub' or 'random', got {self.injection!r}")
        if self.washout < 0:
            raise HubnetError("washout must be nonnegative")
        if self.topology is None:
            object.__setattr__(self, "topology", TopologyConfig(n=self.n, seed=self.seed))
        elif self.topology.n != self.n:
            raise HubnetError("topology.n must match the reservoir size")
        elif self.topology.seed != self.seed:
            raise HubnetError(
                f"topology.seed {self.topology.seed} must equal the ESN seed {self.seed}")

    @property
    def n_input_neurons(self) -> int:
        return int(np.ceil(self.r_sig * self.n))


@dataclass
class Esn:
    """Initialized reservoir; immutable after construction."""

    w_in: np.ndarray
    w_rec: np.ndarray
    input_mask: np.ndarray
    network: Network
    config: EsnConfig

    @property
    def n(self) -> int:
        return self.w_rec.shape[0]


def spectral_radius(w: np.ndarray) -> float:
    """Magnitude of the dominant eigenvalue, from the dense eigenvalues."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] == 0:
        raise HubnetError("empty matrix has no spectrum")
    return float(np.abs(np.linalg.eigvals(w)).max())


def scale_spectral_radius(w: np.ndarray, rho: float) -> np.ndarray:
    """Rescale w so its dominant eigenvalue magnitude equals rho."""
    sr = spectral_radius(w)
    if sr < 1e-12:
        raise HubnetError("spectral radius below 1e-12; cannot rescale")
    return w * (rho / sr)


def init_esn(cfg: EsnConfig) -> Esn:
    """Build the reservoir: topology, spectral scaling, input matrix, mask.

    Every draw comes from ``default_rng(cfg.seed)``, so the config alone
    rebuilds the reservoir bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    network = generate_network(cfg.topology, rng)
    w_rec = scale_spectral_radius(network.weights, cfg.spec_rad)

    w_in = rng.uniform(-1.0, 1.0, size=(cfg.n, cfg.input_dim))
    n_in = cfg.n_input_neurons
    if cfg.injection == "hub":
        deg = node_degrees(network)
        # stable sort on -degree: equal degrees break toward the lower index
        order = np.argsort(-deg, kind="stable")
        chosen = order[:n_in]
    else:
        chosen = rng.choice(cfg.n, size=n_in, replace=False)
    mask = np.zeros(cfg.n, dtype=bool)
    mask[chosen] = True
    w_in[~mask] = 0.0
    return Esn(w_in=w_in, w_rec=w_rec, input_mask=mask, network=network, config=cfg)


def _checked_inputs(esn: Esn, inputs, s0) -> tuple[np.ndarray, np.ndarray, int]:
    """Inputs as a (B, T, d) batch, the (B, n) start states, and the inputs' ndim."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    u = inputs[None] if inputs.ndim == 2 else inputs
    if u.ndim != 3 or u.shape[2] != esn.config.input_dim:
        raise HubnetError(
            f"inputs have shape {inputs.shape}, expected (T, {esn.config.input_dim})"
            f" or (B, T, {esn.config.input_dim})"
        )
    if not np.isfinite(u).all():
        raise HubnetError("reservoir inputs must be finite")
    s = np.zeros((u.shape[0], esn.n))
    if s0 is not None:
        s0 = np.asarray(s0, dtype=float)
        if s0.shape != (esn.n,):
            raise HubnetError(f"s0 has shape {s0.shape}, expected ({esn.n},)")
        if not np.isfinite(s0).all():
            raise HubnetError("initial state s0 must be finite")
        s[:] = s0
    return u, s, inputs.ndim


def _drive(esn: Esn, u: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The recurrence: ``out[t]`` gets the (B, n) states after input u[:, t].

    Starts from ``s`` and returns the last state, a fresh array that
    shares no memory with ``out``.
    """
    # the drive is computed per step: up front it would be one more
    # (B, T, n) array, as large as the states themselves
    w_in_t, w_rec_t = esn.w_in.T, esn.w_rec.T
    for t in range(len(out)):
        s = np.tanh(u[:, t] @ w_in_t + s @ w_rec_t)
        out[t] = s
    return s


def harvest(esn: Esn, inputs: np.ndarray, s0: np.ndarray | None = None) -> np.ndarray:
    """Drive the reservoir with input sequences; stack the states.

    ``inputs`` is one sequence, shaped (T,) or (T, d), or a batch of
    equal-length sequences shaped (B, T, d).  Every sequence starts from
    ``s0``, or from zeros when it is None.  Entry t along the time axis of
    the result, (T, n) or (B, T, n), is the state after presenting input
    row t.
    """
    u, s, ndim = _checked_inputs(esn, inputs, s0)
    states = np.empty((u.shape[0], u.shape[1], esn.n))
    _drive(esn, u, s, states.transpose(1, 0, 2))
    return states if ndim == 3 else states[0]


def harvest_chunks(esn: Esn, inputs: np.ndarray, steps: int,
                   s0: np.ndarray | None = None):
    """``harvest``, ``steps`` time steps at a time, in one reused buffer.

    Takes the inputs and ``s0`` that ``harvest`` takes and yields
    ``(t0, chunk)`` pairs: ``chunk[j]`` holds the (B, n) states after input
    row t0 + j, the same bits as ``harvest(...)[..., t0 + j, :]``, with
    B = 1 for a single sequence.  Every chunk is a view of one
    (steps, B, n) buffer, which the next chunk overwrites; the recurrence
    carries its own copy of the last state, so a consumer may overwrite a
    chunk in place.
    """
    if steps < 1:
        raise HubnetError(f"steps must be >= 1, got {steps}")
    u, s, _ = _checked_inputs(esn, inputs, s0)
    t_len = u.shape[1]
    buf = np.empty((min(steps, t_len), u.shape[0], esn.n))
    for t0 in range(0, t_len, steps):
        chunk = buf[:t_len - t0]
        s = _drive(esn, u[:, t0:t0 + len(chunk)], s, chunk)
        yield t0, chunk


def _gram_solve(gram: np.ndarray, sty: np.ndarray) -> np.ndarray | None:
    """Solve gram @ w = sty when eigvalsh proves gram well conditioned, else None.

    ``gram`` is S^T S and ``sty`` is S^T Y for a state matrix S with at
    least as many rows as columns.  Cholesky either fails or gives pivots
    whose squared-diagonal ratio is an upper bound on lambda_min /
    lambda_max, so it can reject cheaply but never accept; only the
    eigenvalues accept.
    """
    try:
        pivots = np.diag(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        return None
    if pivots.min() <= GRAM_EIG_RATIO * pivots.max():
        return None
    lam = np.linalg.eigvalsh(gram)
    if lam[0] <= GRAM_EIG_RATIO * lam[-1]:
        return None
    return np.linalg.solve(gram, sty)


def stream_readout(blocks, whole, shape: tuple[int, int], washout: int = 0) -> np.ndarray:
    """Minimum-norm least-squares readout of S and Y, given as row blocks.

    ``blocks`` yields ``(states, targets)`` pairs, consecutive row blocks
    of S (n columns) and Y (k columns), where ``shape`` is (n, k).  The
    first ``washout`` rows of the stacked blocks are dropped, also where
    they cross blocks.  S^T S and S^T Y are summed one block at a time, and
    no block is referenced once the next is requested, so a generator of
    blocks keeps one block alive.  ``whole()`` returns all of S and Y at
    once; it is called only when the Gram solve is not taken, which
    includes every S with a non-finite entry.

    With at least as many rows as columns, the fit solves the normal
    equations (S^T S) w = S^T Y when the eigenvalues of S^T S give
    lambda_min > 1e-10 * lambda_max (cond(S) < 1e5).  No singular value
    then falls below the rcond cutoff of 1e-10 * sigma_max, so this is the
    same full-rank least-squares solution as ``lstsq``'s, up to rounding:
    the Gram solve's forward error is about cond(S^T S) * eps, below 3e-6
    relative.  Every other fit runs ``lstsq(S, Y, rcond=1e-10)`` on
    ``whole()`` and is bit-identical to it; that includes the n = 500
    Mackey-Glass fits, whose Gram matrices are numerically singular.
    """
    n, k = shape
    # allocated before the first block exists: allocated after it, they
    # fragmented the heap and raised an n = 500 MNIST run's peak RSS from
    # 75 to 87 MB
    gram, sty = np.zeros((n, n)), np.zeros((n, k))
    rows = 0
    for s, y in blocks:
        if s.shape[1:] != (n,) or y.shape[1:] != (k,):
            raise HubnetError(f"block shapes {s.shape} and {y.shape} do not match "
                              f"{n} state and {k} target columns")
        if s.shape[0] != y.shape[0]:
            raise HubnetError(f"{s.shape[0]} state rows vs {y.shape[0]} target rows")
        skip = max(washout - rows, 0)
        rows += s.shape[0]
        s, y = s[skip:], y[skip:]
        if not np.isfinite(y).all():
            raise HubnetError("readout states and targets must be finite")
        gram += s.T @ s
        sty += s.T @ y
        # a block still referenced while the next one is made raised the
        # same peak RSS to 91 MB
        del s, y
    if rows - washout < 1:
        raise HubnetError("washout leaves no rows to fit")
    # a non-finite state makes its diagonal entry of S^T S non-finite
    w_out = None
    if 0 < n <= rows - washout and np.isfinite(gram).all():
        w_out = _gram_solve(gram, sty)
    # freed before whole() makes S and lstsq copies it
    del gram, sty
    if w_out is None:
        s, y = whole()
        s, y = s[washout:], y[washout:]
        if not np.isfinite(s).all():
            raise HubnetError("readout states and targets must be finite")
        w_out = np.linalg.lstsq(s, y, rcond=1e-10)[0]
    return w_out


def fit_readout(states: np.ndarray, targets: np.ndarray, washout: int = 0) -> np.ndarray:
    """Minimum-norm least-squares readout on the harvested states.

    Rows before ``washout`` are dropped; ``stream_readout`` with one block
    says how the fit is solved.
    """
    states = np.asarray(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if states.ndim != 2 or targets.ndim not in (1, 2):
        raise HubnetError(f"states must be 2-D and targets 1-D or 2-D, "
                          f"got {states.ndim}-D and {targets.ndim}-D")
    squeeze = targets.ndim == 1
    if squeeze:
        targets = targets[:, None]
    w_out = stream_readout([(states, targets)], lambda: (states, targets),
                           (states.shape[1], targets.shape[1]), washout)
    return w_out[:, 0] if squeeze else w_out


def normalized_readout_weights(w_out: np.ndarray, col_abs: np.ndarray) -> np.ndarray:
    """Per-neuron readout importance, magnitude-corrected.

    |w_out_i| times ``col_abs[i]``, the summed absolute state of neuron i
    over time (``np.abs(states).sum(axis=0)``); for multi-output readouts
    the L2 norm of row i stands in for |w_out_i|.
    """
    w_out = np.asarray(w_out, dtype=float)
    col_abs = np.asarray(col_abs, dtype=float)
    mag = np.abs(w_out) if w_out.ndim == 1 else np.linalg.norm(w_out, axis=1)
    if mag.shape != col_abs.shape:
        raise HubnetError("readout rows must match state columns")
    return mag * col_abs


def pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson correlation coefficient of two equal-length vectors.

    None when either vector is constant, where the coefficient is undefined.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise HubnetError("need two equal-length vectors of size >= 2")
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt((xc ** 2).sum()), np.sqrt((yc ** 2).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xc * yc).sum() / (sx * sy))
