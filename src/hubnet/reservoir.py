"""Echo state network: init, dynamics, state harvesting, linear readout.

The recurrent matrix comes from the topology module and is rescaled to a
target spectral radius.  Input reaches only a fraction of the neurons
(``r_sig``): the highest-degree ones under hub injection, a uniform
sample otherwise.  The readout is the closed-form least-squares solution
on the harvested state matrix; normalized readout weights support the
mechanistic comparisons.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import HubnetError, check_float, check_int
from .netmetrics import node_degrees
from .topology import TopologyConfig, generate_network

__all__ = [
    "EsnConfig",
    "Esn",
    "spectral_radius",
    "init_esn",
    "harvest",
    "harvest_steps",
    "stream_readout",
    "fit_readout",
    "normalized_readout_weights",
    "pearson",
]

# the normal equations are solved only when lambda_min(S^T S) exceeds this
# fraction of lambda_max, i.e. cond(S) < 1e5; lstsq's rcond=1e-10 cuts no
# singular value of such an S
GRAM_EIG_RATIO = 1e-10

# OpenBLAS runs a dgemv of this many matrix entries or more on several
# threads (115200 * GEMM_MULTITHREAD_THRESHOLD, whose default is 4)
_GEMV_THREAD_ENTRIES = 115_200 * 4


def _numpy_dsyrk():
    """The ILP64 ``cblas_dsyrk`` of the OpenBLAS numpy loaded, or None.

    ``dlsym`` on the extension module that links BLAS searches that
    library too.  Only the 64-bit-int names are taken, as the call passes
    64-bit sizes.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in ("scipy_cblas_dsyrk64_", "cblas_dsyrk64_"):
        dsyrk = getattr(lib, name, None)
        if dsyrk is not None:
            i32, i64, dbl, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            dsyrk.argtypes = [i32, i32, i32, i64, i64, dbl, ptr, i64, dbl, ptr, i64]
            dsyrk.restype = None
            return dsyrk
    return None


_DSYRK = _numpy_dsyrk()


@dataclass(frozen=True)
class EsnConfig:
    """Reservoir hyperparameters.

    ``topology`` defaults to a hub config of matching size; its mode sets
    the recurrent structure while ``injection`` sets where input lands.
    ``washout`` is the number of leading states of every sequence, a
    transient from the zero state, that the readout fit drops.
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
        check_int("n", self.n, 1)
        check_int("input_dim", self.input_dim, 1)
        check_int("washout", self.washout, 0)
        check_int("seed", self.seed, 0)
        check_float("r_sig", self.r_sig)
        check_float("spec_rad", self.spec_rad)
        if not (0.0 < self.r_sig <= 1.0):
            raise HubnetError(f"r_sig must be in (0, 1], got {self.r_sig}")
        if self.spec_rad <= 0.0:
            raise HubnetError(f"spec_rad must be positive, got {self.spec_rad}")
        if self.injection not in ("hub", "random"):
            raise HubnetError(f"injection must be 'hub' or 'random', got {self.injection!r}")
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
    """Initialized reservoir, immutable; ``w_rec`` keeps its network's zero pattern."""

    w_in: np.ndarray
    w_rec: np.ndarray
    input_mask: np.ndarray
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


def init_esn(cfg: EsnConfig) -> Esn:
    """Build the reservoir: topology, spectral scaling, input matrix, mask.

    Every draw comes from ``default_rng(cfg.seed)``, so the config alone
    rebuilds the reservoir bit for bit.  The pruned weights are rescaled in
    place to the spectral radius ``spec_rad`` and become ``w_rec``.
    """
    rng = np.random.default_rng(cfg.seed)
    w_rec = generate_network(cfg.topology, rng).weights
    sr = spectral_radius(w_rec)
    if sr < 1e-12:
        raise HubnetError("spectral radius below 1e-12; cannot rescale")
    w_rec *= cfg.spec_rad / sr

    w_in = rng.uniform(-1.0, 1.0, size=(cfg.n, cfg.input_dim))
    n_in = cfg.n_input_neurons
    if cfg.injection == "hub":
        # stable sort on -degree: equal degrees break toward the lower index
        chosen = np.argsort(-node_degrees(w_rec), kind="stable")[:n_in]
    else:
        chosen = rng.choice(cfg.n, size=n_in, replace=False)
    mask = np.zeros(cfg.n, dtype=bool)
    mask[chosen] = True
    w_in[~mask] = 0.0
    return Esn(w_in=w_in, w_rec=w_rec, input_mask=mask, config=cfg)


def _checked_inputs(esn: Esn, inputs, s0) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Inputs as a (B, T, d) batch, the (B, n) start states or None, and the inputs' ndim."""
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
    if s0 is None:
        return u, None, inputs.ndim
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (esn.n,):
        raise HubnetError(f"s0 has shape {s0.shape}, expected ({esn.n},)")
    if not np.isfinite(s0).all():
        raise HubnetError("initial state s0 must be finite")
    # a row per sequence, so step 0's product is the gemm of every later step
    return u, np.tile(s0, (u.shape[0], 1)), inputs.ndim


def _row_blocks(n: int, batch: int) -> list[slice]:
    """The row blocks of ``w_rec`` whose products make one recurrent step.

    A single sequence splits ``w_rec`` at h = 64 * round(n / 128) rows, so
    ``_drive`` can take the half it read last first on the next step,
    while that half is still in cache.  Each output entry is one row's dot
    product either way, and OpenBLAS's dgemv takes rows in aligned groups,
    so a split on a multiple of 64 leaves every bit as it is.  One block
    is kept where that does not hold:

    - a batch: splitting a gemm changed bits;
    - n < 128: a block under 64 rows, which fits in cache anyway, and at
      n = 65 a 1-row block, which numpy hands to ddot, not dgemv;
    - n * n >= _GEMV_THREAD_ENTRIES: OpenBLAS runs the whole product on
      all its threads, splitting the rows itself, and a second split both
      changed bits and ran 2.8x slower on 2 threads at n = 700.
    """
    h = 64 * round(n / 128)
    if batch > 1 or n < 128 or n * n >= _GEMV_THREAD_ENTRIES:
        return [slice(0, n)]
    return [slice(0, h), slice(h, n)]


def _drive(esn: Esn, u: np.ndarray, s: np.ndarray | None, out: np.ndarray):
    """The recurrence: yields the (B, n) states after each input row u[:, t].

    Starts from the states ``s``, or from zeros when it is None, and writes
    step t's state into ``out[t % len(out)]``: (T, B, n), or a ring of the
    last ones.  A yield is the state the next step reads, not to be written.
    """
    rec = np.empty(out.shape[1:])
    blocks = [(esn.w_rec[rows].T, rec[:, rows]) for rows in _row_blocks(esn.n, len(rec))]
    # odd steps run the blocks backwards: the block read last comes first
    orders = blocks, blocks[::-1]
    for t in range(u.shape[1]):
        state = out[t % len(out)]
        np.matmul(u[:, t], esn.w_in.T, out=state)
        # from the zero state the recurrent term is zero: step 0 is the
        # drive's tanh, the same values (only a zero's sign can differ)
        if s is not None:
            for w_t, part in orders[t % 2]:
                np.matmul(s, w_t, out=part)
            state += rec
        s = np.tanh(state, out=state)
        yield s


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
    for _ in _drive(esn, u, s, states.transpose(1, 0, 2)):
        pass
    return states if ndim == 3 else states[0]


def harvest_steps(esn: Esn, inputs: np.ndarray, s0: np.ndarray | None = None):
    """``harvest``, one time step at a time, in a ring of two buffers.

    Takes the inputs and ``s0`` that ``harvest`` takes and yields, for each
    input row t in turn, the (B, n) states after it: the same bits as
    ``harvest(...)[..., t, :]``, with B = 1 for a single sequence.  Every
    yield is a read-only view of one of two (B, n) buffers, which step
    t + 1 reads and step t + 2 overwrites.
    """
    u, s, _ = _checked_inputs(esn, inputs, s0)
    for state in _drive(esn, u, s, np.empty((2, u.shape[0], esn.n))):
        view = state.view()
        view.flags.writeable = False
        yield view


def _gram_solve(gram: np.ndarray, sty: np.ndarray) -> np.ndarray | None:
    """Solve gram @ w = sty when eigvalsh proves gram well conditioned, else None.

    ``gram`` is S^T S and ``sty`` is S^T Y for a state matrix S with at
    least as many rows as columns.
    """
    lam = np.linalg.eigvalsh(gram)
    if lam[0] <= GRAM_EIG_RATIO * lam[-1]:
        return None
    return np.linalg.solve(gram, sty)


def _add_gram(gram: np.ndarray, s: np.ndarray) -> None:
    """Add S^T S to the upper triangle of ``gram``, in place.

    ``gram`` and the block ``s`` are C-ordered float64.  With ``_DSYRK``,
    one rank-k update C <- S^T S + C leaves the lower triangle as it was;
    without it, ``s.T @ s`` is made, mirrored and added.
    """
    if _DSYRK is None:
        gram += s.T @ s
        return
    ld = max(gram.shape[0], 1)
    # CblasRowMajor, CblasUpper, CblasTrans: C (n x n) += A^T A, A (rows x n)
    _DSYRK(101, 121, 112, s.shape[1], s.shape[0], 1.0, s.ctypes.data, ld, 1.0,
           gram.ctypes.data, ld)


def stream_readout(blocks, shape: tuple[int, int]) -> np.ndarray:
    """Minimum-norm least-squares readout of S and Y, given as row blocks.

    ``blocks()`` returns a fresh iterable of ``(states, targets)`` pairs,
    consecutive row blocks of S (n columns) and Y (k columns), where
    ``shape`` is (n, k); the caller drops any washout rows before they get
    here.  No block is referenced once the next is requested, so a
    generator of blocks keeps one block alive.

    A first pass sums S^T S, by a rank-k update of its upper triangle per
    block, and S^T Y.  With at least as many rows as
    columns and, by ``eigvalsh``, lambda_min > 1e-10 * lambda_max
    (cond(S) < 1e5), it solves the normal equations with ``solve``:
    ``fit_readout``'s rcond cutoff of 1e-10 * sigma_max
    then cuts no singular value, so both give one solution up to rounding
    (about cond(S^T S) * eps, below 3e-6 relative).  Any other S, one with
    a non-finite entry included, takes a second pass that reduces [S | Y]
    to the triangle R of its QR factorization, one QR of [R; block] per
    block, and returns ``fit_readout`` on R, whose first n columns have S's
    singular values.
    """
    n, k = shape
    # allocated before the first block exists: allocated after it, they
    # fragmented the heap and raised an n = 500 MNIST run's peak RSS from
    # 75 to 87 MB
    gram, sty = np.zeros((n, n)), np.zeros((n, k))
    rows = 0
    for s, y in blocks():
        if s.shape[1:] != (n,) or y.shape[1:] != (k,):
            raise HubnetError(f"block shapes {s.shape} and {y.shape} do not match "
                              f"{n} state and {k} target columns")
        if s.shape[0] != y.shape[0]:
            raise HubnetError(f"{s.shape[0]} state rows vs {y.shape[0]} target rows")
        rows += s.shape[0]
        if not np.isfinite(y).all():
            raise HubnetError("readout states and targets must be finite")
        # dsyrk reads the block through a pointer, so any stride or dtype
        # it was given would sum a wrong S^T S
        s = np.ascontiguousarray(s, dtype=float)
        _add_gram(gram, s)
        sty += s.T @ y
        # a block still referenced while the next one is made raised the
        # same peak RSS to 91 MB
        del s, y
    if rows < 1:
        raise HubnetError("no rows to fit")
    # _add_gram fills the upper triangle: mirror it once, after the pass
    np.copyto(gram, gram.T, where=np.tri(n, k=-1, dtype=bool))
    # a non-finite state makes its diagonal entry of S^T S non-finite
    if 0 < n <= rows and np.isfinite(gram).all():
        w_out = _gram_solve(gram, sty)
        if w_out is not None:
            return w_out
    del gram, sty
    r = np.empty((0, n + k))
    for s, y in blocks():
        stacked = np.vstack((r, np.hstack((s, y))))
        del s, y
        if not np.isfinite(stacked).all():
            raise HubnetError("readout states and targets must be finite")
        r = np.linalg.qr(stacked, mode="r")
        del stacked
    return fit_readout(r[:, :n], r[:, n:])


def fit_readout(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares readout on the harvested states.

    The fit is ``lstsq(states, targets, rcond=1e-10)``, which cuts singular
    values below 1e-10 * sigma_max; the caller drops any washout rows.
    """
    states = np.asarray(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if states.ndim != 2 or targets.ndim not in (1, 2):
        raise HubnetError(f"states must be 2-D and targets 1-D or 2-D, "
                          f"got {states.ndim}-D and {targets.ndim}-D")
    if len(states) != len(targets):
        raise HubnetError(f"{len(states)} state rows vs {len(targets)} target rows")
    if len(states) < 1:
        raise HubnetError("no rows to fit")
    if not (np.isfinite(states).all() and np.isfinite(targets).all()):
        raise HubnetError("readout states and targets must be finite")
    return np.linalg.lstsq(states, targets, rcond=1e-10)[0]


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
