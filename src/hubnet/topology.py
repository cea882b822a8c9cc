"""Generation of hub-structured and random recurrent weight matrices.

A dense Gaussian weight matrix is pruned down to a target edge density.
For hub networks the per-edge deletion probabilities combine a wiring-cost
(distance) term, a neurogenetic (index-sum) term, and an optional random
regularizer that interpolates back towards a uniformly pruned network.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import HubnetError, check_float, check_indices, check_int, check_memory

__all__ = [
    "TopologyConfig",
    "Network",
    "sample_coordinates",
    "distance_constraint",
    "neurogenetic_constraint",
    "prune_probabilities",
    "prune",
    "target_edge_count",
    "generate_network",
    "save_network",
    "load_network",
]

# traced peak bytes of generate_network per n**2: six n x n float64 arrays,
# reached while prune_probabilities holds the dense draw, its three
# constraint arguments, the mass and one scaled term
GENERATION_BYTES_PER_N2 = 6 * 8

# the top-level keys of a network JSON document; ``n`` repeats ``config.n``
# for readers of ``hubnet gen`` output and must agree with it on load
NETWORK_KEYS = ("n", "config", "coords", "edges")


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters controlling network generation.

    ``density`` is the fraction of off-diagonal edges *retained* after
    pruning.  ``alpha``/``beta`` are the exponents applied to the distance
    and index-sum constraints; ``lambda_dc``/``lambda_nc``/``lambda_reg``
    weight the three deletion-mass terms (only their ratios matter).
    """

    n: int
    density: float = 0.2
    alpha: float = 2.0
    beta: float = 2.0
    lambda_dc: float = 0.5
    lambda_nc: float = 0.5
    lambda_reg: float = 0.0
    mode: str = "hub"
    weight_sigma2: float = 1.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        check_int("n", self.n, 0)
        check_int("seed", self.seed, 0)
        for name in ("density", "alpha", "beta", "lambda_dc", "lambda_nc",
                     "lambda_reg", "weight_sigma2"):
            # a NaN passes the "< 0" checks below, and NaN or infinite
            # deletion masses turn hub pruning silently uniform
            check_float(name, getattr(self, name))
        if not (0.0 < self.density <= 1.0):
            raise HubnetError(f"density must be in (0, 1], got {self.density}")
        if self.mode not in ("hub", "random"):
            raise HubnetError(f"mode must be 'hub' or 'random', got {self.mode!r}")
        if self.alpha < 0 or self.beta < 0:
            raise HubnetError("alpha and beta must be nonnegative")
        if min(self.lambda_dc, self.lambda_nc, self.lambda_reg) < 0:
            raise HubnetError("lambda coefficients must be nonnegative")
        if self.mode == "hub" and self.lambda_dc + self.lambda_nc + self.lambda_reg <= 0:
            raise HubnetError("hub mode needs at least one positive lambda")
        if self.weight_sigma2 <= 0:
            raise HubnetError("weight_sigma2 must be positive")


@dataclass
class Network:
    """A pruned directed weighted network.

    ``weights[i, j]`` is the connection from node j into node i; zero
    means absent.  ``coords`` holds each node's 3-D position.
    """

    weights: np.ndarray
    coords: np.ndarray
    config: TopologyConfig

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.weights) - np.count_nonzero(np.diagonal(self.weights)))


def target_edge_count(n: int, density: float) -> int:
    """Number of off-diagonal edges retained at the given density."""
    return int(round(density * n * (n - 1)))


def sample_coordinates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. standard-normal 3-D coordinates for n nodes."""
    if n < 0:
        raise HubnetError("n must be nonnegative")
    return rng.standard_normal((n, 3))


def distance_constraint(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of the node coordinates.

    The squared differences are added one axis at a time, left to right,
    as a sum over a length-3 axis adds them, so no (n, n, 3) array exists.
    """
    def squared_diff(axis: np.ndarray) -> np.ndarray:
        diff = np.subtract.outer(axis, axis)
        diff *= diff
        return diff

    dist = squared_diff(coords[:, 0])
    for k in range(1, coords.shape[1]):
        dist += squared_diff(coords[:, k])
    return np.sqrt(dist, out=dist)


def neurogenetic_constraint(n: int) -> np.ndarray:
    """Index-sum matrix: entry (i, j) = i + j, 0-based."""
    idx = np.arange(n, dtype=float)
    return idx[:, None] + idx[None, :]


def prune_probabilities(
    c_d: np.ndarray,
    c_n: np.ndarray,
    r: np.ndarray,
    cfg: TopologyConfig,
) -> np.ndarray:
    """Normalized edge-deletion probability matrix.

    Deletion mass per off-diagonal edge combines the three terms
    ``dc**alpha``, ``nc**beta``, and ``|r|``, each first scaled to unit
    maximum over the deletable set so that the lambdas weigh *relative*
    importance (otherwise the index-sum term, which grows like n**2,
    swamps the distance term by orders of magnitude).  The result is
    normalized to sum to 1.  The regularizer uses absolute values so the
    mass stays nonnegative.  A total mass that is zero, or not finite
    because a term overflowed, raises ``HubnetError``.
    """
    n = cfg.n

    def scaled(term: np.ndarray, lam: float) -> np.ndarray:
        # term is a new array, so it is scaled in place; integer
        # arguments give integer terms, made float first
        term = term.astype(float, copy=False)
        np.fill_diagonal(term, 0.0)
        m = term.max() if term.size else 0.0
        if m > 0.0:
            term /= m
        term *= lam
        return term

    # (lambda_dc A + lambda_nc B) + lambda_reg C, holding one term at a time;
    # a term that overflows to inf turns the total into inf or NaN, which
    # is refused below, so the warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        mass = scaled(c_d ** cfg.alpha, cfg.lambda_dc)
        mass += scaled(c_n ** cfg.beta, cfg.lambda_nc)
        mass += scaled(np.abs(r), cfg.lambda_reg)
        total = mass.sum() if n > 0 else 0.0
    if not 0.0 < total < np.inf:
        raise HubnetError(
            "every deletable edge has zero pruning mass, or the mass overflows; "
            "check n, the lambdas, and the exponents"
        )
    mass /= total
    return mass


def prune(
    dense: np.ndarray,
    p: np.ndarray,
    density: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Delete off-diagonal edges down to the target density.

    A weighted sample without replacement via exponential order
    statistics: each deletable edge gets key Exp(1)/p_ij and the
    d_remove smallest keys are deleted, equal keys in row-major edge
    order (the set a stable sort of the keys would take).  Zero-mass edges
    only go once positive-mass edges are exhausted, in which case the
    deficit is removed uniformly from the survivors.
    """
    n = dense.shape[0]
    out = dense.copy()
    np.fill_diagonal(out, 0.0)
    total = n * (n - 1)
    d_remove = total - target_edge_count(n, density)
    if d_remove <= 0:
        return out

    masses = _off_diagonal(p)
    keys = rng.exponential(size=total).reshape(masses.shape)
    positive = masses > 0.0

    removed = np.zeros(masses.shape, dtype=bool)
    n_pos = int(np.count_nonzero(positive))
    take_weighted = min(d_remove, n_pos)
    if take_weighted > 0:
        # the keys become Exp(1) / p, and inf where p is zero
        np.divide(keys, masses, out=keys, where=positive)
        keys[~positive] = np.inf
        cut = np.partition(keys, take_weighted - 1, axis=None)[take_weighted - 1]
        removed = keys < cut
        ties = np.flatnonzero(keys == cut)
        removed.flat[ties[:take_weighted - int(np.count_nonzero(removed))]] = True
    del keys, positive

    deficit = d_remove - take_weighted
    if deficit > 0:
        survivors = np.flatnonzero(~removed)
        extra = rng.choice(survivors, size=deficit, replace=False)
        removed.flat[extra] = True

    _off_diagonal(out)[removed] = 0.0
    return out


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a square array as an (n - 1, n) view.

    Row-major, the n entries between diagonal entries i and i + 1 form
    row i, so the view lists the entries in row-major edge order.
    """
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def generate_network(cfg: TopologyConfig, rng: np.random.Generator | None = None) -> Network:
    """Generate a pruned network per the config.

    Dense weights are Normal(0, weight_sigma2).  Hub mode prunes with the
    constraint-derived probabilities; random mode prunes uniformly.  Before
    anything is allocated, an n whose ``GENERATION_BYTES_PER_N2 * n**2``
    bytes exceed physical memory raises ``HubnetError``.
    """
    n = cfg.n
    check_memory(GENERATION_BYTES_PER_N2 * n * n, f"n = {n}", "to generate")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    coords = sample_coordinates(n, rng)
    dense = rng.normal(0.0, np.sqrt(cfg.weight_sigma2), size=(n, n))
    np.fill_diagonal(dense, 0.0)

    if n <= 1:
        return Network(weights=np.zeros((n, n)), coords=coords, config=cfg)

    if cfg.mode == "hub":
        # no names hold the constraints or the draw, so they are freed
        # before prune runs
        p = prune_probabilities(distance_constraint(coords), neurogenetic_constraint(n),
                                rng.normal(0.0, np.sqrt(cfg.weight_sigma2), size=(n, n)),
                                cfg)
    else:
        p = np.full((n, n), 1.0)
        np.fill_diagonal(p, 0.0)
        p /= p.sum()
    weights = prune(dense, p, cfg.density, rng)
    return Network(weights=weights, coords=coords, config=cfg)


def network_to_dict(net: Network) -> dict:
    rows, cols = np.nonzero(net.weights)
    edges = [
        [int(i), int(j), float(net.weights[i, j])] for i, j in zip(rows, cols)
    ]
    return {
        "n": net.n,
        "config": asdict(net.config),
        "coords": net.coords.tolist(),
        "edges": edges,
    }


def edges_to_dense(triples: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Dense matrix from a (k, 3) array of [row, column, weight] triples.

    Rejects an index outside the matrix or not an integer, a self-loop,
    an edge given twice and a zero or non-finite weight, so a malformed
    document cannot wrap into another row, lose an edge, hold one that no
    measure counts or poison results.
    """
    rows, cols, values = triples.T
    check_indices("edge row", rows, shape[0])
    check_indices("edge column", cols, shape[1])
    if not (np.isfinite(values) & (values != 0) & (rows != cols)).all():
        raise HubnetError("every edge must join two nodes by a finite nonzero weight")
    flat = rows.astype(int) * shape[1] + cols.astype(int)
    seen, counts = np.unique(flat, return_counts=True)
    if (counts > 1).any():
        row, col = divmod(int(seen[counts > 1][0]), shape[1])
        raise HubnetError(f"edge ({row}, {col}) appears more than once")
    dense = np.zeros(shape)
    dense.flat[flat] = values
    return dense


def _number_triples(rows, key: str) -> np.ndarray:
    """A JSON list of rows of three numbers as a (k, 3) float array.

    Checked here because numpy would read a bool, a numeric string or a
    null as a number.
    """
    if (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {3}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        try:
            return np.array(rows, dtype=float).reshape(-1, 3)
        except OverflowError:  # an int too large for a float
            pass
    raise HubnetError(f"network JSON {key} must be a list of rows of three numbers")


def network_from_dict(doc: dict) -> Network:
    if not isinstance(doc, dict) or set(doc) != set(NETWORK_KEYS):
        got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise HubnetError(f"network JSON must have exactly the keys {list(NETWORK_KEYS)}, got {got}")
    try:
        cfg = TopologyConfig(**doc["config"])
    except TypeError as exc:
        raise HubnetError(f"malformed network JSON config: {exc}") from None
    n = doc["n"]
    check_int("n", n)
    if n != cfg.n:
        raise HubnetError(f"network JSON has n = {n} but config.n = {cfg.n}")
    coords = _number_triples(doc["coords"], "coords")
    if len(coords) != n or not np.isfinite(coords).all():
        raise HubnetError(f"network JSON coords must be {n} finite [x, y, z] rows, "
                          f"got shape {coords.shape}")
    weights = edges_to_dense(_number_triples(doc["edges"], "edges"), (n, n))
    return Network(weights=weights, coords=coords, config=cfg)


def save_network(net: Network, path) -> None:
    """Write the network as JSON (round-trip exact edge weights)."""
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh)


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
