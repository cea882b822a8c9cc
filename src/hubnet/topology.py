"""Generation of hub-structured and random recurrent weight matrices.

A dense Gaussian weight matrix is pruned down to a target edge density.
For hub networks the per-edge deletion probabilities combine a wiring-cost
(distance) term, a neurogenetic (index-sum) term, and an optional random
regularizer that interpolates back towards a uniformly pruned network.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import HubnetError

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
        if self.n < 0:
            raise HubnetError(f"n must be nonnegative, got {self.n}")
        for name in ("density", "alpha", "beta", "lambda_dc", "lambda_nc",
                     "lambda_reg", "weight_sigma2"):
            # a NaN passes the "< 0" checks below, and NaN or infinite
            # deletion masses turn hub pruning silently uniform
            if not math.isfinite(getattr(self, name)):
                raise HubnetError(f"{name} must be finite, got {getattr(self, name)}")
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
        off = ~np.eye(self.n, dtype=bool)
        return int(np.count_nonzero(self.weights[off]))


def target_edge_count(n: int, density: float) -> int:
    """Number of off-diagonal edges retained at the given density."""
    return int(round(density * n * (n - 1)))


def sample_coordinates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. standard-normal 3-D coordinates for n nodes."""
    if n < 0:
        raise HubnetError("n must be nonnegative")
    return rng.standard_normal((n, 3))


def distance_constraint(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of the node coordinates."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


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
    mass stays nonnegative.
    """
    n = cfg.n

    def unit_max(term: np.ndarray) -> np.ndarray:
        term = term.copy()
        np.fill_diagonal(term, 0.0)
        m = term.max() if term.size else 0.0
        return term / m if m > 0.0 else term

    mass = (
        cfg.lambda_dc * unit_max(c_d ** cfg.alpha)
        + cfg.lambda_nc * unit_max(c_n ** cfg.beta)
        + cfg.lambda_reg * unit_max(np.abs(r))
    )
    total = mass.sum() if n > 0 else 0.0
    if total <= 0.0:
        raise HubnetError(
            "every deletable edge has zero pruning mass; "
            "check n, the lambdas, and the exponents"
        )
    return mass / total


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

    off_diag = np.flatnonzero(~np.eye(n, dtype=bool))
    masses = p.reshape(-1)[off_diag]
    keys = rng.exponential(size=total)
    positive = masses > 0.0

    removed = np.zeros(total, dtype=bool)
    n_pos = int(positive.sum())
    take_weighted = min(d_remove, n_pos)
    if take_weighted > 0:
        wkeys = np.full(total, np.inf)
        wkeys[positive] = keys[positive] / masses[positive]
        cut = np.partition(wkeys, take_weighted - 1)[take_weighted - 1]
        removed = wkeys < cut
        ties = np.flatnonzero(wkeys == cut)
        removed[ties[:take_weighted - int(removed.sum())]] = True

    deficit = d_remove - take_weighted
    if deficit > 0:
        survivors = np.flatnonzero(~removed)
        extra = rng.choice(survivors, size=deficit, replace=False)
        removed[extra] = True

    out.flat[off_diag[removed]] = 0.0
    return out


def generate_network(cfg: TopologyConfig, rng: np.random.Generator | None = None) -> Network:
    """Generate a pruned network per the config.

    Dense weights are Normal(0, weight_sigma2).  Hub mode prunes with the
    constraint-derived probabilities; random mode prunes uniformly.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = cfg.n
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


def edges_to_dense(edges, shape: tuple[int, int]) -> np.ndarray:
    """Dense matrix from [row, column, weight] triples.

    Rejects an index outside the matrix and a non-finite weight, so a
    malformed document cannot wrap into another row or poison results.
    """
    try:
        triples = np.asarray(edges, dtype=float)
    except (TypeError, ValueError) as exc:
        raise HubnetError("edges must be [row, column, weight] triples") from exc
    if triples.size == 0:
        triples = triples.reshape(0, 3)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise HubnetError("edges must be [row, column, weight] triples")
    rows, cols, values = triples.T
    for idx, size, what in ((rows, shape[0], "row"), (cols, shape[1], "column")):
        bad = ~((idx >= 0) & (idx < size))
        if bad.any():
            raise HubnetError(f"edge {what} index {idx[bad][0]:g} outside 0..{size - 1}")
    if not np.isfinite(values).all():
        raise HubnetError("edge weights must be finite")
    dense = np.zeros(shape)
    dense[rows.astype(int), cols.astype(int)] = values
    return dense


def network_from_dict(doc: dict) -> Network:
    if not isinstance(doc, dict) or set(doc) != set(NETWORK_KEYS):
        got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise HubnetError(f"network JSON must have exactly the keys {list(NETWORK_KEYS)}, got {got}")
    try:
        cfg = TopologyConfig(**doc["config"])
        n, edges, coords = int(doc["n"]), doc["edges"], doc["coords"]
    except TypeError as exc:
        raise HubnetError(f"malformed network JSON config: {exc}") from None
    if n != cfg.n:
        raise HubnetError(f"network JSON has n = {n} but config.n = {cfg.n}")
    coords = np.asarray(coords, dtype=float).reshape(-1, 3)
    if coords.shape[0] != n:
        raise HubnetError(f"network JSON has {coords.shape[0]} coords rows for n = {n}")
    weights = edges_to_dense(edges, (n, n))
    return Network(weights=weights, coords=coords, config=cfg)


def save_network(net: Network, path) -> None:
    """Write the network as JSON (round-trip exact edge weights)."""
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh)


def load_network(path) -> Network:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
