"""Graph-theoretic measurements of generated networks.

Degrees and their coefficient of variation, Louvain community detection,
Newman modularity, the geometric-mean weighted clustering coefficient,
and unconnected-node counts.  Partitioning and modularity both operate on
the symmetrized absolute-weight matrix A_ij = max(|w_ij|, |w_ji|), so the
binarized A matches the union graph used for degrees.
"""

from __future__ import annotations

import numpy as np

from .errors import HubnetError
from .topology import Network

__all__ = [
    "node_degrees",
    "heterogeneity_cv",
    "louvain_partition",
    "modularity",
    "clustering_coefficient",
    "unconnected_count",
    "degree_summary",
    "network_metrics",
]


def _as_weights(net) -> np.ndarray:
    w = net.weights if isinstance(net, Network) else np.asarray(net, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise HubnetError(f"weight matrix must be square and 2-D, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise HubnetError("weight matrix must be finite")
    return w


def _sym_abs(w: np.ndarray) -> np.ndarray:
    a = np.abs(w)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    return a


def node_degrees(net) -> np.ndarray:
    """Total degree per node: in-degree + out-degree, diagonal excluded."""
    nz = _as_weights(net) != 0.0
    np.fill_diagonal(nz, False)
    return (nz.sum(axis=1) + nz.sum(axis=0)).astype(np.int64)


def heterogeneity_cv(degrees: np.ndarray) -> float:
    """Coefficient of variation (population SD / mean) of nodal degree."""
    degrees = np.asarray(degrees, dtype=float)
    if degrees.size == 0:
        raise HubnetError("degree vector must be nonempty")
    mean = degrees.mean()
    if mean <= 0.0:
        raise HubnetError("mean degree is zero; CV undefined")
    return float(degrees.std() / mean)


def unconnected_count(net) -> int:
    """Number of nodes with zero total degree."""
    return int(np.count_nonzero(node_degrees(net) == 0))


def modularity(net, labels: np.ndarray) -> float:
    """Newman modularity of a partition on the symmetrized |weight| graph.

    Q = (1/2m) * sum over same-community pairs of (A_ij - k_i k_j / 2m),
    with k the weighted degree and 2m the total weight of A.
    """
    a = _sym_abs(_as_weights(net))
    labels = np.asarray(labels)
    if labels.shape[0] != a.shape[0]:
        raise HubnetError("label vector length must equal node count")
    two_m = a.sum()
    if two_m <= 0.0:
        raise HubnetError("graph has no edge weight; modularity undefined")
    k = a.sum(axis=1)
    same = labels[:, None] == labels[None, :]
    # sum within communities before dividing: the grouped form
    # sum_c (sum_{i in c} k_i)^2 avoids per-pair rounding, so the
    # hand-derived oracles come out exact
    _, inverse = np.unique(labels, return_inverse=True)
    k_comm = np.bincount(inverse, weights=k)
    q = a[same].sum() - (k_comm ** 2).sum() / two_m
    return float(q / two_m)


def louvain_partition(net) -> np.ndarray:
    """Louvain community detection on the symmetrized |weight| graph.

    Deterministic: nodes are visited in ascending index order and ties in
    modularity gain break toward the lowest community id, so the result is
    a pure function of the graph.
    """
    a = _sym_abs(_as_weights(net))
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    labels = np.arange(n)
    level_graph = a
    while True:
        part = _louvain_one_level(level_graph)
        n_comm = part.max() + 1
        if n_comm == level_graph.shape[0]:
            break
        labels = part[labels]
        # aggregate: community graph with self-loops carrying internal weight
        onehot = (part[:, None] == np.arange(n_comm)[None, :]).astype(float)
        level_graph = onehot.T @ level_graph @ onehot

    return _relabel_contiguous(labels)


def _louvain_one_level(a: np.ndarray) -> np.ndarray:
    """One local-moving phase; returns community labels (contiguous)."""
    n = a.shape[0]
    # row sums include the diagonal once; aggregation preserves this form
    two_m = a.sum()
    if two_m <= 0.0:
        return np.arange(n)
    comm = np.arange(n)
    k = a.sum(axis=1)
    sigma_tot = k.copy()

    # link weights to other nodes only: the self-loop is not a neighbor
    off = a - np.diag(a.diagonal())
    neighbors = [np.flatnonzero(row) for row in off]
    weights = [row[j] for row, j in zip(off, neighbors)]
    improved = True
    while improved:
        improved = False
        for i in range(n):
            ci = comm[i]
            ki = k[i]
            # bincount sums in ascending neighbor order, as a running sum would
            w_to = np.bincount(comm[neighbors[i]], weights=weights[i], minlength=n)
            sigma_tot[ci] -= ki
            base = w_to[ci] - ki * sigma_tot[ci] / two_m
            gain = (w_to - ki * sigma_tot / two_m) - base
            best_c, best_gain = ci, 0.0
            # ascending community ids: the first maximum wins a tie
            for c in np.flatnonzero((w_to > 0.0) & (gain > 1e-12)):
                if gain[c] > best_gain + 1e-12:
                    best_c, best_gain = c, gain[c]
            comm[i] = best_c
            sigma_tot[best_c] += ki
            if best_c != ci:
                improved = True
    return _relabel_contiguous(comm)


def _relabel_contiguous(labels: np.ndarray) -> np.ndarray:
    """Renumber labels to 0..k-1 in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def clustering_coefficient(net) -> float:
    """Mean geometric-mean weighted clustering coefficient.

    Negative weights are dropped, the remainder symmetrized by max, and
    weights normalized by the global maximum.  Nodes with fewer than two
    neighbors contribute 0; the mean runs over all nodes.
    """
    w = _as_weights(net).copy()
    np.fill_diagonal(w, 0.0)
    w[w <= 0.0] = 0.0
    a = np.maximum(w, w.T)
    n = a.shape[0]
    if n == 0 or a.max() <= 0.0:
        return 0.0
    a = a / a.max()
    cube_root = np.cbrt(a)
    triangles = np.linalg.multi_dot([cube_root] * 3).diagonal()
    k = (a > 0.0).sum(axis=1)
    denom = k * (k - 1)
    coeffs = np.where(denom > 0, triangles / np.where(denom > 0, denom, 1), 0.0)
    return float(coeffs.mean())


def degree_summary(degrees: np.ndarray) -> dict:
    """Moments of the degree sample plus a fixed-width histogram.

    Returns the keys ``mean``, ``sd``, ``skewness``, ``bin_edges`` and
    ``counts``, each a JSON value.  Bin width follows the Freedman-Diaconis
    rule with a floor of 1.  Skewness is the population skewness, 0 by
    convention for SD = 0.
    """
    d = np.asarray(degrees, dtype=float)
    if d.size == 0:
        raise HubnetError("degree vector must be nonempty")
    mean = float(d.mean())
    sd = float(d.std())
    if sd > 0.0:
        skew = float(((d - mean) ** 3).mean() / sd ** 3)
    else:
        skew = 0.0
    q75, q25 = np.percentile(d, [75, 25])
    width = max(1.0, 2.0 * (q75 - q25) * d.size ** (-1.0 / 3.0))
    lo, hi = d.min(), d.max()
    n_bins = max(1, int(np.ceil((hi - lo) / width))) if hi > lo else 1
    edges = lo + width * np.arange(n_bins + 1)
    edges[-1] = max(edges[-1], hi)  # make the last bin closed over the max
    counts, edges = np.histogram(d, bins=edges)
    return {"mean": mean, "sd": sd, "skewness": skew,
            "bin_edges": edges.tolist(), "counts": counts.tolist()}


def network_metrics(net) -> dict:
    """The full measurement bundle: CV, modularity, clustering, unconnected."""
    deg = node_degrees(net)
    labels = louvain_partition(net)
    return {
        "cv": heterogeneity_cv(deg),
        "modularity": modularity(net, labels),
        "clustering": clustering_coefficient(net),
        "unconnected": int(np.count_nonzero(deg == 0)),
        "degree_summary": degree_summary(deg),
    }
