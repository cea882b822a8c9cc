import itertools
import statistics

import numpy as np
import pytest

from hubnet import netmetrics
from hubnet.errors import HubnetError
from hubnet.netmetrics import (
    clustering_coefficient,
    degree_summary,
    heterogeneity_cv,
    louvain_partition,
    modularity,
    network_metrics,
    node_degrees,
    unconnected_count,
)
from hubnet.topology import Network, TopologyConfig, generate_network


def two_triangles():
    """Two disconnected K3s on nodes {0,1,2} and {3,4,5}."""
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        a[i, j] = a[j, i] = 1.0
    return a


def test_node_degrees_counts_union_of_in_and_out():
    w = np.zeros((3, 3))
    w[0, 1] = 2.0   # edge 1 -> 0
    w[1, 0] = -1.0  # edge 0 -> 1 (negative weight still counts)
    w[2, 2] = 5.0   # self-loop ignored
    assert node_degrees(w).tolist() == [2, 2, 0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degrees_and_edge_count_match_masked_copy_formulas(seed):
    rng = np.random.default_rng(seed)
    n = 50
    w = generate_network(TopologyConfig(n=n, density=0.3, seed=seed)).weights
    # a partly nonzero diagonal, which both counts leave out
    np.fill_diagonal(w, rng.normal(size=n) * (rng.random(n) < 0.5))
    net = Network(weights=w, coords=np.zeros((n, 3)), config=TopologyConfig(n=n))
    off = w.copy()
    np.fill_diagonal(off, 0.0)
    nz = off != 0.0
    assert np.array_equal(node_degrees(net), (nz.sum(axis=1) + nz.sum(axis=0)).astype(np.int64))
    assert net.edge_count == int(np.count_nonzero(w[~np.eye(n, dtype=bool)]))


def test_heterogeneity_cv_oracle():
    assert heterogeneity_cv(np.array([4, 4, 4, 4])) == 0.0
    # degrees 1,1,2: mean 4/3, population sd sqrt(2)/3
    assert heterogeneity_cv(np.array([1, 1, 2])) == pytest.approx(np.sqrt(2) / 4)
    with pytest.raises(HubnetError, match="mean degree is zero"):
        heterogeneity_cv(np.zeros(5))


def test_unconnected_count():
    w = np.zeros((4, 4))
    w[0, 1] = 1.0
    assert unconnected_count(w) == 2


def test_modularity_two_components_is_half():
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(two_triangles(), labels) == pytest.approx(0.5, abs=1e-15)


def test_modularity_single_cross_edge_is_minus_half():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = 1.0
    assert modularity(a, np.array([0, 1])) == pytest.approx(-0.5, abs=1e-15)


def test_modularity_one_community_is_zero():
    assert modularity(two_triangles(), np.zeros(6)) == pytest.approx(0.0, abs=1e-15)


def test_modularity_uses_absolute_symmetrized_weights():
    a = np.zeros((2, 2))
    a[0, 1] = -3.0  # |.| and max-symmetrization make this a weight-3 edge
    assert modularity(a, np.array([0, 1])) == pytest.approx(-0.5, abs=1e-15)


def test_modularity_rejects_empty_graph_and_bad_labels():
    with pytest.raises(HubnetError, match="no edge weight"):
        modularity(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        modularity(two_triangles(), np.zeros(5))


def _partitions(items):
    """All set partitions, as label vectors."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        n_blocks = max(part, default=-1) + 1
        for b in range(n_blocks + 1):
            yield [b] + part


def test_louvain_matches_brute_force_optimum():
    a = two_triangles()
    a[2, 3] = a[3, 2] = 0.25  # weak bridge between the triangles
    best = max(modularity(a, np.asarray(labels)) for labels in _partitions(list(range(6))))
    found = louvain_partition(a)
    assert modularity(a, found) == pytest.approx(best, abs=1e-12)
    # the optimum splits by triangle
    assert len(set(found[:3])) == 1 and len(set(found[3:])) == 1
    assert found[0] != found[3]


def test_louvain_is_deterministic_and_contiguous():
    net = generate_network(TopologyConfig(n=80, density=0.1, seed=4))
    a = louvain_partition(net)
    b = louvain_partition(net)
    assert np.array_equal(a, b)
    assert set(a) == set(range(a.max() + 1))


def dict_loop_one_level(a):
    """Reference local-moving phase: per-node dicts of link weights, scanned
    in sorted community order."""
    n = a.shape[0]
    two_m = a.sum()
    if two_m <= 0.0:
        return np.arange(n)
    comm = np.arange(n)
    k = a.sum(axis=1)
    sigma_tot = k.copy()
    neighbors = [np.flatnonzero(a[i]) for i in range(n)]
    improved = True
    while improved:
        improved = False
        for i in range(n):
            ci = comm[i]
            ki = k[i]
            w_to = {}
            for j in neighbors[i]:
                if j == i:
                    continue
                w_to[comm[j]] = w_to.get(comm[j], 0.0) + a[i, j]
            sigma_tot[ci] -= ki
            base = w_to.get(ci, 0.0) - ki * sigma_tot[ci] / two_m
            best_c, best_gain = ci, 0.0
            for c in sorted(w_to):
                gain = (w_to[c] - ki * sigma_tot[c] / two_m) - base
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            comm[i] = best_c
            sigma_tot[best_c] += ki
            if best_c != ci:
                improved = True
    return dict_loop_relabel(comm)


def dict_loop_relabel(labels):
    """Reference relabel: 0..k-1 in order of first appearance."""
    out = np.empty_like(labels)
    mapping = {}
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def oracle_partition(monkeypatch, w):
    """louvain_partition with the reference phase and relabel; the levels
    it ran, counting the last one that moves nothing."""
    levels = []

    def one_level(a):
        levels.append(a.shape[0])
        return dict_loop_one_level(a)

    with monkeypatch.context() as m:
        m.setattr(netmetrics, "_louvain_one_level", one_level)
        m.setattr(netmetrics, "_relabel_contiguous", dict_loop_relabel)
        return louvain_partition(w), levels


def ring_of_cliques(n_cliques, size, rng):
    """Cliques joined in a ring by one edge each, with random weights."""
    n = n_cliques * size
    a = np.zeros((n, n))
    for c in range(n_cliques):
        block = slice(c * size, (c + 1) * size)
        a[block, block] = rng.uniform(0.5, 1.5, size=(size, size))
        a[c * size, ((c + 1) % n_cliques) * size + 1] = rng.uniform(0.1, 0.3)
    return a


@pytest.mark.parametrize("mode", ["hub", "random"])
def test_louvain_matches_dict_loop_oracle_on_generated_networks(monkeypatch, mode):
    net = generate_network(TopologyConfig(n=200, density=0.2, mode=mode, seed=5))
    expected, _ = oracle_partition(monkeypatch, net)
    found = louvain_partition(net)
    assert found.dtype == expected.dtype
    assert np.array_equal(found, expected)


def test_louvain_matches_dict_loop_oracle_over_several_levels(monkeypatch):
    a = ring_of_cliques(40, 3, np.random.default_rng(0))
    expected, levels = oracle_partition(monkeypatch, a)
    # two levels that merge, then one that moves nothing
    assert len(levels) >= 3
    assert np.array_equal(louvain_partition(a), expected)


def test_louvain_matches_dict_loop_oracle_on_exact_ties(monkeypatch):
    # unit weights: every move's gain is a ratio of small integers, so
    # moves to two singleton neighbors gain exactly the same
    a = np.zeros((12, 12))
    for i in range(12):
        a[i, (i + 1) % 12] = a[i, (i + 3) % 12] = 1.0
    expected, _ = oracle_partition(monkeypatch, a)
    found = louvain_partition(a)
    assert np.array_equal(found, expected)
    # node 0 sits between the singletons 1, 3, 9 and 11 and joins the
    # lowest of them
    assert found[0] == found[1]


def test_louvain_matches_dict_loop_oracle_within_the_tie_margin(monkeypatch):
    # node 4 links to pair {0, 1} by 0.3 and to pair {2, 3} by 0.1 + 0.2,
    # which rounds up: the second gain is larger by about 1e-16, inside
    # the 1e-12 margin, so node 4 stays with the lower community id
    a = np.zeros((5, 5))
    a[0, 1] = a[2, 3] = 1.0
    a[4, 0], a[4, 2], a[4, 3] = 0.3, 0.1, 0.2
    expected, _ = oracle_partition(monkeypatch, a)
    assert np.array_equal(louvain_partition(a), expected)
    assert expected.tolist() == [0, 0, 1, 1, 0]


def test_louvain_empty_graph():
    assert louvain_partition(np.zeros((0, 0))).shape == (0,)
    # no edges: every node stays in its own community
    assert np.array_equal(louvain_partition(np.zeros((4, 4))), np.arange(4))


@pytest.mark.parametrize("measure", [
    louvain_partition, node_degrees, clustering_coefficient, network_metrics,
    lambda w: modularity(w, np.zeros(3)),
], ids=["louvain", "degrees", "clustering", "metrics", "modularity"])
@pytest.mark.parametrize("w, message", [
    (np.full((3, 3), np.nan), "must be finite"),
    (np.diag([1.0, np.inf, 1.0]), "must be finite"),
    (np.ones((3, 4)), r"must be square and 2-D, got shape \(3, 4\)"),
    (np.ones(3), r"must be square and 2-D, got shape \(3,\)"),
    (np.ones((3, 3, 3)), r"must be square and 2-D, got shape \(3, 3, 3\)"),
], ids=["nan", "inf", "3x4", "1-D", "3-D"])
def test_measures_reject_non_square_or_non_finite_matrices(measure, w, message):
    with pytest.raises(HubnetError, match=message):
        measure(w)


def test_clustering_unweighted_triangle_is_one():
    a = np.zeros((3, 3))
    for i, j in itertools.combinations(range(3), 2):
        a[i, j] = a[j, i] = 1.0
    assert clustering_coefficient(a) == pytest.approx(1.0, abs=1e-12)


def test_clustering_weighted_triangle_oracle():
    # weights 1, 1, 0.125 after max-normalization: every node's coefficient
    # is cbrt(1 * 1 * 0.125) = 0.5
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    a[0, 2] = a[2, 0] = 0.125
    assert clustering_coefficient(a) == pytest.approx(0.5, abs=1e-12)


def test_clustering_mean_runs_over_all_nodes():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    a[0, 2] = a[2, 0] = 1.0
    # triangle contributes 1 each; the isolated node contributes 0
    assert clustering_coefficient(a) == pytest.approx(0.75, abs=1e-12)


def test_clustering_drops_nonpositive_weights():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 1.0
    a[0, 2] = a[2, 0] = -1.0  # dropped: no triangle remains
    assert clustering_coefficient(a) == 0.0


def test_degree_summary_moments():
    s = degree_summary(np.array([1, 2, 3, 4]))
    assert s.mean == pytest.approx(2.5)
    assert s.sd == pytest.approx(np.sqrt(1.25))
    assert s.skewness == pytest.approx(0.0, abs=1e-12)
    assert s.counts.sum() == 4
    # constant sample: zero skew by convention, single bin
    c = degree_summary(np.array([3, 3, 3]))
    assert c.skewness == 0.0
    assert c.counts.tolist() == [3]
    with pytest.raises(ValueError):
        degree_summary(np.array([]))


def test_network_metrics_bundle_keys():
    net = generate_network(TopologyConfig(n=60, density=0.2, seed=2))
    m = network_metrics(net)
    assert set(m) == {"cv", "modularity", "clustering", "unconnected", "degree_summary"}
    assert m["cv"] > 0.0
    assert -0.5 <= m["modularity"] <= 1.0
    assert 0.0 <= m["clustering"] <= 1.0


@pytest.mark.parametrize("mode", ["hub", "random"])
def test_modularity_and_clustering_match_networkx(mode):
    import networkx as nx

    w = generate_network(TopologyConfig(n=300, density=0.2, mode=mode, seed=11)).weights
    a = np.abs(w)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    labels = louvain_partition(w)
    communities = [set(np.flatnonzero(labels == c).tolist()) for c in range(labels.max() + 1)]
    nx_q = nx.community.modularity(nx.from_numpy_array(a), communities)
    assert abs(modularity(w, labels) - nx_q) <= 1e-9

    pos = np.where(w > 0.0, w, 0.0)
    np.fill_diagonal(pos, 0.0)
    g = nx.from_numpy_array(np.maximum(pos, pos.T))
    nx_c = np.mean(list(nx.clustering(g, weight="weight").values()))
    assert abs(clustering_coefficient(w) - nx_c) <= 1e-9


@pytest.mark.parametrize("mode", ["hub", "random"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_louvain_modularity_is_no_worse_than_networkx(mode, seed):
    import networkx as nx

    w = generate_network(TopologyConfig(n=500, density=0.2, mode=mode, seed=seed)).weights
    a = np.abs(w)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    g = nx.from_numpy_array(a)
    nx_q = statistics.median(nx.community.modularity(g, nx.community.louvain_communities(g, seed=s))
                             for s in range(3))
    assert modularity(w, louvain_partition(w)) >= nx_q - 0.005
