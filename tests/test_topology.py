import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubnet import topology
from hubnet.errors import HubnetError
from hubnet.topology import (
    Network,
    TopologyConfig,
    distance_constraint,
    generate_network,
    load_network,
    network_from_dict,
    network_to_dict,
    neurogenetic_constraint,
    prune,
    prune_probabilities,
    sample_coordinates,
    save_network,
    target_edge_count,
)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TopologyConfig(n=-1)
    with pytest.raises(ValueError):
        TopologyConfig(n=10, density=0.0)
    with pytest.raises(ValueError):
        TopologyConfig(n=10, density=1.5)
    with pytest.raises(ValueError):
        TopologyConfig(n=10, mode="scale-free")
    with pytest.raises(ValueError):
        TopologyConfig(n=10, alpha=-1.0)
    with pytest.raises(ValueError):
        TopologyConfig(n=10, lambda_dc=-0.1)
    with pytest.raises(ValueError):
        TopologyConfig(n=10, lambda_dc=0.0, lambda_nc=0.0, lambda_reg=0.0)
    with pytest.raises(ValueError):
        TopologyConfig(n=10, weight_sigma2=0.0)


def test_random_mode_allows_all_zero_lambdas():
    cfg = TopologyConfig(n=10, mode="random",
                         lambda_dc=0.0, lambda_nc=0.0, lambda_reg=0.0)
    net = generate_network(cfg)
    assert net.edge_count == target_edge_count(10, cfg.density)


def test_distance_constraint_is_euclidean():
    coords = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    d = distance_constraint(coords)
    assert d[0, 0] == 0.0
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 0] == pytest.approx(5.0)


def test_neurogenetic_constraint_is_index_sum():
    c = neurogenetic_constraint(4)
    assert c[0, 0] == 0.0
    assert c[1, 2] == 3.0
    assert c[3, 3] == 6.0
    assert np.array_equal(c, c.T)


def test_prune_probabilities_sum_to_one_with_zero_diagonal():
    cfg = TopologyConfig(n=40, seed=3)
    rng = np.random.default_rng(3)
    coords = sample_coordinates(cfg.n, rng)
    c_d = distance_constraint(coords)
    c_n = neurogenetic_constraint(cfg.n)
    r = rng.standard_normal((cfg.n, cfg.n))
    p = prune_probabilities(c_d, c_n, r, cfg)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(np.diagonal(p) == 0.0)
    assert np.all(p >= 0.0)


def test_prune_probabilities_raise_when_all_mass_vanishes():
    cfg = TopologyConfig(n=5, lambda_dc=1.0, lambda_nc=0.0, lambda_reg=0.0)
    zeros = np.zeros((5, 5))
    with pytest.raises(HubnetError, match="zero pruning mass"):
        prune_probabilities(zeros, zeros, zeros, cfg)


def test_lambda_scale_invariance_is_bit_exact():
    # doubling every lambda rescales the mass by an exact power of two,
    # which the final normalization divides back out bit-for-bit
    rng = np.random.default_rng(11)
    coords = sample_coordinates(30, rng)
    c_d = distance_constraint(coords)
    c_n = neurogenetic_constraint(30)
    r = rng.standard_normal((30, 30))
    a = TopologyConfig(n=30, lambda_dc=0.5, lambda_nc=0.25, lambda_reg=0.125)
    b = TopologyConfig(n=30, lambda_dc=2.0, lambda_nc=1.0, lambda_reg=0.5)
    pa = prune_probabilities(c_d, c_n, r, a)
    pb = prune_probabilities(c_d, c_n, r, b)
    assert np.array_equal(pa, pb)


@pytest.mark.parametrize("n,density", [(10, 0.2), (25, 0.05), (50, 0.5), (7, 1.0)])
def test_exact_edge_count(n, density):
    net = generate_network(TopologyConfig(n=n, density=density, seed=1))
    assert net.edge_count == target_edge_count(n, density)
    assert np.all(np.diagonal(net.weights) == 0.0)


def test_random_mode_exact_edge_count():
    net = generate_network(TopologyConfig(n=40, density=0.1, mode="random", seed=7))
    assert net.edge_count == target_edge_count(40, 0.1)


def test_same_seed_reproduces_identical_network():
    cfg = TopologyConfig(n=60, seed=42)
    a = generate_network(cfg)
    b = generate_network(cfg)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.coords, b.coords)


def test_different_seeds_differ():
    a = generate_network(TopologyConfig(n=60, seed=1))
    b = generate_network(TopologyConfig(n=60, seed=2))
    assert not np.array_equal(a.weights, b.weights)


def test_degenerate_sizes():
    for n in (0, 1):
        net = generate_network(TopologyConfig(n=n))
        assert net.weights.shape == (n, n)
        assert net.edge_count == 0


def test_prune_uniform_fallback_hits_exact_count():
    # only one edge carries deletion mass but three must go: the deficit
    # falls back to uniform deletion over the survivors
    n = 4
    rng = np.random.default_rng(0)
    dense = np.ones((n, n))
    p = np.zeros((n, n))
    p[0, 1] = 1.0
    out = prune(dense, p, density=0.75, rng=rng)
    off = ~np.eye(n, dtype=bool)
    assert np.count_nonzero(out[off]) == target_edge_count(n, 0.75)
    assert out[0, 1] == 0.0  # the only weighted edge is always deleted


def test_prune_deletes_high_mass_edges_preferentially():
    n = 30
    cfg = TopologyConfig(n=n, density=0.3, seed=5)
    rng = np.random.default_rng(cfg.seed)
    coords = sample_coordinates(n, rng)
    dense = rng.normal(0.0, 1.0, size=(n, n))
    np.fill_diagonal(dense, 0.0)
    c_d = distance_constraint(coords)
    c_n = neurogenetic_constraint(n)
    r = rng.standard_normal((n, n))
    p = prune_probabilities(c_d, c_n, r, cfg)
    kept_mass = []
    for seed in range(20):
        out = prune(dense, p, cfg.density, np.random.default_rng(seed))
        off = ~np.eye(n, dtype=bool)
        kept_mass.append(p[off][out[off] != 0.0].mean())
    overall = p[~np.eye(n, dtype=bool)].mean()
    # surviving edges should carry well below average deletion mass
    assert np.mean(kept_mass) < 0.8 * overall


def stable_sort_prune(dense, p, density, rng):
    """Reference prune: delete the d_remove first keys of a stable argsort."""
    n = dense.shape[0]
    out = dense.copy()
    np.fill_diagonal(out, 0.0)
    total = n * (n - 1)
    d_remove = total - target_edge_count(n, density)
    rows, cols = np.where(~np.eye(n, dtype=bool))
    masses = p[rows, cols]
    keys = rng.exponential(size=total)
    positive = masses > 0.0
    removed = np.zeros(total, dtype=bool)
    take = min(d_remove, int(positive.sum()))
    wkeys = np.full(total, np.inf)
    wkeys[positive] = keys[positive] / masses[positive]
    removed[np.argsort(wkeys, kind="stable")[:take]] = True
    if d_remove > take:
        survivors = np.flatnonzero(~removed)
        removed[rng.choice(survivors, size=d_remove - take, replace=False)] = True
    out[rows[removed], cols[removed]] = 0.0
    return out


class RepeatingExponentials:
    """Generator stand-in whose exponential draws cycle through three values,
    so that many keys tie at the cut."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def exponential(self, size):
        return np.resize([0.5, 1.0, 2.0], size)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


def pruning_inputs(mode, n, seed):
    rng = np.random.default_rng(seed)
    cfg = TopologyConfig(n=n, mode=mode, seed=seed)
    coords = sample_coordinates(n, rng)
    dense = rng.normal(size=(n, n))
    if mode == "hub":
        p = prune_probabilities(distance_constraint(coords), neurogenetic_constraint(n),
                                rng.normal(size=(n, n)), cfg)
    else:
        p = 1.0 - np.eye(n)
    return dense, p, cfg.density


@pytest.mark.parametrize("mode", ["hub", "random"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rng_kind", ["generator", "repeating"])
def test_prune_equals_stable_sort_oracle(mode, seed, rng_kind):
    dense, p, density = pruning_inputs(mode, 500, seed)
    make_rng = np.random.default_rng if rng_kind == "generator" else RepeatingExponentials
    out = prune(dense, p, density, make_rng(seed + 100))
    assert np.array_equal(out, stable_sort_prune(dense, p, density, make_rng(seed + 100)))


def test_prune_with_tied_keys_and_zero_masses_equals_stable_sort_oracle():
    # half the edges carry no mass, so the deficit falls to uniform deletion
    dense, p, _ = pruning_inputs("hub", 30, 3)
    p[:, ::2] = 0.0
    out = prune(dense, p, 0.1, RepeatingExponentials(3))
    assert np.array_equal(out, stable_sort_prune(dense, p, 0.1, RepeatingExponentials(3)))


def reference_distance_constraint(coords):
    """Distances summed over an (n, n, 3) array of coordinate differences."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def reference_prune_probabilities(c_d, c_n, r, cfg):
    """Deletion probabilities from scaled copies of each term."""
    def unit_max(term):
        term = term.copy()
        np.fill_diagonal(term, 0.0)
        m = term.max() if term.size else 0.0
        return term / m if m > 0.0 else term

    mass = (cfg.lambda_dc * unit_max(c_d ** cfg.alpha)
            + cfg.lambda_nc * unit_max(c_n ** cfg.beta)
            + cfg.lambda_reg * unit_max(np.abs(r)))
    return mass / mass.sum()


def reference_prune(dense, p, density, rng):
    """Pruning through an int64 off-diagonal index and a separate key array."""
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
    take_weighted = min(d_remove, int(positive.sum()))
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
        removed[rng.choice(survivors, size=deficit, replace=False)] = True
    out.flat[off_diag[removed]] = 0.0
    return out


def reference_network(cfg):
    """generate_network's draws, put through the reference formulas."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    coords = sample_coordinates(n, rng)
    dense = rng.normal(0.0, np.sqrt(cfg.weight_sigma2), size=(n, n))
    np.fill_diagonal(dense, 0.0)
    if n <= 1:
        return np.zeros((n, n)), coords
    if cfg.mode == "hub":
        p = reference_prune_probabilities(
            reference_distance_constraint(coords), neurogenetic_constraint(n),
            rng.normal(0.0, np.sqrt(cfg.weight_sigma2), size=(n, n)), cfg)
    else:
        p = 1.0 - np.eye(n)
        p /= p.sum()
    return reference_prune(dense, p, cfg.density, rng), coords


@pytest.mark.parametrize("mode", ["hub", "random"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 60, 500])
@pytest.mark.parametrize("extra", [{}, {"density": 1.0}, {"lambda_reg": 0.3}])
def test_generation_equals_reference_formulas(mode, n, extra):
    for seed in (0, 1):
        cfg = TopologyConfig(n=n, mode=mode, seed=seed, **extra)
        net = generate_network(cfg)
        weights, coords = reference_network(cfg)
        assert np.array_equal(net.weights, weights)
        assert np.array_equal(net.coords, coords)


def test_distance_constraint_equals_reference_at_every_scale():
    rng = np.random.default_rng(4)
    for scale in (1e-3, 1.0, 1e8):
        coords = scale * rng.standard_normal((300, 3))
        assert np.array_equal(distance_constraint(coords),
                              reference_distance_constraint(coords))


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_prune_probabilities_leave_their_arguments_unwritten(dtype):
    rng = np.random.default_rng(5)
    args = [distance_constraint(10 * rng.standard_normal((20, 3))),
            neurogenetic_constraint(20), 10 * rng.standard_normal((20, 20))]
    args = [a.astype(dtype) for a in args]
    copies = [a.copy() for a in args]
    cfg = TopologyConfig(n=20, lambda_reg=0.5)
    assert np.array_equal(prune_probabilities(*args, cfg),
                          reference_prune_probabilities(*copies, cfg))
    for a, copy in zip(args, copies):
        assert np.array_equal(a, copy)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("mode", ["hub", "random"])
def test_generation_peak_is_six_n_squared_floats(mode):
    generate_network(TopologyConfig(n=10, mode=mode))  # first-call allocations
    n = 1000
    peak = traced_peak(lambda: generate_network(TopologyConfig(n=n, mode=mode, seed=1)))
    # six n x n float64 arrays in hub mode; the n x 3 coordinates and the
    # bookkeeping add under 0.01 n**2
    assert peak <= 6.01 * 8 * n * n
    assert topology.GENERATION_BYTES_PER_N2 == 6 * 8


def test_size_guard_raises_before_allocating():
    def call():
        with pytest.raises(HubnetError, match="physical memory"):
            generate_network(TopologyConfig(n=1_000_000))

    assert traced_peak(call) < 1_000_000


def test_size_guard_is_a_no_op_without_sysconf(monkeypatch):
    def unavailable(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unavailable)
    assert generate_network(TopologyConfig(n=30, seed=2)).edge_count == target_edge_count(30, 0.2)


def test_hub_mode_concentrates_degree_on_low_indices():
    from hubnet.netmetrics import node_degrees

    net = generate_network(TopologyConfig(n=200, density=0.1, seed=9))
    deg = node_degrees(net)
    assert deg[:50].mean() > 1.5 * deg[150:].mean()


def test_save_load_round_trip(tmp_path):
    net = generate_network(TopologyConfig(n=25, density=0.3, seed=8))
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert np.array_equal(loaded.weights, net.weights)
    assert np.allclose(loaded.coords, net.coords)
    assert loaded.config == net.config
    # the file is plain JSON
    with open(path) as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["config", "coords", "edges", "n"]
    assert doc["n"] == doc["config"]["n"] == 25


networks = st.builds(
    lambda n, mode, density, seed: generate_network(
        TopologyConfig(n=n, mode=mode, density=density, seed=seed)),
    n=st.integers(min_value=0, max_value=40),
    mode=st.sampled_from(["hub", "random"]),
    density=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


@settings(max_examples=50, deadline=None)
@given(net=networks)
def test_network_json_round_trip_is_exact(net):
    loaded = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
    assert np.array_equal(loaded.weights, net.weights)
    assert np.array_equal(loaded.coords, net.coords)
    assert loaded.config == net.config


@settings(max_examples=50, deadline=None)
@given(net=networks, data=st.data())
def test_network_json_rejects_any_other_key_set(net, data):
    doc = network_to_dict(net)
    if data.draw(st.booleans(), label="drop a key"):
        del doc[data.draw(st.sampled_from(sorted(doc)), label="dropped")]
    else:
        extra = data.draw(st.text().filter(lambda key: key not in doc), label="added")
        doc[extra] = data.draw(st.none() | st.integers() | st.text(), label="value")
    with pytest.raises(HubnetError, match="exactly the keys"):
        network_from_dict(json.loads(json.dumps(doc)))


# every kind of JSON scalar, with small integers that hit valid indices
JSON_SCALARS = (st.none() | st.booleans() | st.integers(min_value=-2, max_value=42)
                | st.integers() | st.floats() | st.text(max_size=3)
                | st.sampled_from(["1", "0.5"]))


def as_read(x):
    """A JSON number as the double a JSON reader takes it for; None for any other value."""
    return float(x) if type(x) in (int, float) else None


@settings(max_examples=300, deadline=None)
@given(net=networks, data=st.data())
def test_network_json_loads_a_mutated_document_only_if_it_round_trips(net, data):
    doc = network_to_dict(net)
    part = data.draw(st.sampled_from([k for k in ("config", "coords", "edges") if doc[k]]),
                     label="part")
    if part == "config":
        key = data.draw(st.sampled_from(sorted(doc["config"])), label="key")
        doc["config"][key] = data.draw(JSON_SCALARS, label="value")
    else:
        row = doc[part][data.draw(st.integers(0, len(doc[part]) - 1), label="row")]
        row[data.draw(st.integers(0, 2), label="column")] = data.draw(JSON_SCALARS, label="value")
    doc = json.loads(json.dumps(doc))
    try:
        loaded = network_from_dict(doc)
    except HubnetError:
        return
    saved = json.loads(json.dumps(network_to_dict(loaded)))
    assert saved["config"] == doc["config"]
    assert saved["coords"] == [[as_read(x) for x in row] for row in doc["coords"]]
    assert (sorted(tuple(e) for e in saved["edges"])
            == sorted(tuple(as_read(x) for x in e) for e in doc["edges"]))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=60),
       density=st.floats(min_value=0.01, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_edge_count_property(n, density, seed):
    net = generate_network(TopologyConfig(n=n, density=density, seed=seed))
    assert net.edge_count == target_edge_count(n, density)
