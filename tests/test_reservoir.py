import numpy as np
import pytest

from hubnet import bench, reservoir
from hubnet.errors import HubnetError
from hubnet.netmetrics import node_degrees
from hubnet.reservoir import (
    Esn,
    EsnConfig,
    _row_blocks,
    fit_readout,
    harvest,
    harvest_steps,
    init_esn,
    normalized_readout_weights,
    pearson,
    scale_spectral_radius,
    spectral_radius,
    stream_readout,
)
from hubnet.tasks import MackeyGlassConfig, NarmaConfig
from hubnet.topology import TopologyConfig, generate_network


def small_esn(seed=0, **kwargs):
    return init_esn(EsnConfig(n=40, seed=seed, **kwargs))


def test_config_validation():
    with pytest.raises(ValueError):
        EsnConfig(n=10, r_sig=0.0)
    with pytest.raises(ValueError):
        EsnConfig(n=10, spec_rad=-1.0)
    with pytest.raises(ValueError):
        EsnConfig(n=10, injection="center")
    with pytest.raises(ValueError):
        EsnConfig(n=10, washout=-1)
    # a reservoir needs a node, and an input dimension for any input to reach it
    with pytest.raises(HubnetError, match="^n must be >= 1, got 0$"):
        EsnConfig(n=0)
    for dim in (0, -1):
        with pytest.raises(HubnetError, match=f"^input_dim must be >= 1, got {dim}$"):
            EsnConfig(n=10, input_dim=dim)
    with pytest.raises(ValueError):
        EsnConfig(n=10, topology=TopologyConfig(n=11))
    # init_esn never reads topology.seed, so it may not disagree with seed
    with pytest.raises(HubnetError, match="topology.seed 5 must equal the ESN seed 1"):
        EsnConfig(n=20, seed=1, topology=TopologyConfig(n=20, seed=5))


TOPOLOGY_FLOATS = ("density", "alpha", "beta", "lambda_dc", "lambda_nc",
                   "lambda_reg", "weight_sigma2")


# a NaN passes the "< 0" range checks, and NaN or infinite lambdas or
# exponents used to prune a hub network uniformly under a "hub" config; a
# bool, as a JSON true, used to load as 1.0, and a string to fail late with
# a raw TypeError
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "x"])
@pytest.mark.parametrize("config, field", [(TopologyConfig, f) for f in TOPOLOGY_FLOATS]
                         + [(EsnConfig, "spec_rad"), (EsnConfig, "r_sig")]
                         + [(MackeyGlassConfig, f) for f in ("beta_m", "gamma_m", "k", "dt", "x0")]
                         + [(NarmaConfig, f) for f in ("alpha_n", "beta_n", "gamma_n", "delta_n")])
def test_configs_reject_non_finite_floats(config, field, value):
    size = {"n": 50} if config in (TopologyConfig, EsnConfig) else {}
    with pytest.raises(HubnetError, match=field):
        config(**size, **{field: value})


# each used to fail late with a raw TypeError, or to pass silently.  The
# ids are explicit, so a case added for a field renames no other case;
# they keep the names pytest first generated for them
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: EsnConfig(n=10.5), "n", id="<lambda>-n0"),
    pytest.param(lambda: EsnConfig(n=10, input_dim=2.0), "input_dim", id="<lambda>-input_dim"),
    pytest.param(lambda: TopologyConfig(n=7.5), "n", id="<lambda>-n1"),
    pytest.param(lambda: EsnConfig(n=True), "n", id="<lambda>-n2"),
    pytest.param(lambda: TopologyConfig(n=3, seed="x"), "seed", id="<lambda>-seed0"),
    pytest.param(lambda: EsnConfig(n=10, seed=1.5), "seed", id="<lambda>-seed1"),
    pytest.param(lambda: EsnConfig(n=10, washout=1.5), "washout", id="<lambda>-washout0"),
    pytest.param(lambda: MackeyGlassConfig(length=10.5), "length", id="<lambda>-length0"),
    pytest.param(lambda: MackeyGlassConfig(tau=17.0), "tau", id="<lambda>-tau"),
    pytest.param(lambda: MackeyGlassConfig(transient=0.5), "transient", id="<lambda>-transient"),
    pytest.param(lambda: NarmaConfig(length=10.5), "length", id="<lambda>-length1"),
    pytest.param(lambda: NarmaConfig(l=10.0), "l", id="<lambda>-l"),
    pytest.param(lambda: NarmaConfig(length=50, seed=1.5), "seed", id="<lambda>-seed2"),
    pytest.param(lambda: bench.run_experiment([("narma10", "esn", 20, 30, 10)], 1, 0, jobs=1.5),
                 "jobs", id="<lambda>-jobs"),
    pytest.param(lambda: bench.run_experiment([("narma10", "esn", 20, 30, 10)], 1.5, 0),
                 "repeats", id="<lambda>-repeats"),
    pytest.param(lambda: bench.TrialSpec("mackey_glass", "esn", 20, 2.5, 10), "n_train",
                 id="<lambda>-n_train"),
    pytest.param(lambda: bench.TrialSpec("mackey_glass", "esn", 20, 30, True), "n_test",
                 id="<lambda>-n_test"),
    pytest.param(lambda: bench.TrialSpec("narma10", "esn", 20, 30, 10, base_seed=1.5),
                 "base_seed", id="<lambda>-base_seed"),
])
def test_non_integer_sizes_are_rejected(call, name):
    with pytest.raises(HubnetError, match=f"^{name} must be an integer, got "):
        call()


def test_default_topology_matches_size_and_seed():
    cfg = EsnConfig(n=12, seed=7)
    assert cfg.topology.n == 12
    assert cfg.topology.seed == 7
    assert cfg.n_input_neurons == 2  # ceil(0.1 * 12)


def test_spectral_radius_matches_dense_eigvals():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.normal(size=(50, 50))
        assert spectral_radius(w) == np.abs(np.linalg.eigvals(w)).max()


def test_spectral_radius_handles_complex_dominant_pair():
    # pure rotation block: eigenvalues +-2i, dominant pair is complex
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = -2.0, 2.0
    w[2, 2] = 0.5
    assert spectral_radius(w) == pytest.approx(2.0, abs=1e-8)


def test_spectral_radius_nilpotent_is_zero():
    w = np.zeros((5, 5))
    w[0, 1] = 3.0  # strictly upper triangular: all eigenvalues zero
    assert spectral_radius(w) == 0.0
    with pytest.raises(HubnetError, match="spectral radius below 1e-12"):
        scale_spectral_radius(w, 0.9)
    with pytest.raises(HubnetError, match="empty matrix has no spectrum"):
        spectral_radius(np.zeros((0, 0)))


def test_scale_spectral_radius():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(60, 60))
    scaled = scale_spectral_radius(w, 0.9)
    assert np.abs(np.linalg.eigvals(scaled)).max() == pytest.approx(0.9, abs=1e-6)


def test_init_esn_input_mask_size_and_zeroing():
    esn = small_esn()
    assert esn.input_mask.sum() == esn.config.n_input_neurons
    assert np.all(esn.w_in[~esn.input_mask] == 0.0)
    assert np.all(esn.w_in[esn.input_mask] != 0.0)
    assert np.abs(np.linalg.eigvals(esn.w_rec)).max() == pytest.approx(0.9, abs=1e-6)


def test_hub_injection_targets_top_degree_nodes():
    esn = small_esn(injection="hub")
    deg = node_degrees(esn.w_rec)
    # w_rec keeps the zero pattern of the network init_esn draws
    network = generate_network(esn.config.topology, np.random.default_rng(esn.config.seed))
    assert np.array_equal(deg, node_degrees(network))
    chosen = np.flatnonzero(esn.input_mask)
    cutoff = np.sort(deg)[::-1][esn.config.n_input_neurons - 1]
    assert np.all(deg[chosen] >= cutoff)


def test_init_is_deterministic_in_seed():
    a, b = small_esn(seed=3), small_esn(seed=3)
    assert np.array_equal(a.w_rec, b.w_rec)
    assert np.array_equal(a.w_in, b.w_in)
    c = small_esn(seed=4)
    assert not np.array_equal(a.w_rec, c.w_rec)


def test_step_and_harvest_agree():
    esn = small_esn()
    u = np.random.default_rng(2).normal(size=(10, 1))
    states = harvest(esn, u)
    s = np.zeros(esn.n)
    for t in range(10):
        s = np.tanh(esn.w_in @ u[t] + esn.w_rec @ s)
        assert np.allclose(states[t], s)
    assert states.shape == (10, esn.n)


def test_harvest_promotes_1d_and_checks_dim():
    esn = small_esn()
    u = np.ones(5)
    assert np.array_equal(harvest(esn, u), harvest(esn, u[:, None]))
    with pytest.raises(HubnetError, match="inputs have shape"):
        harvest(esn, np.ones((5, 3)))


@pytest.mark.parametrize("with_s0", [False, True])
def test_harvest_batch_equals_separate_sequences(with_s0):
    esn = small_esn(input_dim=28)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, size=(5, 12, 28))
    s0 = rng.uniform(-0.5, 0.5, size=esn.n) if with_s0 else None
    batch = harvest(esn, u, s0=s0)
    assert batch.shape == (5, 12, esn.n)
    separate = np.stack([harvest(esn, seq, s0=s0) for seq in u])
    assert np.max(np.abs(batch - separate)) <= 1e-12
    with pytest.raises(HubnetError, match="inputs have shape"):
        harvest(esn, u[:, :, :27])
    with pytest.raises(HubnetError, match="inputs have shape"):
        harvest(esn, u[None])


def stacked_steps(esn, inputs, s0=None):
    """The states of ``harvest_steps``, copied and stacked time-major."""
    return np.stack([states.copy() for states in harvest_steps(esn, inputs, s0)])


@pytest.mark.parametrize("batch", [1, 3, 147])
@pytest.mark.parametrize("t_len", [1, 28, 30])
def test_harvest_chunks_equal_harvest(batch, t_len):
    esn = init_esn(EsnConfig(n=20, input_dim=28, seed=4))
    rng = np.random.default_rng(batch * 100 + t_len)
    u = rng.uniform(0.0, 1.0, size=(batch, t_len, 28))
    s0 = rng.uniform(-0.5, 0.5, size=esn.n)
    for given in (None, s0):
        steps = stacked_steps(esn, u, given)
        assert np.array_equal(steps.transpose(1, 0, 2), harvest(esn, u, s0=given))


def test_harvest_chunks_of_one_sequence_and_their_checks():
    esn = small_esn()
    u = np.random.default_rng(5).normal(size=(11, 1))
    assert np.array_equal(stacked_steps(esn, u)[:, 0], harvest(esn, u))
    assert np.array_equal(stacked_steps(esn, u[:, 0])[:, 0], harvest(esn, u))
    assert list(harvest_steps(esn, u[:0])) == []
    # the checks are harvest's
    with pytest.raises(HubnetError, match="inputs have shape"):
        next(harvest_steps(esn, np.ones((5, 3))))
    with pytest.raises(HubnetError, match="reservoir inputs must be finite"):
        next(harvest_steps(esn, np.full((5, 1), np.nan)))
    with pytest.raises(HubnetError, match="s0 has shape"):
        next(harvest_steps(esn, u, s0=np.zeros(esn.n + 1)))
    with pytest.raises(HubnetError, match="initial state s0 must be finite"):
        next(harvest_steps(esn, u, s0=np.full(esn.n, np.inf)))


def test_harvest_steps_yield_read_only_views_that_the_readout_leaves_unwritten():
    esn = init_esn(EsnConfig(n=30, input_dim=28, seed=6))
    u = np.random.default_rng(6).uniform(size=(9, 30, 28))
    whole = harvest(esn, u)
    buffers = set()
    for t, states in enumerate(harvest_steps(esn, u)):
        assert np.array_equal(states, whole[:, t])
        assert not states.flags.writeable
        buffers.add(states.__array_interface__["data"][0])
    assert t == 29
    # each step reads the state before it, so the steps share two buffers
    assert len(buffers) <= 2
    # the MNIST readout sums |S| without writing to the states it gets
    expected = whole.copy()
    steps = ((0, t, whole[:, t], np.zeros((9, 10))) for t in range(30))
    for _ in bench._train_rows(steps, 5, np.zeros(esn.n)):
        pass
    assert np.array_equal(whole, expected)


def reference_harvest(esn, inputs, s0=None):
    """The recurrence as one fresh tanh per step: the bits ``harvest`` keeps."""
    u = np.asarray(inputs, dtype=float)
    single = u.ndim < 3
    if single:
        u = u.reshape(1, len(u), -1)
    s = np.zeros((len(u), esn.n))
    if s0 is not None:
        s[:] = s0
    states = np.empty((u.shape[1], len(u), esn.n))
    w_in_t, w_rec_t = esn.w_in.T, esn.w_rec.T
    for t in range(u.shape[1]):
        s = np.tanh(u[:, t] @ w_in_t + s @ w_rec_t)
        states[t] = s
    states = states.transpose(1, 0, 2)
    return states[0] if single else states


def dense_esn(n, input_dim, seed):
    """An ESN on a dense random w_rec, so any n has one, down to n = 1."""
    rng = np.random.default_rng(seed)
    cfg = EsnConfig(n=n, input_dim=input_dim, seed=seed)
    w_rec = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, n))
    return Esn(w_in=rng.uniform(-1.0, 1.0, size=(n, input_dim)), w_rec=w_rec,
               input_mask=np.ones(n, dtype=bool), config=cfg)


# around the 64-row block edges, and n = 700, past OpenBLAS's threaded dgemv;
# batch 294 is an MNIST block of 294 images
@pytest.mark.parametrize("batch", [1, 3, 147, 294])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200, 333, 500, 700])
def test_harvest_keeps_the_bits_of_the_per_step_recurrence(n, batch):
    t_len = 12
    for d in (1, 3):
        esn = dense_esn(n, d, seed=n + d)
        rng = np.random.default_rng(n * batch + d)
        u = rng.uniform(-1.0, 1.0, size=(batch, t_len, d))
        inputs = u[0] if batch == 1 else u
        # no s0 skips the first recurrent product; an explicit zero s0 runs it
        for s0 in (None, np.zeros(n), rng.uniform(-0.5, 0.5, size=n)):
            expected = reference_harvest(esn, inputs, s0)
            assert np.array_equal(harvest(esn, inputs, s0=s0), expected)
            steps = stacked_steps(esn, inputs, s0)
            assert np.array_equal(steps[:, 0] if batch == 1 else steps.transpose(1, 0, 2),
                                  expected)


def test_row_blocks_cover_every_row_once():
    for n in range(1000):
        for batch in (1, 3):
            blocks = _row_blocks(n, batch)
            assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]),
                                  np.arange(n))
            assert len(blocks) == 1 or (batch == 1 and blocks[0].stop % 64 == 0)
    # the n = 500 oracle cases run the split
    assert _row_blocks(500, 1) == [slice(0, 256), slice(256, 500)]


def test_harvest_and_fit_readout_reject_non_finite():
    esn = small_esn()
    u = np.ones((6, 1))
    for bad in (np.nan, np.inf):
        u_bad = u.copy()
        u_bad[3, 0] = bad
        with pytest.raises(HubnetError):
            harvest(esn, u_bad)
        s0 = np.zeros(esn.n)
        s0[0] = bad
        with pytest.raises(HubnetError):
            harvest(esn, u, s0=s0)
    with pytest.raises(HubnetError, match="s0 has shape"):
        harvest(esn, u, s0=np.zeros(esn.n + 1))
    states = harvest(esn, u)
    targets = np.arange(6.0)
    nan_states, nan_targets = states.copy(), targets.copy()
    nan_states[4, 0] = np.nan
    nan_targets[4] = np.nan
    with pytest.raises(HubnetError):
        fit_readout(nan_states, targets)
    with pytest.raises(HubnetError):
        fit_readout(states, nan_targets)


def test_fit_readout_recovers_planted_weights():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.normal(size=(120, 30))
        w_star = rng.normal(size=30)
        w = fit_readout(s, s @ w_star)
        assert np.max(np.abs(w - w_star)) < 1e-8


def lstsq_readout(s, y):
    return np.linalg.lstsq(s, y, rcond=1e-10)[0]


def test_stream_readout_well_conditioned_uses_normal_equations(monkeypatch):
    rng = np.random.default_rng(14)
    s = rng.normal(size=(2000, 50))
    y = rng.normal(size=(2000, 3))
    expected = lstsq_readout(s, y)
    blocks, calls = counting_blocks(s, y, [0, 2000])

    def no_lstsq(*args, **kwargs):
        raise AssertionError("a well-conditioned tall fit must not call lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    w = stream_readout(blocks, (50, 3))
    assert np.max(np.abs(w - expected)) <= 1e-9 * np.max(np.abs(expected))
    assert calls == [1]


def ill_conditioned_states():
    rng = np.random.default_rng(15)
    u, _ = np.linalg.qr(rng.normal(size=(400, 30)))
    v, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    graded = (u * np.logspace(0, -7, 30)) @ v.T  # cond(S) = 1e7
    rank_deficient = rng.normal(size=(400, 30))
    rank_deficient[:, 7] = rank_deficient[:, 3]
    rank_deficient[:, 12] = 0.0
    # S^T S = R^T R has unit Cholesky pivots, yet cond(S) = cond(R) = 3.8e7:
    # only the eigenvalues can reject it
    unit_pivots = u @ (np.eye(30) - 0.7 * np.triu(np.ones((30, 30)), 1))
    return {"graded": graded, "rank-deficient": rank_deficient,
            "unit-pivots": unit_pivots}


@pytest.mark.parametrize("kind", ["graded", "rank-deficient", "unit-pivots"])
def test_fit_readout_ill_conditioned_is_exactly_lstsq(kind):
    s = ill_conditioned_states()[kind]
    y = np.random.default_rng(16).normal(size=s.shape[0])
    assert np.array_equal(fit_readout(s, y), lstsq_readout(s, y))


def test_fit_readout_on_mackey_glass_states_is_exactly_lstsq():
    spec = bench.TrialSpec(task="mackey_glass", model="hubesn", n=100,
                           n_train=400, n_test=50)
    train_in, train_tg, _, _ = bench._time_series_split(spec)
    states = harvest(bench.readout_analysis(spec)["esn"], train_in)
    assert train_tg.shape == (400, 1)
    assert np.array_equal(fit_readout(states, train_tg), lstsq_readout(states, train_tg))


def row_blocks(s, y, edges):
    return [(s[a:b], y[a:b]) for a, b in zip(edges[:-1], edges[1:])]


def counting_blocks(s, y, edges):
    """A ``stream_readout`` block factory over S and Y, and a list of its calls."""
    calls = []

    def blocks():
        calls.append(1)
        return iter(row_blocks(s, y, edges))
    return blocks, calls


def test_stream_readout_across_blocks_matches_one_block_fit():
    rng = np.random.default_rng(17)
    s = rng.normal(size=(300, 20))
    y = rng.normal(size=(300, 3))
    blocks, calls = counting_blocks(s, y, [0, 100, 180, 300])
    w = stream_readout(blocks, (20, 3))
    expected = fit_readout(s, y)
    assert np.max(np.abs(w - expected)) <= 1e-9 * np.max(np.abs(expected))
    assert calls == [1]  # the gate accepted, so one pass over the blocks


@pytest.mark.parametrize("kind", ["graded", "rank-deficient", "unit-pivots",
                                  "underdetermined"])
def test_stream_readout_reduces_a_rejected_fit_to_r(kind, near_lstsq):
    if kind == "underdetermined":
        s = np.random.default_rng(18).normal(size=(40, 50))  # fewer rows than columns
    else:
        s = ill_conditioned_states()[kind]
    y = np.random.default_rng(19).normal(size=(s.shape[0], 2))
    blocks, calls = counting_blocks(s, y, [0, 15, 25, s.shape[0]])
    w = stream_readout(blocks, (s.shape[1], 2))
    assert calls == [1, 1]  # the Gram pass, then the QR pass
    near_lstsq(w, s, y)


@pytest.mark.parametrize("layout", ["F-ordered", "row-strided", "integer"])
def test_stream_readout_sums_any_block_layout_as_c_ordered_floats(layout):
    rng = np.random.default_rng(20)
    s = {"F-ordered": np.asfortranarray(rng.normal(size=(300, 20))),
         "row-strided": rng.normal(size=(600, 20))[::2],
         "integer": rng.integers(-9, 10, size=(300, 20))}[layout]
    y = rng.normal(size=(300, 3))
    edges = [0, 100, 180, 300]
    w = stream_readout(lambda: row_blocks(s, y, edges), (20, 3))
    c_ordered = np.ascontiguousarray(s, dtype=float)
    expected = stream_readout(lambda: row_blocks(c_ordered, y, edges), (20, 3))
    assert np.array_equal(w, expected)


@pytest.mark.skipif(reservoir._DSYRK is None, reason="numpy exports no ILP64 cblas_dsyrk")
def test_add_gram_updates_the_upper_triangle_in_place():
    s = np.random.default_rng(21).normal(size=(294, 40))
    gram = np.ones((40, 40))
    reservoir._add_gram(gram, s)
    upper = np.triu_indices(40)
    assert np.allclose(gram[upper], (s.T @ s + 1.0)[upper], rtol=1e-13, atol=0.0)
    assert np.array_equal(np.tril(gram, -1), np.tril(np.ones((40, 40)), -1))


def test_stream_readout_without_dsyrk_matches_the_in_place_fit(monkeypatch):
    # 294-row blocks of an n = 500 state matrix, as one MNIST column step
    rng = np.random.default_rng(22)
    s = np.tanh(rng.normal(size=(4 * 294, 500)))
    y = rng.normal(size=(4 * 294, 10))
    edges = [0, 294, 588, 882, 1176]
    in_place = stream_readout(lambda: row_blocks(s, y, edges), (500, 10))
    monkeypatch.setattr(reservoir, "_DSYRK", None)
    blocks, calls = counting_blocks(s, y, edges)
    fallback = stream_readout(blocks, (500, 10))
    assert calls == [1]  # the Gram gate accepted both
    assert np.max(np.abs(fallback - in_place)) <= 1e-12 * np.max(np.abs(in_place))


def test_stream_readout_errors():
    s, y = np.ones((10, 3)), np.ones((10, 1))
    with pytest.raises(HubnetError, match="4 state rows vs 5 target rows"):
        stream_readout(lambda: [(s[:4], y[:5])], (3, 1))
    # blocks with no rows at all
    with pytest.raises(HubnetError, match="washout leaves no rows to fit"):
        stream_readout(lambda: row_blocks(s, y, [0, 0, 0]), (3, 1))
    # a non-finite state fails the Gram pass and is caught by the QR pass
    poisoned = s.copy()
    poisoned[7, 0] = np.nan
    blocks, calls = counting_blocks(poisoned, y, [0, 4, 10])
    with pytest.raises(HubnetError, match="must be finite"):
        stream_readout(blocks, (3, 1))
    assert calls == [1, 1]
    y[7] = np.inf
    with pytest.raises(HubnetError, match="must be finite"):
        stream_readout(lambda: row_blocks(s, y, [0, 4, 10]), (3, 1))
    # a non-finite target is caught even when S has no columns
    with pytest.raises(HubnetError, match="must be finite"):
        fit_readout(s[:, :0], y)


@pytest.mark.parametrize("states, targets, message", [
    (np.zeros(5), np.zeros(5), "states must be 2-D and targets 1-D or 2-D, got 1-D and 1-D"),
    (np.zeros((5, 3)), np.zeros((5, 2, 2)), "got 2-D and 3-D"),
    (np.zeros((5, 3, 1)), np.zeros(5), "got 3-D and 1-D"),
], ids=["1-D states", "3-D targets", "3-D states"])
def test_fit_readout_rejects_wrong_ranks(states, targets, message):
    with pytest.raises(HubnetError, match=message):
        fit_readout(states, targets)


@pytest.mark.parametrize("s, y", [
    (np.ones((4, 2)), np.ones((4, 1))),
    (np.ones((4, 3)), np.ones((4, 2))),
    (np.ones(4), np.ones((4, 1))),
    (np.ones((4, 3)), np.ones(4)),
], ids=["state columns", "target columns", "1-D states", "1-D targets"])
def test_stream_readout_rejects_blocks_of_the_wrong_columns(s, y):
    good = (np.ones((4, 3)), np.ones((4, 1)))
    with pytest.raises(HubnetError, match="do not match 3 state and 1 target columns"):
        stream_readout(lambda: [good, (s, y)], (3, 1))


def test_fit_readout_minimum_norm_interpolates_when_underdetermined():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(20, 50))  # fewer rows than columns
    y = rng.normal(size=20)
    w = fit_readout(s, y)
    assert np.max(np.abs(s @ w - y)) < 1e-8


def test_fit_readout_row_count_errors():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(40, 10))
    y = rng.normal(size=40)
    with pytest.raises(HubnetError, match="40 state rows vs 30 target rows"):
        fit_readout(s, y[:30])
    with pytest.raises(HubnetError, match="no rows to fit"):
        fit_readout(s[:0], y[:0])


def test_fit_readout_multi_output_shape():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(50, 12))
    y = rng.normal(size=(50, 3))
    assert fit_readout(s, y).shape == (12, 3)
    assert fit_readout(s, y[:, 0]).shape == (12,)
    assert fit_readout(s[:, :0], y).shape == (0, 3)


def test_normalized_readout_weights():
    col_abs = np.abs(np.array([[1.0, -2.0], [3.0, 0.0]])).sum(axis=0)
    w = np.array([0.5, -4.0])
    expected = np.array([0.5 * 4.0, 4.0 * 2.0])
    assert np.allclose(normalized_readout_weights(w, col_abs), expected)
    # multi-output: row L2 norm substitutes for |w|
    w2 = np.array([[3.0, 4.0], [0.0, 1.0]])
    expected2 = np.array([5.0 * 4.0, 1.0 * 2.0])
    assert np.allclose(normalized_readout_weights(w2, col_abs), expected2)
    with pytest.raises(HubnetError, match="readout rows must match state columns"):
        normalized_readout_weights(np.ones(3), col_abs)


def test_pearson_oracles():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    assert pearson(x, np.ones(4)) is None
    assert pearson(np.ones(4), x) is None
    with pytest.raises(HubnetError, match="need two equal-length vectors"):
        pearson(x, x[:3])


def test_fading_memory_smoke():
    esn = small_esn()
    u = np.random.default_rng(12).normal(size=300)
    a = harvest(esn, u, s0=np.zeros(esn.n))
    b = harvest(esn, u, s0=np.full(esn.n, 0.5))
    assert np.max(np.abs(a[-1] - b[-1])) < 1e-6


