"""The hubnet names and parameter positions that ``perfbench/worker.py`` relies on.

The benchmark worker wraps these functions and reads their arguments by
position, so a rename or a reordered parameter here would not fail the
benchmark: it would silently skew the per-layer counts it traces.
"""

import dataclasses
import inspect

import hubnet
import hubnet.cli
from hubnet import bench, netmetrics, reservoir, tasks, topology


def params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_observed_arguments_keep_their_positions():
    # _count_harvest reads argument 0 as the ESN and argument 1 as the inputs
    assert params(reservoir.harvest)[:2] == ["esn", "inputs"]
    # _count_fit_rows counts argument 0's rows and subtracts an argument 2
    # that must not exist
    assert params(reservoir.fit_readout) == ["states", "targets"]
    # _count_json_bytes sizes the file at argument 1
    assert params(topology.save_network) == ["net", "path"]
    # _count_capacity multiplies by argument 3
    assert params(bench.run_experiment).index("jobs") == 3
    # _trial_id labels a trial by argument 0's fields
    assert params(bench.run_trial)[0] == "spec"
    spec_fields = {f.name for f in dataclasses.fields(bench.TrialSpec)}
    assert {"task", "model", "base_seed", "trial_index"} <= spec_fields


def test_wrapped_and_read_names_exist():
    for fn in (bench.run_trial, topology.generate_network, topology.load_network,
               netmetrics.louvain_partition, topology.target_edge_count,
               tasks.load_mnist, hubnet.cli.main):
        assert callable(fn)
    assert isinstance(topology.Network.edge_count, property)
    assert isinstance(reservoir.Esn.n, property)
    assert "input_dim" in {f.name for f in dataclasses.fields(reservoir.EsnConfig)}
    assert {"spec", "score"} <= {f.name for f in dataclasses.fields(bench.TrialResult)}
    assert isinstance(hubnet.__version__, str)
