"""The hubnet names and parameter positions that ``perfbench/worker.py`` relies on.

The benchmark worker wraps these functions and reads their arguments by
position, so a rename or a reordered parameter here would not fail the
benchmark: it would silently skew the per-layer counts it traces.
"""

import dataclasses
import importlib
import inspect
import json
from pathlib import Path

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


def test_every_traced_layer_names_a_public_function():
    # a per-layer metric of a renamed or deleted function would read zero
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    layers = {tuple(m["name"].split(".")[:2]) for m in spec["per_layer"]
              if m["name"].count(".") == 2}
    assert ("reservoir", "spectral_radius") in layers
    for module_name, fn_name in layers:
        module = importlib.import_module(f"hubnet.{module_name}")
        assert (module_name, fn_name) == ("cli", "main") or fn_name in module.__all__, \
            f"{module_name}.{fn_name}"
        assert callable(getattr(module, fn_name))
