import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hubnet
from hubnet.cli import main


def run(argv):
    return main(argv)


def test_gen_then_metrics_round_trip(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    assert run(["gen", "--n", "60", "--density", "0.2", "--seed", "4",
                "--out", str(net_path)]) == 0
    assert net_path.exists()

    metrics_path = tmp_path / "metrics.json"
    degrees_path = tmp_path / "degrees.csv"
    assert run(["metrics", "--in", str(net_path), "--out", str(metrics_path),
                "--degrees-out", str(degrees_path)]) == 0
    with open(metrics_path) as fh:
        metrics = json.load(fh)
    assert {"cv", "modularity", "clustering", "unconnected"} <= set(metrics)
    with open(degrees_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "degree"]
    assert len(rows) == 61


def test_metrics_prints_to_stdout_by_default(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run(["gen", "--n", "30", "--seed", "1", "--out", str(net_path)])
    capsys.readouterr()
    assert run(["metrics", "--in", str(net_path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["unconnected"] >= 0


def test_gen_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "--n", "40", "--seed", "9", "--out", str(a)])
    run(["gen", "--n", "40", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_hubnet_seed_env_override(tmp_path, monkeypatch, capsys):
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    monkeypatch.setenv("HUBNET_SEED", "123")
    run(["gen", "--n", "40", "--out", str(a)])
    run(["gen", "--n", "40", "--out", str(b)])
    monkeypatch.setenv("HUBNET_SEED", "124")
    run(["gen", "--n", "40", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    # an explicit --seed beats the environment
    monkeypatch.setenv("HUBNET_SEED", "999")
    d = tmp_path / "d.json"
    run(["gen", "--n", "40", "--seed", "123", "--out", str(d)])
    assert d.read_bytes() == a.read_bytes()
    # a malformed variable is read only when --seed is absent
    monkeypatch.setenv("HUBNET_SEED", "abc")
    e = tmp_path / "e.json"
    assert run(["gen", "--n", "40", "--seed", "123", "--out", str(e)]) == 0
    assert e.read_bytes() == a.read_bytes()
    capsys.readouterr()
    assert run(["gen", "--n", "40", "--out", str(e)]) == 2
    err = capsys.readouterr().err
    assert err == "error: HUBNET_SEED must be an integer, got 'abc'\n"


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, rng=None):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr("hubnet.topology.generate_network", exhausted)
    assert run(["gen", "--n", "10000000", "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 728. TiB for an array\n")


def test_size_guard_exits_1(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["gen", "--n", "1000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n = 1000000 needs about ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "analyze-readout"])
@pytest.mark.parametrize("task", ["mackey-glass", "narma10"])
def test_oversize_time_series_exits_2_before_making_data(tmp_path, monkeypatch, capsys,
                                                         command, task):
    def no_series(*args, **kwargs):
        raise AssertionError("an oversize trial must be refused before its data is made")

    monkeypatch.setattr(hubnet.bench, "mackey_glass", no_series)
    monkeypatch.setattr(hubnet.bench, "narma10", no_series)
    out = tmp_path / "r.csv"
    assert run([command, "--task", task, "--n", "500", "--n-train", "1000000000",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a trial of n = 500 and 1,000,002,000 steps needs about ")
    assert err.endswith(" of physical memory\n") and err.count("\n") == 1
    assert not out.exists()


def run_python(*args, check=True):
    """A fresh interpreter, given ``args``, that imports this hubnet; its outcome."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(hubnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def modules_after_cli_import():
    """The names in ``sys.modules`` of a fresh interpreter that imported hubnet.cli."""
    return run_python("-c", "import sys, hubnet.cli; print(*sys.modules)").stdout.split()


def test_cli_import_leaves_the_thread_pool_unimported():
    # concurrent.futures pulls in logging; only ``bench --jobs N`` needs it
    assert "concurrent.futures" not in modules_after_cli_import()


def test_cli_import_loads_no_scipy():
    # scipy is a test extra: importing it added 28 MB of RSS and 0.15 s
    assert [m for m in modules_after_cli_import() if m.split(".")[0] == "scipy"] == []


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert run(["metrics", "--in", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_network_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["metrics", "--in", str(bad)]) == 1


@pytest.mark.parametrize("edge", [[-1, 0, 0.5], [0, 1, float("nan")], [0, 20, 0.5]])
def test_malformed_network_json_exits_1(tmp_path, capsys, edge):
    net_path = tmp_path / "net.json"
    run(["gen", "--n", "20", "--seed", "1", "--out", str(net_path)])
    doc = json.loads(net_path.read_text())
    doc["edges"].append(edge)
    net_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["metrics", "--in", str(net_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["config"].update(bogus=1),  # unknown config key
    lambda doc: doc["config"].pop("n"),  # missing config key
    lambda doc: doc.pop("edges"),  # missing top-level key
    lambda doc: doc.update(bogus=1),  # unknown top-level key
    lambda doc: doc.update(n=21),  # n disagrees with config.n
    lambda doc: doc["coords"].pop(),  # one coords row short of n
    # 30 [x, y] pairs hold as many numbers as 20 triples
    lambda doc: doc.update(coords=[[0.5, 0.5]] * 30),
    lambda doc: doc.update(coords=[[None, 0.0, 0.0]] * 20),  # null coordinates
    lambda doc: doc.update(coords=[[{}, 0.0, 0.0]] * 20),  # coordinates that are no number
    lambda doc: doc.update(n=20.7),  # a non-integer n
    lambda doc: doc["edges"].append([0.5, 1.9, 1.0]),  # fractional edge indices
    lambda doc: doc["edges"].append(doc["edges"][0][:2] + [2.0]),  # an edge given twice
    lambda doc: doc["config"].update(seed="x"),  # a seed that is no integer
    lambda doc: doc["config"].update(density=True),  # a bool for a float field
    # an edge no measure counts, which saving the network again would keep
    lambda doc: doc["edges"].append([5, 5, 0.7]),
    lambda doc: doc["edges"][0].__setitem__(2, 0.0),  # an edge the next save drops
    lambda doc: doc["edges"][0].__setitem__(2, "0.5"),  # a number as a string
    lambda doc: doc["coords"][0].__setitem__(0, True),  # a bool for a coordinate
], ids=["unknown-key", "missing-config-key", "missing-key", "extra-key", "n-mismatch",
        "coords-short", "coords-pairs", "coords-null", "coords-object", "n-float",
        "edge-fractional", "edge-duplicate", "seed-string", "density-bool",
        "edge-self-loop", "edge-zero", "edge-string", "coords-bool"])
def test_malformed_network_config_exits_1(tmp_path, capsys, corrupt):
    net_path = tmp_path / "net.json"
    run(["gen", "--n", "20", "--seed", "1", "--out", str(net_path)])
    doc = json.loads(net_path.read_text())
    corrupt(doc)
    net_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["metrics", "--in", str(net_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bench", "--repeats", "0"],
    ["bench", "--jobs", "0"],
    ["bench", "--n-train", "-5"],
    ["bench", "--n-test", "0"],
    ["bench", "--n", "0"],
    ["bench", "--washout", "-1"],
    ["analyze-readout", "--trial", "-1"],
    # a washout of n_train steps leaves no row to fit
    ["bench", "--washout", "30"],
])
def test_out_of_range_integer_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    base = {"--task": "narma10", "--n": "20", "--n-train": "30", "--n-test": "10",
            "--out": str(out)}
    base[argv[1]] = argv[2]
    assert run([argv[0]] + [tok for kv in base.items() for tok in kv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--density", "0"],
    ["gen", "--density", "1.5"],
    ["gen", "--alpha", "-0.1"],
    ["gen", "--beta", "nan"],
    ["gen", "--lambda-reg", "-1"],
    ["gen", "--weight-sigma2", "inf"],
    ["bench", "--spec-rad", "-1"],
    ["bench", "--r-sig", "0"],
    ["bench", "--lambda-dc", "nan"],
    ["analyze-readout", "--spec-rad", "0"],
])
def test_out_of_range_float_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    base = {"--n": "20", "--out": str(out)}
    if argv[0] != "gen":
        base.update({"--task": "narma10", "--n-train": "30", "--n-test": "10"})
    base[argv[1]] = argv[2]
    assert run([argv[0]] + [tok for kv in base.items() for tok in kv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["gen", "--lambda-dc", "0", "--lambda-nc", "0"], "hub mode needs at least one positive lambda"),
    (["bench", "--density", "1.5"], "density must be in (0, 1], got 1.5"),
    (["bench", "--lambda-dc", "0", "--lambda-nc", "0", "--models", "esn,hubesn"],
     "hub mode needs at least one positive lambda"),
    (["bench", "--repeats", "0"], "repeats must be >= 1, got 0"),
    (["bench", "--jobs", "-3"], "jobs must be >= 1, got -3"),
    (["bench", "--n-test", "0"], "n_test must be >= 1, got 0"),
    (["analyze-readout", "--trial", "-1"], "trial_index must be nonnegative, got -1"),
    (["analyze-readout", "--r-sig", "2"], "r_sig must be in (0, 1], got 2.0"),
    # an image has 28 columns, whatever n_train is
    (["analyze-readout", "--washout", "28"], "washout leaves no rows to fit"),
])
def test_settings_are_checked_before_any_file_is_read(tmp_path, capsys, argv, message):
    # the MNIST files do not exist, so reading them would exit 1
    out = tmp_path / "out"
    if argv[0] == "gen":
        argv = argv + ["--n", "20"]
    else:
        argv = argv + ["--task", "mnist", "--n", "20", "--n-train", "4",
                       "--mnist-images", str(tmp_path / "none"),
                       "--mnist-labels", str(tmp_path / "none")]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_refuses_an_overflowing_pruning_mass(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert run(["gen", "--n", "60", "--alpha", "1000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "analyze-readout"])
def test_weight_variance_is_a_gen_flag_only(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--task", "narma10", "--n", "20", "--n-train", "30",
             "--weight-sigma2", "1", "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2


def test_gen_writes_the_empty_network(tmp_path):
    out = tmp_path / "empty.json"
    assert run(["gen", "--n", "0", "--out", str(out)]) == 0
    net = hubnet.topology.load_network(out)
    assert net.weights.shape == (0, 0) and net.coords.shape == (0, 3)


def test_metrics_of_the_empty_network_is_one_error_line(tmp_path):
    # a fresh interpreter, as numpy's RuntimeWarnings reach its stderr: the
    # degree CV of no nodes used to print five of them before the error
    out = tmp_path / "empty.json"
    assert run(["gen", "--n", "0", "--out", str(out)]) == 0
    done = run_python("-m", "hubnet.cli", "metrics", "--in", str(out), check=False)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: degree vector must be nonempty"]
    assert done.stdout == ""


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from hubnet.<module> import *`` and every caller that walks __all__
    modules = [importlib.import_module(f"hubnet.{info.name}")
               for info in pkgutil.iter_modules(hubnet.__path__)]
    assert len(modules) >= 7
    for mod in [hubnet, *modules]:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists {name!r}"


def test_bad_flag_value_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--n", "ten", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_unknown_model_exits_2(tmp_path, capsys):
    code = run(["bench", "--task", "mackey-glass", "--models", "esn,transformer",
                "--n", "20", "--n-train", "30", "--n-test", "10",
                "--repeats", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "unknown model" in capsys.readouterr().err


def test_duplicate_model_exits_2(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run(["bench", "--task", "mackey-glass", "--models", "esn,hubesn,esn",
                "--n", "20", "--n-train", "30", "--n-test", "10",
                "--repeats", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: model 'esn' given twice\n"
    assert not out.exists()


def test_mnist_without_files_exits_2(tmp_path, capsys):
    code = run(["bench", "--task", "mnist", "--n", "20", "--n-train", "4",
                "--n-test", "2", "--repeats", "1",
                "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_mnist_bench_is_job_count_independent(tmp_path, write_idx):
    rng = np.random.default_rng(4)
    img, lab = write_idx(rng.integers(0, 256, size=(16, 28, 28)),
                         rng.integers(0, 10, size=16))
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.csv"
        assert run(["bench", "--task", "mnist", "--n", "30", "--n-train", "8",
                    "--n-test", "6", "--repeats", "2", "--seed", "5",
                    "--jobs", jobs, "--mnist-images", str(img),
                    "--mnist-labels", str(lab), "--omit-timing",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 1 + 3 * 2


def test_bench_small_run_and_plot(tmp_path):
    out = tmp_path / "results.csv"
    agg = tmp_path / "agg.csv"
    code = run(["bench", "--task", "narma10", "--models", "esn,hubesn",
                "--n", "30", "--n-train", "60", "--n-test", "20",
                "--repeats", "2", "--seed", "3", "--out", str(out),
                "--aggregate-out", str(agg), "--omit-timing"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "degree_weight_r"  # timing column omitted
    assert len(rows) == 1 + 2 * 2
    with open(agg, newline="") as fh:
        agg_rows = list(csv.DictReader(fh))
    assert {r["model"] for r in agg_rows} == {"esn", "hubesn"}

    svg = tmp_path / "plot.svg"
    assert run(["plot", "--in", str(agg), "--out", str(svg)]) == 0
    assert svg.read_text().lstrip().startswith("<?xml")
    root = ET.parse(svg).getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2


@pytest.mark.parametrize("text", [
    "task,model,n,n_train,mean,sd,count\n",  # no rows
    "model,n_train,mean\nesn,100\n",  # a row short of the header
], ids=["no-rows", "short-row"])
def test_plot_empty_csv_exits_1(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run(["plot", "--in", str(bad), "--out", str(tmp_path / "p.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_analyze_readout(tmp_path, capsys):
    out = tmp_path / "readout.csv"
    code = run(["analyze-readout", "--task", "mackey-glass", "--model", "hubesn",
                "--n", "30", "--n-train", "60", "--n-test", "20",
                "--seed", "2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "pearson_r=" in printed and "score=" in printed
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["neuron", "degree", "normalized_weight", "is_input"]
    assert len(rows) == 31
    assert sum(int(r[3]) for r in rows[1:]) == 3  # ceil(0.1 * 30) input neurons
