"""Command-line interface smoke tests."""

import json

import pytest
from click.testing import CliRunner

from blackedge.cli import _parse_dataset, _parse_oracle, _parse_sweep, main
from blackedge.errors import ConfigError
from blackedge.gin import GinOracle, GinWeights


@pytest.fixture
def runner():
    return CliRunner()


def assert_one_line_error(result, message):
    """A failed run that printed ``Error: <message>`` and no traceback."""
    assert result.exit_code != 0
    assert f"Error: {message}" in result.output
    assert "Traceback" not in result.output


def test_attack_on_synthetic_dataset(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "attack",
        "--dataset", "er:10:0.3:3",
        "--oracle", "structural:edge_count:20",
        "--budget", "0.4",
        "--T", "3",
        "--Q", "10",
        "--seed", "0",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "per_graph", "aggregates"}
    assert len(doc["per_graph"]) == 3
    assert out.with_suffix(".csv").exists()


def test_attack_with_gin_oracle(runner, tmp_path):
    weights_path = tmp_path / "weights.json"
    GinWeights.random(seed=0, feature_dim=1, hidden_dims=(4,)).save(weights_path)
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "attack",
        "--dataset", "er:8:0.3:2",
        "--oracle", f"gin:{weights_path}",
        "--T", "2",
        "--Q", "5",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert out.exists()


def test_budget_sweep_mode(runner, tmp_path):
    out = tmp_path / "sweep.json"
    result = runner.invoke(main, [
        "attack",
        "--dataset", "er:8:0.3:2",
        "--oracle", "structural:edge_count:12",
        "--T", "2",
        "--Q", "5",
        "--budget-sweep", "0.2:0.4:0.2",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = json.loads(out.read_text())
    assert [r["budget"] for r in rows] == [0.2, 0.4]
    assert out.with_suffix(".csv").exists()


def test_baseline_random_command(runner, tmp_path):
    out = tmp_path / "random.json"
    result = runner.invoke(main, [
        "baseline-random",
        "--dataset", "er:8:0.3:2",
        "--oracle", "structural:edge_count:12",
        "--query-budget", "50",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["config"]["method"] == "random"


def test_eval_command(runner, tmp_path):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"aggregates": {"SR": 0.5}}))
    result = runner.invoke(main, ["eval", "--report", str(report)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"SR": 0.5}


def test_defend_command(runner, tmp_path):
    out = tmp_path / "defense.csv"
    result = runner.invoke(main, [
        "defend",
        "--dataset", "er:8:0.3:2",
        "--oracle", "structural:edge_count:12",
        "--gamma-sweep", "0.5:1.0:0.5",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,clean_accuracy"
    assert len(lines) == 3


def test_bundle_json_dataset_round_trip(runner, tmp_path):
    from blackedge.datasets import generate_synthetic

    bundle_path = tmp_path / "bundle.json"
    generate_synthetic("erdos_renyi", 2, seed=0, n=8, p=0.3).save(bundle_path)
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "attack",
        "--dataset", str(bundle_path),
        "--oracle", "structural:edge_count:12",
        "--T", "2",
        "--Q", "5",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output


def test_bad_specs_fail_cleanly(runner):
    result = runner.invoke(main, [
        "attack", "--dataset", "hypercube:3", "--oracle", "structural:edge_count:5",
    ])
    assert result.exit_code != 0
    result = runner.invoke(main, [
        "attack", "--dataset", "er:8:0.3:2", "--oracle", "mlp:w.json",
    ])
    assert result.exit_code != 0


@pytest.mark.parametrize("spec", [
    "er:6:0.2:2:1:junk",  # er takes at most n, p, count and seed
    "barbell:3:2:x",  # barbell takes k and count
    "sbm:2+3:0.9:0.1:2:0:7",  # sbm takes at most sizes, p's, count and seed
])
def test_synthetic_specs_with_trailing_fields_are_config_errors(spec):
    with pytest.raises(ConfigError, match="too many fields"):
        _parse_dataset(spec, None)
    # the same spec without its last field parses
    assert _parse_dataset(spec.rsplit(":", 1)[0], None).n_graphs == 2


@pytest.mark.parametrize("spec", ["gin", "gin:", "gin:no/such/weights.json"])
def test_gin_spec_without_a_weights_file_is_a_config_error(spec):
    with pytest.raises(ConfigError):
        _parse_oracle(spec)


def test_gin_spec_path_may_contain_colons(tmp_path):
    weights = GinWeights.random(seed=0, hidden_dims=(3,))
    folder = tmp_path / "dir:x"
    folder.mkdir()
    weights.save(folder / "w.json")
    oracle = _parse_oracle(f"gin:{folder / 'w.json'}")
    assert isinstance(oracle, GinOracle)
    assert oracle.weights.to_dict() == weights.to_dict()


@pytest.mark.parametrize("spec", [
    "0.1:0.5",  # two fields
    "a:b:c",  # not numbers
    "0.1:0.5:0.1:0.2",  # four fields
    "0.1:0.5:0",  # zero step
    "0.5:0.1:0.1",  # lo above hi
    "0.1:0.5:-0.1",  # negative step
    "0.1:nan:0.1",  # not finite
])
def test_malformed_sweep_specs_are_config_errors(spec):
    with pytest.raises(ConfigError):
        _parse_sweep(spec)


def test_sweep_with_equal_ends_has_one_value():
    assert _parse_sweep("0.5:0.5:0.1") == [0.5]


def test_defend_with_an_empty_sweep_writes_nothing(runner, tmp_path):
    out = tmp_path / "defense.csv"
    result = runner.invoke(main, [
        "defend",
        "--dataset", "er:8:0.3:2",
        "--oracle", "structural:edge_count:12",
        "--gamma-sweep", "0.5:0.1:0.1",
        "--out", str(out),
    ])
    assert_one_line_error(result, "sweep spec '0.5:0.1:0.1' needs finite lo <= hi")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["attack", "--n-trials", "0"],
    ["baseline-random", "--query-budget", "0"],
    ["baseline-random", "--query-budget", "-5"],
])
def test_no_trials_or_no_queries_is_a_config_error(runner, tmp_path, args):
    out = tmp_path / "report.json"
    result = runner.invoke(main, args + [
        "--dataset", "er:8:0.3:2",
        "--oracle", "structural:edge_count:12",
        "--out", str(out),
    ])
    name = "n_trials" if args[1] == "--n-trials" else "random_query_budget"
    assert_one_line_error(result, f"{name} must be at least 1, got {args[2]}")
    assert not out.exists()


@pytest.mark.parametrize("dataset, message", [
    ("er:20:0.2:5:1:x", "synthetic spec 'er:20:0.2:5:1:x' has too many fields"),
    ("er:20:0.2:-5", "graph count must be non-negative, got -5"),  # an InvalidParams
], ids=["too_many_fields", "negative_count"])
def test_invalid_datasets_are_one_line_errors(runner, tmp_path, dataset, message):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "attack", "--dataset", dataset, "--oracle", "structural:edge_count:5",
        "--out", str(out),
    ])
    assert_one_line_error(result, message)
    assert not out.exists()
