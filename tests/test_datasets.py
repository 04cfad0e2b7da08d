"""TU-format parsing, bundle serialization and synthetic generators."""

import numpy as np
import pytest

from blackedge.datasets import (
    DatasetBundle,
    barbell,
    erdos_renyi,
    generate_synthetic,
    load_tudataset,
    stochastic_block_model,
)
from blackedge.errors import DanglingNode, InvalidParams, ParseError

from helpers import TU_FIXTURE


# -- TU format -----------------------------------------------------------


def test_load_tu_fixture(tu_dir):
    bundle = load_tudataset(tu_dir, "TINY")
    assert bundle.n_graphs == 2
    assert bundle.n_classes == 2
    triangle, path = bundle.graphs
    assert triangle.n_nodes == 3
    assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]
    assert path.edges() == [(0, 1), (1, 2)]
    # labels {-1, 1} remap to {0, 1} preserving sorted order
    assert triangle.label == 1 and path.label == 0


def test_load_tu_one_hot_node_features(tu_dir):
    bundle = load_tudataset(tu_dir, "TINY")
    triangle, path = bundle.graphs
    assert np.array_equal(triangle.features,
                          [[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert np.array_equal(path.features, [[0, 1, 0], [0, 0, 1], [0, 0, 1]])


def test_load_tu_without_node_labels(tu_dir):
    (tu_dir / "TINY_node_labels.txt").unlink()
    bundle = load_tudataset(tu_dir, "TINY")
    assert all(g.features is None for g in bundle.graphs)


def test_self_loop_rejected_with_line_number(tu_dir):
    (tu_dir / "TINY_A.txt").write_text("1, 2\n2, 2\n")
    with pytest.raises(ParseError) as exc_info:
        load_tudataset(tu_dir, "TINY")
    assert exc_info.value.line == 2


def test_cross_graph_edge_rejected(tu_dir):
    (tu_dir / "TINY_A.txt").write_text(TU_FIXTURE["A.txt"] + "3, 4\n")
    with pytest.raises(ParseError):
        load_tudataset(tu_dir, "TINY")


def test_unknown_node_rejected(tu_dir):
    (tu_dir / "TINY_A.txt").write_text(TU_FIXTURE["A.txt"] + "1, 99\n")
    with pytest.raises(DanglingNode):
        load_tudataset(tu_dir, "TINY")


def test_malformed_edge_line_rejected(tu_dir):
    (tu_dir / "TINY_A.txt").write_text("1 2\n")
    with pytest.raises(ParseError) as exc_info:
        load_tudataset(tu_dir, "TINY")
    assert exc_info.value.line == 1


def test_summary_statistics(tu_dir):
    summary = load_tudataset(tu_dir, "TINY").summary()
    assert summary["n_graphs"] == 2
    assert summary["avg_nodes"] == 3.0
    assert summary["avg_edges"] == 2.5


# -- bundle serialization ------------------------------------------------


def test_bundle_round_trip(tu_dir, tmp_path):
    bundle = load_tudataset(tu_dir, "TINY")
    path = tmp_path / "bundle.json"
    bundle.save(path)
    loaded = DatasetBundle.load(path)
    assert loaded.name == bundle.name
    assert loaded.n_classes == bundle.n_classes
    for a, b in zip(bundle.graphs, loaded.graphs):
        assert np.array_equal(a.bits, b.bits)
        assert a.label == b.label
        assert np.array_equal(a.features, b.features)


# -- synthetic generators ------------------------------------------------


def test_barbell_shape():
    g = barbell(4)
    assert g.n_nodes == 8
    assert g.n_edges == 13  # two K4s (6 edges each) plus the bridge
    assert (3, 4) in g.edges()


def test_barbell_validation():
    with pytest.raises(InvalidParams):
        barbell(1)


def test_erdos_renyi_determinism_and_bounds():
    a = erdos_renyi(12, 0.4, np.random.default_rng(5))
    b = erdos_renyi(12, 0.4, np.random.default_rng(5))
    assert np.array_equal(a.bits, b.bits)
    with pytest.raises(InvalidParams):
        erdos_renyi(5, 1.5, np.random.default_rng(0))
    assert erdos_renyi(6, 0.0, np.random.default_rng(0)).n_edges == 0
    assert erdos_renyi(6, 1.0, np.random.default_rng(0)).n_edges == 15


def test_sbm_extremes_form_disjoint_cliques():
    g = stochastic_block_model([3, 4], 1.0, 0.0, np.random.default_rng(0))
    a = g.adjacency
    assert np.all(a[:3, :3] + np.eye(3) == 1)  # first block is K3
    assert np.all(a[3:, 3:] + np.eye(4) == 1)  # second block is K4
    assert np.all(a[:3, 3:] == 0)  # no cross edges


def test_generate_synthetic_bundle():
    bundle = generate_synthetic("erdos_renyi", 5, seed=1, n=8, p=0.3)
    assert bundle.n_graphs == 5
    assert all(g.n_nodes == 8 for g in bundle.graphs)
    again = generate_synthetic("erdos_renyi", 5, seed=1, n=8, p=0.3)
    for a, b in zip(bundle.graphs, again.graphs):
        assert np.array_equal(a.bits, b.bits)
    with pytest.raises(InvalidParams):
        generate_synthetic("lattice", 3, seed=0)


@pytest.mark.parametrize("kind, params", [
    ("erdos_renyi", {"n": 5, "p": 0.2}),
    ("barbell", {"k": 3}),
    ("sbm", {"sizes": [2, 3], "p_in": 0.9, "p_out": 0.1}),
])
def test_negative_count_is_rejected(kind, params):
    with pytest.raises(InvalidParams, match="count"):
        generate_synthetic(kind, -3, 0, **params)
    assert generate_synthetic(kind, 0, 0, **params).n_graphs == 0
