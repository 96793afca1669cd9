"""Tests for the Table II dataset stand-ins."""

import pytest

from repro.graph import DATASETS, dataset_stats, make_dataset
from repro.graph.datasets import PAPER_TABLE2
from repro.algorithms import max_clique


def test_all_five_datasets_exist():
    assert set(DATASETS) == {"youtube", "skitter", "orkut", "btc", "friendster"}
    assert set(PAPER_TABLE2) == set(DATASETS)


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        make_dataset("twitter")


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_builds_and_has_stats(name):
    g = make_dataset(name, scale=0.1)
    stats = dataset_stats(g)
    assert stats["num_vertices"] > 0
    assert stats["num_edges"] > 0
    assert stats["max_degree"] >= stats["avg_degree"]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_deterministic(name):
    assert make_dataset(name, scale=0.1) == make_dataset(name, scale=0.1)


def test_scale_monotone():
    small = make_dataset("youtube", scale=0.1)
    big = make_dataset("youtube", scale=0.4)
    assert big.num_vertices > small.num_vertices


def test_labeled_variant():
    g = make_dataset("youtube", scale=0.1, labeled=3)
    assert {g.label(v) for v in g.vertices()} <= {0, 1, 2}


def test_orkut_is_densest_social():
    """Orkut's defining feature in Table II is its density."""
    yt = dataset_stats(make_dataset("youtube", scale=0.2))
    ok = dataset_stats(make_dataset("orkut", scale=0.2))
    assert ok["avg_degree"] > 2 * yt["avg_degree"]


def test_btc_has_extreme_skew():
    """BTC's hub region is what broke G-Miner; make sure it exists."""
    stats = dataset_stats(make_dataset("btc", scale=0.3))
    assert stats["max_degree"] > 10 * stats["avg_degree"]


def test_friendster_planted_clique_dominates():
    spec = DATASETS["friendster"]
    g, planted = spec.build_with_planted(scale=0.2)
    largest_planted = max(len(p) for p in planted)
    found = max_clique(g)
    assert len(found) >= largest_planted
