"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph import erdos_renyi, ring_of_cliques, write_adjacency, write_edge_list
from repro.algorithms import count_triangles, max_clique_reference


@pytest.fixture
def edge_file(tmp_path, er_graph):
    path = tmp_path / "g.txt"
    write_edge_list(er_graph, path)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_datasets_command(capsys):
    assert main(["datasets", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    for name in ("youtube", "skitter", "orkut", "btc", "friendster"):
        assert name in out


def test_tc_on_edge_file(edge_file, er_graph, capsys):
    assert main(["tc", "--graph", edge_file, "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert f"aggregate    : {count_triangles(er_graph)}" in out


def test_tc_bundled(edge_file, er_graph, capsys):
    assert main(["tc", "--graph", edge_file, "--bundle", "16"]) == 0
    assert str(count_triangles(er_graph)) in capsys.readouterr().out


def test_mcf_on_dataset(capsys):
    assert main(["mcf", "--dataset", "youtube", "--scale", "0.1",
                 "--workers", "2", "--compers", "2"]) == 0
    assert "max clique" in capsys.readouterr().out


def test_mcf_simulate(capsys):
    assert main(["mcf", "--dataset", "youtube", "--scale", "0.1",
                 "--simulate", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "virtual time" in out
    assert "peak memory" in out


def test_mcf_adjacency_format(tmp_path, capsys):
    g = ring_of_cliques(3, 5)
    path = tmp_path / "g.adj"
    write_adjacency(g, path)
    assert main(["mcf", "--graph", str(path), "--format", "adjacency"]) == 0
    assert "size 5" in capsys.readouterr().out


def test_qc_with_output(tmp_path, capsys):
    g = ring_of_cliques(2, 5)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    out_path = tmp_path / "qcs.txt"
    assert main(["qc", "--graph", str(path), "--gamma", "1.0",
                 "--min-size", "5", "--output", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2  # the two 5-cliques


def test_shard_roundtrip(tmp_path, edge_file, er_graph, capsys):
    shard_dir = tmp_path / "shards"
    assert main(["shard", "--graph", edge_file, "--out", str(shard_dir),
                 "--num-shards", "3"]) == 0
    assert main(["tc", "--shards", str(shard_dir), "--workers", "3"]) == 0
    assert str(count_triangles(er_graph)) in capsys.readouterr().out


def test_requires_exactly_one_source():
    with pytest.raises(SystemExit):
        main(["tc"])
    with pytest.raises(SystemExit):
        main(["tc", "--dataset", "youtube", "--graph", "x.txt"])


def test_threaded_runtime_flag(edge_file, er_graph, capsys):
    assert main(["tc", "--graph", edge_file, "--runtime", "threaded"]) == 0
    assert str(count_triangles(er_graph)) in capsys.readouterr().out


def test_tau_flag(capsys):
    assert main(["mcf", "--dataset", "youtube", "--scale", "0.1",
                 "--tau", "8"]) == 0
    assert "max clique" in capsys.readouterr().out


def test_cliques_command(tmp_path, capsys):
    from repro.graph import ring_of_cliques

    g = ring_of_cliques(3, 4)
    path = tmp_path / "rc.txt"
    write_edge_list(g, path)
    out_path = tmp_path / "cliques.txt"
    assert main(["cliques", "--graph", str(path), "--min-size", "4",
                 "--output", str(out_path)]) == 0
    assert len(out_path.read_text().strip().splitlines()) == 3


def test_checked_runtime_flag(edge_file, er_graph, capsys):
    assert main(["tc", "--graph", edge_file, "--runtime", "checked"]) == 0
    assert str(count_triangles(er_graph)) in capsys.readouterr().out


def test_check_command(capsys):
    assert main(["check", "--seeds", "2", "--vertices", "30", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "6 fuzz runs" in out  # 3 apps x 2 seeds
    assert "0 failed" in out


def test_check_command_verbose(capsys):
    assert main(["check", "--seeds", "1", "--vertices", "25"]) == 0
    out = capsys.readouterr().out
    assert "ok   tc seed=0" in out


# -- fault-tolerance flags -----------------------------------------------


def test_checkpoint_dir_writes_shard(edge_file, er_graph, tmp_path, capsys):
    ckdir = tmp_path / "ckpts"
    assert main(["tc", "--graph", edge_file,
                 "--checkpoint-dir", str(ckdir),
                 "--checkpoint-every", "1"]) == 0
    assert (ckdir / "tc.ckpt").exists()
    assert str(count_triangles(er_graph)) in capsys.readouterr().out


def test_resume_from_checkpoint_dir(edge_file, er_graph, tmp_path, capsys):
    ckdir = tmp_path / "ckpts"
    assert main(["tc", "--graph", edge_file,
                 "--checkpoint-dir", str(ckdir),
                 "--checkpoint-every", "1"]) == 0
    capsys.readouterr()
    assert main(["tc", "--graph", edge_file,
                 "--checkpoint-dir", str(ckdir), "--resume"]) == 0
    assert str(count_triangles(er_graph)) in capsys.readouterr().out


def test_resume_requires_checkpoint_dir(edge_file):
    with pytest.raises(SystemExit, match="checkpoint-dir"):
        main(["tc", "--graph", edge_file, "--resume"])


def test_resume_rejects_simulate(edge_file, tmp_path):
    with pytest.raises(SystemExit, match="simulate"):
        main(["tc", "--graph", edge_file, "--resume", "--simulate",
              "--checkpoint-dir", str(tmp_path)])


def test_profile_sees_the_thread_that_runs_the_job(edge_file, er_graph, capsys):
    """``--profile`` was blind once jobs moved onto the Session thread
    (eight ``lock.acquire`` rows): the table must show engine frames."""
    assert main(["tc", "--graph", edge_file, "--workers", "2", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "repro/core/comper.py" in out
    assert "Ordered by: cumulative time" in out
    assert f"aggregate    : {count_triangles(er_graph)}" in out


def test_profile_with_simulate(capsys):
    assert main(["mcf", "--dataset", "youtube", "--scale", "0.05",
                 "--simulate", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "repro/core/comper.py" in out
    assert "virtual time" in out
