"""Tests for configuration and models."""

import dataclasses
import re

import pytest

from repro.core.config import (
    DiskModel,
    FailurePlanConfig,
    GThinkerConfig,
    MachineModel,
    NetworkModel,
    parse_host_port,
)


def test_defaults_valid():
    cfg = GThinkerConfig()
    assert cfg.effective_pending_threshold == 8 * cfg.task_batch_size


def test_pending_threshold_override():
    cfg = GThinkerConfig(pending_threshold=5)
    assert cfg.effective_pending_threshold == 5


def test_with_updates_returns_copy():
    a = GThinkerConfig(num_workers=2)
    b = a.with_updates(num_workers=4)
    assert a.num_workers == 2
    assert b.num_workers == 4
    assert b.task_batch_size == a.task_batch_size


@pytest.mark.parametrize("field,value", [
    ("num_workers", 0),
    ("compers_per_worker", 0),
    ("task_batch_size", 0),
    ("cache_capacity", 0),
    ("cache_overflow_alpha", -0.1),
    ("cache_buckets", 0),
    ("decompose_threshold", 1),
    ("max_worker_restarts", -1),
    ("control_reply_timeout_s", 0.0),
    ("sync_every_rounds", 0),
    ("steal_batches", -1),
    ("cache_count_delta", 0),
    ("aggregator_sync_period_s", 0.0),
    ("pending_threshold", -1),
    ("cluster_connect_timeout_s", 0.0),
])
def test_invalid_values_rejected(field, value):
    # The message must name the offending field: these errors surface
    # deep inside worker processes, far from the construction site.
    with pytest.raises(ValueError, match=field):
        GThinkerConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("process_start_method", "spawn"),
    ("ipc_batch_max_messages", 8),
    ("checkpoint_dir", "/tmp/ck"),
    ("disk", DiskModel()),
    ("steal_enabled", False),
    ("idle_sleep_s", 0.001),
    ("idle_backoff_max_s", 0.05),
    ("response_chunk", 16),
    ("worker_restart_backoff_s", 0.0),
])
def test_removed_fields_rejected(field, value):
    # Nothing set the first two and nothing read the third: node processes
    # start with fork where available, the transports batch a fixed
    # number of messages, and the CLI names its checkpoint file itself.
    # Nothing set `disk` (the simulator uses the DiskModel default),
    # `steal_batches=0` is what `steal_enabled=False` was, and only tests
    # set the idle backoff, the response chunk and the restart backoff,
    # now constants (config.IDLE_SLEEP_S / IDLE_BACKOFF_MAX_S,
    # comm.RESPONSE_CHUNK, controlplane.RESTART_BACKOFF_S).
    with pytest.raises(TypeError):
        GThinkerConfig(**{field: value})


def test_steal_batches_unchecked_when_stealing_disabled():
    GThinkerConfig(steal_batches=0)  # 0 = no stealing; does not raise


def test_docstring_attributes_name_every_field():
    doc = GThinkerConfig.__doc__.split("Attributes\n    ----------\n", 1)[1]
    names = set()
    for entry in re.findall(r"^    (\w[\w /]*):$", doc, re.M):
        names.update(n.strip() for n in entry.split("/"))
    assert names == {f.name for f in dataclasses.fields(GThinkerConfig)}


def test_pending_threshold_zero_allowed():
    # D=0 is maximal gating (any pending task blocks the next pop) and
    # tests rely on it; only negatives are nonsense.
    assert GThinkerConfig(pending_threshold=0).effective_pending_threshold == 0


@pytest.mark.parametrize("field,value", [
    ("sync_every_rounds", -3),
    ("cache_count_delta", -1),
    ("aggregator_sync_period_s", -0.5),
    ("pending_threshold", -2),
])
def test_negative_values_rejected_too(field, value):
    with pytest.raises(ValueError, match=field):
        GThinkerConfig(**{field: value})


# -- cluster wiring ----------------------------------------------------------


@pytest.mark.parametrize("spec,expected", [
    ("127.0.0.1:9090", ("127.0.0.1", 9090)),
    ("nodeA:0", ("nodeA", 0)),
    ("fe80::1:443", ("fe80::1", 443)),  # rpartition keeps IPv6 hosts whole
])
def test_parse_host_port_accepts(spec, expected):
    assert parse_host_port(spec) == expected


@pytest.mark.parametrize("spec", [
    "nohost", ":8080", "host:", "host:http", "host:70000", "host:-1", 8080,
])
def test_parse_host_port_rejects(spec):
    with pytest.raises(ValueError):
        parse_host_port(spec)


def test_cluster_hosts_must_match_num_workers():
    with pytest.raises(ValueError, match="cluster_hosts"):
        GThinkerConfig(num_workers=2, cluster_hosts=("a:1",))


def test_cluster_hosts_entries_validated():
    with pytest.raises(ValueError):
        GThinkerConfig(num_workers=2, cluster_hosts=("a:1", "no-port"))


def test_cluster_hosts_coerced_to_tuple():
    cfg = GThinkerConfig(num_workers=2, cluster_hosts=["a:1", "b:2"])
    assert cfg.cluster_hosts == ("a:1", "b:2")


def test_cluster_bind_validated():
    with pytest.raises(ValueError, match="cluster_bind"):
        GThinkerConfig(cluster_bind="nope")


@pytest.mark.parametrize("kw", [
    dict(kill_worker=0, when="never"),          # unknown event
    dict(when="spawn"),                         # kill_worker required
    dict(kill_worker=-1, when="sync"),          # negative worker id
    dict(kill_worker=0, when="sync", at_count=0),
    dict(kill_worker=0, when="sync", probability=0.0),
    dict(kill_worker=0, when="sync", probability=1.5),
])
def test_invalid_failure_plans_rejected(kw):
    with pytest.raises(ValueError):
        FailurePlanConfig(**kw)


def test_random_failure_plan_needs_no_kill_worker():
    plan = FailurePlanConfig(when="random", probability=0.5, seed=9)
    assert plan.kill_worker is None


def test_failure_plan_worker_id_checked_against_num_workers():
    plan = FailurePlanConfig(kill_worker=5, when="sync")
    with pytest.raises(ValueError):
        GThinkerConfig(num_workers=2, failure_plan=plan)
    GThinkerConfig(num_workers=6, failure_plan=plan)  # in range: fine


def test_network_transfer_time():
    net = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1000.0)
    assert net.transfer_time(0) == pytest.approx(0.001)
    assert net.transfer_time(1000) == pytest.approx(1.001)


def test_disk_io_time():
    disk = DiskModel(seek_s=0.002, bandwidth_bytes_per_s=100.0)
    assert disk.io_time(100) == pytest.approx(1.002)


def test_machine_model_defaults():
    m = MachineModel()
    assert m.num_cores == 16
    assert m.memory_bytes == 64 << 30
    assert m.cpu_speed == 1.0


def test_config_frozen():
    cfg = GThinkerConfig()
    with pytest.raises(Exception):
        cfg.num_workers = 9  # dataclass(frozen=True)
