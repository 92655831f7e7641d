"""Tests for the socket-transport sweep executor.

The contract (see ``repro/experiments/remote.py``): with hosts
configured — programmatically or via ``REPRO_SWEEP_HOSTS`` — sweeps
dispatch contiguous cell partitions to socket workers and stream
``(index, result, cache delta)`` chunks back through the same
incremental-merge path as the fork pool. The backend never changes
results: every scenario is bit-identical to the serial and fork runs.
Worker cache deltas cross the wire as hash-sharded packed entries
deduped against the parent's digest set, a dead host's unfinished cells
are recomputed in-parent, and ``shutdown_worker_pool`` reaps the
loopback subprocesses.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import remote
from repro.experiments.parallel import (
    fork_available,
    last_sweep_execution,
    shutdown_worker_pool,
)
from repro.sim.cache import clear_simulation_cache, results_bit_equal

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the fork-vs-socket comparisons need fork"
)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_simulation_cache()
    shutdown_worker_pool()
    yield
    remote.configure_sweep_hosts(None)
    shutdown_worker_pool()
    clear_simulation_cache()


def _make_spec(scenario):
    """A small instance of each CLI scenario family."""
    if scenario == "grid":
        from repro.experiments.grid import grid_spec

        return grid_spec(tiles=48)
    if scenario == "figure12":
        from repro.experiments.figure12 import Figure12Result
        from repro.experiments.speedups import speedup_spec
        from repro.sim.system import ddr_system

        return speedup_spec(
            ddr_system(), tiles=64, name="figure12",
            reduce=Figure12Result,
        )
    assert scenario == "dse"
    from repro.experiments.dse import dse_spec

    return dse_spec(widths=(8, 16), lut_counts=(4, 8, 16))


class TestHostConfiguration:
    def test_parse_hosts_validates_and_normalizes(self):
        assert remote.parse_hosts("a:1, b:02,") == ("a:1", "b:2")
        for bad in ("noport", "host:", ":9", "host:abc"):
            with pytest.raises(ConfigurationError):
                remote.parse_hosts(bad)

    def test_configured_hosts_win_over_environment(self, monkeypatch):
        monkeypatch.setenv(remote.SWEEP_HOSTS_ENV, "env-host:7001")
        remote.configure_sweep_hosts(None)
        assert remote.active_sweep_hosts() == ("env-host:7001",)
        remote.configure_sweep_hosts("conf-host:7002")
        assert remote.active_sweep_hosts() == ("conf-host:7002",)
        # Explicit disable beats the environment; None reverts to it.
        remote.configure_sweep_hosts(())
        assert remote.active_sweep_hosts() == ()
        remote.configure_sweep_hosts(None)
        assert remote.active_sweep_hosts() == ("env-host:7001",)

    def test_unreachable_hosts_fail_loudly(self):
        remote.configure_sweep_hosts("127.0.0.1:9")
        from repro.experiments.parallel import stream_map

        with pytest.raises(ConfigurationError):
            list(stream_map(abs, [1, 2, 3, 4]))

    def test_worker_on_another_model_revision_is_refused(self, monkeypatch):
        # A worker whose model computes different numbers must not feed
        # its cache deltas into this sweep: the schema fingerprint
        # carries the model revision, so the handshake rejects it.
        from repro.sim import diskcache

        hosts = remote.start_loopback_workers(1)
        remote.configure_sweep_hosts(hosts)
        monkeypatch.setattr(diskcache, "_SCHEMA_FINGERPRINT", None)
        monkeypatch.setattr(
            diskcache, "MODEL_REVISION", diskcache.MODEL_REVISION + 1
        )
        with pytest.raises(ConfigurationError, match="result schema"):
            _make_spec("grid").run(jobs=2)


class TestBitEquality:
    @pytest.mark.parametrize("scenario", ["grid", "figure12", "dse"])
    def test_socket_matches_fork_and_serial(self, scenario):
        spec = _make_spec(scenario)
        serial = spec.run(jobs=1)
        clear_simulation_cache()
        forked = spec.run(jobs=2)
        clear_simulation_cache()
        shutdown_worker_pool()
        hosts = remote.start_loopback_workers(2)
        remote.configure_sweep_hosts(hosts)
        socketed = spec.run(jobs=2)
        execution = last_sweep_execution()
        assert execution.backend == "socket"
        assert execution.hosts == tuple(hosts)
        assert execution.completed == execution.tasks
        assert sum(n for _, n in execution.host_cells) == execution.tasks
        assert results_bit_equal(serial, forked)
        assert results_bit_equal(serial, socketed)

    def test_deadline_propagates_to_socket_sweeps(self):
        from repro.errors import DeadlineExceededError

        spec = _make_spec("grid")
        hosts = remote.start_loopback_workers(2)
        remote.configure_sweep_hosts(hosts)
        with pytest.raises(DeadlineExceededError):
            list(spec.stream(jobs=1, batch=False, deadline=0.0))


class TestRecovery:
    def test_host_death_mid_stream_recomputes_in_parent(self):
        from repro.experiments.grid import grid_spec

        spec = grid_spec(tiles=300)
        serial_values = [c.value for c in spec.stream(jobs=1, batch=False)]
        clear_simulation_cache()
        hosts = remote.start_loopback_workers(2)
        remote.configure_sweep_hosts(hosts)
        stream = spec.stream(jobs=1, batch=False)
        socket_values = [next(stream).value]
        # Both hosts die mid-sweep: every unfinished cell must be
        # recomputed in-parent, with results indistinguishable from a
        # healthy run.
        for proc in remote.loopback_worker_procs():
            proc.kill()
        socket_values += [c.value for c in stream]
        execution = last_sweep_execution()
        assert execution.backend == "socket"
        assert execution.completed == execution.tasks == len(serial_values)
        assert execution.redispatched_cells > 0
        assert all(
            results_bit_equal(a, b)
            for a, b in zip(serial_values, socket_values)
        )


class TestDeltaDedup:
    def test_warm_replay_ships_no_shard_bytes(self):
        from repro.experiments.grid import grid_spec

        spec = grid_spec(tiles=48)
        hosts = remote.start_loopback_workers(2)
        remote.configure_sweep_hosts(hosts)
        # Cold: the workers compute every cell and ship the entries to
        # the parent (per-cell path, so nothing is pre-seeded).
        cold_rows = sum(1 for _ in spec.stream(jobs=1, batch=False))
        cold = last_sweep_execution()
        assert cold.delta_bytes_received > 0
        # A replay on the same hosts: the deterministic contiguous
        # partition hands each host the same half it computed cold, so
        # its memory already answers every cell.
        sum(1 for _ in spec.stream(jobs=1, batch=False))
        # On converged hosts, digest dedup leaves nothing to ship in
        # either direction and every lookup is a worker memory hit.
        warm_rows = sum(1 for _ in spec.stream(jobs=1, batch=False))
        warm = last_sweep_execution()
        assert warm_rows == cold_rows
        assert warm.delta_bytes_sent == 0
        assert warm.delta_bytes_received == 0
        assert warm.worker_misses == 0
        assert warm.worker_hits == warm.tasks


class TestLifecycle:
    def test_shutdown_worker_pool_reaps_loopback_procs(self):
        hosts = remote.start_loopback_workers(2)
        remote.configure_sweep_hosts(hosts)
        procs = remote.loopback_worker_procs()
        assert len(procs) == 2
        from repro.experiments.parallel import stream_map

        assert [r for _, r in stream_map(abs, [-1, -2, -3, -4])] == [
            1, 2, 3, 4,
        ]
        shutdown_worker_pool()
        assert remote.loopback_worker_procs() == []
        assert all(proc.poll() is not None for proc in procs)

    def test_executor_topology_reports_socket_backend(self):
        from repro.experiments.grid import grid_spec

        remote.reset_topology_counters()
        assert remote.executor_topology()["backend"] == "fork"
        hosts = remote.start_loopback_workers(2)
        remote.configure_sweep_hosts(hosts)
        sum(1 for _ in grid_spec(tiles=48).stream(jobs=1, batch=False))
        topology = remote.executor_topology()
        assert topology["backend"] == "socket"
        assert topology["hosts"] == list(hosts)
        assert sum(topology["host_cells"].values()) == 48
        assert topology["delta_bytes_received"] > 0
