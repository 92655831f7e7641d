"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib
import signal
import sys
import time

import numpy as np
import pytest

from repro.core.schemes import parse_scheme
from repro.sim.system import ddr_system, hbm_system

#: Wall-clock budget of one test's call phase (seconds). No test may
#: pass by sleeping into a timeout: one that runs past this fails even
#: if its assertions hold, naming the budget.
TEST_TIME_BUDGET_S = 30.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "call"
        and report.passed
        and report.duration > TEST_TIME_BUDGET_S
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {report.duration:.1f} s, over the "
            f"{TEST_TIME_BUDGET_S:.0f} s per-test time budget "
            "(TEST_TIME_BUDGET_S in tests/conftest.py)"
        )


#: How long a forked sweep worker may outlive ``shutdown_worker_pool``
#: (seconds) before the test that left it behind fails.
WORKER_EXIT_GRACE_S = 1.0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture(autouse=True)
def _reap_sweep_workers():
    """Tear down sweep workers after every test; fail if any survive.

    A pool left alive would carry its workers, and their warm caches,
    into the next test. Teardown must leave no forked worker running,
    no loopback ``repro worker`` subprocess unreaped and no parent-side
    worker link (socketpair or TCP connection) open.
    """
    yield
    from repro.experiments import parallel

    pids = parallel.worker_pool_pids()
    parallel.shutdown_worker_pool()
    deadline = time.monotonic() + WORKER_EXIT_GRACE_S
    survivors = [pid for pid in pids if _pid_alive(pid)]
    while survivors and time.monotonic() < deadline:
        time.sleep(0.01)
        survivors = [pid for pid in survivors if _pid_alive(pid)]
    assert not survivors, (
        f"pool workers {survivors} outlived shutdown_worker_pool() by "
        f"{WORKER_EXIT_GRACE_S:.0f} s"
    )
    remote = sys.modules.get("repro.experiments.remote")
    if remote is not None:
        assert not remote.loopback_worker_procs(), (
            "loopback workers outlived shutdown_worker_pool()"
        )
        links = list(remote._LINKS)
        for link in links:
            link.close()
        assert not links, (
            f"worker links {sorted(link.label for link in links)} "
            "outlived shutdown_worker_pool()"
        )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def hbm():
    """The paper's HBM-equipped 56-core system."""
    return hbm_system()


@pytest.fixture
def ddr():
    """The paper's DDR-equipped 56-core system."""
    return ddr_system()


@pytest.fixture(
    params=["Q16_50%", "Q8", "Q8_20%", "Q4", "Q8_5%"],
    ids=lambda name: name.replace("%", ""),
)
def scheme(request):
    """A representative slice of the paper's compression schemes."""
    return parse_scheme(request.param)


def random_weights(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Gaussian weights like a trained FC layer's."""
    return (rng.normal(scale=0.05, size=(rows, cols))).astype(np.float32)


# ---------------------------------------------------------------------
# Fault injection (serve-daemon hardening tests)
# ---------------------------------------------------------------------


@pytest.fixture
def kill_pool_worker():
    """Fault injector: SIGKILL one live persistent-pool worker.

    Returns a callable that picks a worker of the process-wide pool
    (the lowest PID by default, or a caller-chosen one) and kills it
    outright, simulating an OOM-killed / crashed worker mid-sweep. The
    parent sees EOF on the victim's socket; any cells it was running
    recompute in-parent, and the next sweep re-forks it. Returns the
    victim's PID.
    """
    from repro.experiments.parallel import worker_pool_pids

    def _kill(pid: "int | None" = None) -> int:
        pids = worker_pool_pids()
        assert pids, "no live pool worker to kill"
        victim = pid if pid is not None else pids[0]
        assert victim in pids, f"{victim} is not a pool worker ({pids})"
        os.kill(victim, signal.SIGKILL)
        return victim

    return _kill


@pytest.fixture
def corrupt_disk_entry():
    """Fault injector: garble entries of an on-disk simulation cache.

    Returns a callable taking a cache directory; it overwrites the
    stored pickle payload of ``count`` ``.pkl`` entry files with
    garbage. The files stay in place, so membership probes still see
    them. A well-behaved reader must treat the entries as misses and
    recompute. Returns the corrupted paths.
    """

    def _corrupt(cache_dir, count: int = 1):
        victims = sorted(pathlib.Path(cache_dir).rglob("*.pkl"))[:count]
        for path in victims:
            path.write_bytes(b"\x00corrupt-truncated-entry")
        assert victims, f"no disk-cache entries under {cache_dir}"
        return victims

    return _corrupt
