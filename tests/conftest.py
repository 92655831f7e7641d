"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib
import signal

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
    pool's maintenance thread respawns a replacement, but any cells the
    victim was running are lost — exercising the executor's worker-loss
    recovery. Returns the victim's PID.
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
    stored pickle payload of ``count`` entries with garbage — loose
    ``.pkl`` files first, then records inside pack files (group-committed
    deltas land as packs, so a sweep's spill may have no loose entries
    at all). Files and pack records stay in place, so membership probes
    still see them. A well-behaved reader must treat the entries as
    misses and recompute. Returns the corrupted paths.
    """

    def _corrupt(cache_dir, count: int = 1):
        from repro.sim.diskindex import scan_pack

        root = pathlib.Path(cache_dir)
        victims = []
        for path in sorted(root.rglob("*.pkl"))[:count]:
            path.write_bytes(b"\x00corrupt-truncated-entry")
            victims.append(path)
        if len(victims) < count:
            for pack_path in sorted(root.rglob("*.pack")):
                for _digest, offset, length in scan_pack(pack_path):
                    with open(pack_path, "r+b") as handle:
                        handle.seek(offset)
                        handle.write(b"\x00" * length)
                    victims.append(pack_path)
                    if len(victims) >= count:
                        break
                if len(victims) >= count:
                    break
        assert victims, f"no disk-cache entries under {cache_dir}"
        return victims

    return _corrupt


@pytest.fixture
def corrupt_cache_index():
    """Fault injector: damage an on-disk simulation cache's manifest.

    Returns a callable taking a cache directory and a mode:
    ``"garbage"`` overwrites the manifest with non-UTF-8 noise,
    ``"truncate"`` shears it mid-line, ``"stale"`` rewrites the header
    to a foreign schema generation. The store itself is untouched, so a
    well-behaved cache must answer membership identically after a
    rebuild. Returns the manifest path.
    """

    def _corrupt(cache_dir, mode: str = "garbage"):
        from repro.sim.diskindex import INDEX_NAME

        root = pathlib.Path(cache_dir)
        manifests = sorted(root.rglob(INDEX_NAME))
        assert manifests, f"no cache manifest under {cache_dir}"
        path = manifests[0]
        if mode == "garbage":
            path.write_bytes(b"\xff\xfe not a manifest \x00\x01")
        elif mode == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: max(len(data) * 2 // 3, 1)])
        elif mode == "stale":
            lines = path.read_bytes().splitlines(keepends=True)
            lines[0] = b"repri 1 0000deadbeef\n"
            path.write_bytes(b"".join(lines))
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        return path

    return _corrupt
