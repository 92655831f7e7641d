"""Tests for the command-line interface."""

import pytest

import os

from repro.cli import main
from repro.experiments.parallel import fork_available
from repro.sim.cache import (
    clear_simulation_cache,
    configure_simulation_cache_dir,
    simulation_cache_dir,
    simulation_cache_disk,
    simulation_cache_stats,
)


class TestFormats:
    def test_lists_formats(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        for name in ("bf16", "bf8", "mxfp4", "int4g32"):
            assert name in out


class TestSimulate:
    def test_default_run(self, capsys):
        assert main(["simulate", "--scheme", "Q8_20%"]) == 0
        out = capsys.readouterr().out
        assert "cycles/tile" in out
        assert "TFLOPS" in out

    def test_software_engine(self, capsys):
        assert main([
            "simulate", "--scheme", "Q4", "--engine", "software",
            "--memory", "ddr",
        ]) == 0
        assert "SPR-DDR" in capsys.readouterr().out

    def test_gantt(self, capsys):
        assert main(["simulate", "--gantt", "4"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_uncompressed_software(self, capsys):
        assert main([
            "simulate", "--scheme", "Q16", "--engine", "software",
        ]) == 0

    def test_scheme_list_fans_out(self, capsys):
        assert main(["simulate", "--scheme", "Q4,Q8_5%", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Q4 on" in out and "Q8_5% on" in out

    def test_empty_scheme_list_rejected(self, capsys):
        assert main(["simulate", "--scheme", ","]) == 2
        assert "at least one scheme" in capsys.readouterr().err

    def test_scheme_list_matches_individual_runs(self, capsys):
        assert main(["simulate", "--scheme", "Q4"]) == 0
        solo = capsys.readouterr().out
        assert main(["simulate", "--scheme", "Q4,Q8_20%", "--jobs", "2"]) == 0
        combined = capsys.readouterr().out
        assert solo.strip() in combined


class TestLlm:
    def test_llama_deca(self, capsys):
        assert main(["llm", "--scheme", "Q8_5%", "--engine", "deca"]) == 0
        out = capsys.readouterr().out
        assert "Llama2-70B" in out and "next-token latency" in out

    def test_opt_uncompressed(self, capsys):
        assert main([
            "llm", "--model", "opt-66b", "--engine", "uncompressed",
        ]) == 0
        assert "OPT-66B" in capsys.readouterr().out


class TestDse:
    def test_prints_best(self, capsys):
        assert main(["dse"]) == 0
        assert "best: W=32, L=8" in capsys.readouterr().out


class TestArea:
    def test_reference_design(self, capsys):
        assert main(["area"]) == 0
        assert "2.51 mm^2" in capsys.readouterr().out

    def test_custom_design(self, capsys):
        assert main(["area", "--width", "64", "--luts", "64"]) == 0


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "area"]) == 0
        assert "2.51" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "figure99"]) == 2

    def test_fast_subset(self, capsys):
        assert main(["experiments", "table3", "figure17"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Figure 17" in out

    def test_jobs_flag(self, capsys):
        assert main(["experiments", "figure12", "--jobs", "2"]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_sweep_harnesses_listed(self, capsys):
        assert main(["experiments", "sensitivity", "--jobs", "2"]) == 0
        assert "Sensitivity" in capsys.readouterr().out

    def test_negative_jobs_is_a_clean_error(self, capsys):
        assert main(["experiments", "figure12", "--jobs", "-2"]) == 2
        err = capsys.readouterr().err
        assert "jobs must be >= 0" in err


class TestScenarioRegistry:
    """``experiments --list`` and the declarative streaming path."""

    def test_list_enumerates_registered_scenarios(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("grid", "speedups", "figure12", "figure13",
                     "batch_sweep", "sensitivity", "dse"):
            assert name in out

    def test_registry_only_name_runs_through_the_engine(self, capsys):
        # "dse" has no module in _EXPERIMENTS; only the registry knows it.
        assert main(["experiments", "dse"]) == 0
        assert "best: W=32, L=8" in capsys.readouterr().out

    def test_out_writes_one_row_per_cell(self, tmp_path, capsys):
        out_path = tmp_path / "rows.jsonl"
        assert main([
            "experiments", "figure12", "--out", str(out_path),
        ]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 12  # one per scheme
        import json
        first = json.loads(lines[0])
        assert set(first) == {
            "scheme", "software", "deca", "optimal", "deca_over_software"
        }
        # The reduced table still prints after the stream.
        assert "Figure 12" in capsys.readouterr().out

    def test_out_csv_gets_a_header(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        assert main(["experiments", "sensitivity", "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("constant,scale")
        assert len(lines) == 10  # header + 9 perturbations

    def test_stream_prints_rows_then_table(self, capsys):
        assert main(["experiments", "figure13", "--stream"]) == 0
        out = capsys.readouterr().out
        assert out.index('{"scheme"') < out.index("Figure 13")

    def test_progress_reports_each_cell(self, capsys):
        assert main(["experiments", "figure12", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[figure12] 1/12 cells" in err
        assert "[figure12] 12/12 cells" in err

    def test_streaming_flags_on_non_sweep_note_and_run(self, capsys):
        assert main(["experiments", "figure17", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Figure 17" in captured.out
        assert "not a registered sweep scenario" in captured.err

    def test_typo_with_out_does_not_truncate_existing_file(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "rows.jsonl"
        out_path.write_text('{"precious": "data"}\n')
        assert main([
            "experiments", "figrue12", "--out", str(out_path),
        ]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        assert out_path.read_text() == '{"precious": "data"}\n'

    def test_mixed_scenarios_in_one_csv_fail_cleanly(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        assert main([
            "experiments", "sensitivity", "figure12", "--out", str(out_path),
        ]) == 2
        assert "jsonl" in capsys.readouterr().err


class TestCacheDir:
    """The --cache-dir flag and REPRO_CACHE_DIR env fallback."""

    @pytest.fixture(autouse=True)
    def _memory_only(self, monkeypatch):
        """Isolate each test from ambient cache/env configuration."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        clear_simulation_cache()
        yield
        configure_simulation_cache_dir(None)
        clear_simulation_cache()

    def test_simulate_replays_from_warm_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "simcache")
        assert main([
            "simulate", "--scheme", "Q4", "--cache-dir", cache_dir,
        ]) == 0
        cold_out = capsys.readouterr().out
        disk = simulation_cache_disk()
        assert disk is not None and disk.entry_count() >= 1
        # "Restart": drop the memory tier, keep the directory.
        clear_simulation_cache()
        assert main([
            "simulate", "--scheme", "Q4", "--cache-dir", cache_dir,
        ]) == 0
        assert capsys.readouterr().out == cold_out
        stats = simulation_cache_stats()
        assert stats.disk_hits >= 1
        assert stats.misses == 0

    def test_experiments_accepts_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "simcache")
        assert main([
            "experiments", "figure17", "--cache-dir", cache_dir,
        ]) == 0
        assert "Figure 17" in capsys.readouterr().out
        assert simulation_cache_dir() == cache_dir
        assert simulation_cache_disk().entry_count() >= 1

    def test_dse_accepts_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "simcache")
        assert main(["dse", "--cache-dir", cache_dir]) == 0
        assert "best:" in capsys.readouterr().out
        assert simulation_cache_dir() == cache_dir

    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path / "env-simcache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["simulate", "--scheme", "Q4"]) == 0
        assert simulation_cache_dir() == cache_dir
        assert simulation_cache_disk().entry_count() >= 1

    def test_flag_overrides_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        flag_dir = str(tmp_path / "from-flag")
        assert main([
            "simulate", "--scheme", "Q4", "--cache-dir", flag_dir,
        ]) == 0
        assert simulation_cache_dir() == flag_dir

    def test_unset_flag_detaches_previous_tier(self, tmp_path, capsys):
        # Programmatic back-to-back invocations: an invocation without
        # --cache-dir must be memory-only even after one that had it.
        assert main([
            "simulate", "--scheme", "Q4",
            "--cache-dir", str(tmp_path / "simcache"),
        ]) == 0
        assert simulation_cache_dir() is not None
        assert main(["simulate", "--scheme", "Q4"]) == 0
        assert simulation_cache_dir() is None

    def test_unusable_dir_warns_and_runs_memory_only(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        assert main([
            "simulate", "--scheme", "Q4", "--cache-dir", str(blocker),
        ]) == 0
        captured = capsys.readouterr()
        assert "cycles/tile" in captured.out  # the run still happened
        assert "in-memory cache only" in captured.err
        assert simulation_cache_dir() is None

    def test_serial_run_spawns_no_worker_pool(self, tmp_path, capsys):
        from repro.experiments.parallel import (
            shutdown_worker_pool,
            worker_pool_size,
        )

        shutdown_worker_pool()
        assert main([
            "simulate", "--scheme", "Q4,Q8_5%", "--jobs", "1",
            "--cache-dir", str(tmp_path / "simcache"),
        ]) == 0
        assert worker_pool_size() == 0


class TestCachePrune:
    """The ``cache prune`` subcommand and the env byte budget."""

    @pytest.fixture(autouse=True)
    def _memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        clear_simulation_cache()
        yield
        configure_simulation_cache_dir(None)
        clear_simulation_cache()

    def _warm_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "simcache")
        assert main([
            "simulate", "--scheme", "Q4,Q8_5%", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        configure_simulation_cache_dir(None)
        return cache_dir

    def test_prune_to_zero_empties_the_dir(self, tmp_path, capsys):
        import pathlib

        cache_dir = self._warm_dir(tmp_path, capsys)
        assert len(list(pathlib.Path(cache_dir).rglob("*.pkl"))) == 2
        assert main([
            "cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "0",
        ]) == 0
        assert "pruned 2 of 2 entries" in capsys.readouterr().out
        assert list(pathlib.Path(cache_dir).rglob("*.pkl")) == []

    def test_prune_accepts_size_suffix(self, tmp_path, capsys):
        cache_dir = self._warm_dir(tmp_path, capsys)
        assert main([
            "cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "1G",
        ]) == 0
        assert "pruned 0 of 2 entries" in capsys.readouterr().out

    def test_prune_needs_a_directory_and_a_limit(self, capsys):
        assert main(["cache", "prune", "--max-bytes", "0"]) == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert main(["cache", "prune", "--cache-dir", "/tmp/x"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_rejects_malformed_size(self, tmp_path, capsys):
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-bytes", "lots",
        ]) == 2
        assert "byte size" in capsys.readouterr().err

    def test_env_budget_prunes_at_attach_time(
        self, tmp_path, capsys, monkeypatch
    ):
        import pathlib

        cache_dir = self._warm_dir(tmp_path, capsys)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        clear_simulation_cache()
        # The next cached invocation prunes the stale entries up front,
        # then runs (and re-spills) normally.
        assert main([
            "simulate", "--scheme", "Q4", "--cache-dir", cache_dir,
        ]) == 0
        captured = capsys.readouterr()
        assert "cache budget REPRO_CACHE_MAX_BYTES=0" in captured.err
        assert "cycles/tile" in captured.out
        assert len(list(pathlib.Path(cache_dir).rglob("*.pkl"))) == 1

    def test_env_fallback_for_prune_dir(self, tmp_path, capsys, monkeypatch):
        cache_dir = self._warm_dir(tmp_path, capsys)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert main(["cache", "prune"]) == 0
        assert "pruned 2 of 2 entries" in capsys.readouterr().out


class TestCacheStats:
    """The ``cache stats`` subcommand (disk-tier v2 observability)."""

    @pytest.fixture(autouse=True)
    def _memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        clear_simulation_cache()
        yield
        configure_simulation_cache_dir(None)
        clear_simulation_cache()

    def _warm_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "simcache")
        assert main([
            "simulate", "--scheme", "Q4,Q8_5%", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        configure_simulation_cache_dir(None)
        return cache_dir

    def test_stats_reports_storage_breakdown(self, tmp_path, capsys):
        cache_dir = self._warm_dir(tmp_path, capsys)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "schema generation" in out

    def test_stats_json_is_machine_readable(self, tmp_path, capsys):
        import json

        cache_dir = self._warm_dir(tmp_path, capsys)
        assert main([
            "cache", "stats", "--cache-dir", cache_dir, "--json",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {
            "root", "schema_dir", "entries", "total_bytes",
        }
        assert snapshot["entries"] == 2
        assert snapshot["total_bytes"] > 0

    def test_stats_counts_batch_committed_entries(self, tmp_path, capsys):
        from repro.sim.diskcache import DiskCache

        cache_dir = str(tmp_path / "batchcache")
        disk = DiskCache(cache_dir)
        assert disk.store_batch(
            [(("cli-stats", i), "x" * 50) for i in range(8)]
        ) == 8
        assert main([
            "cache", "stats", "--cache-dir", cache_dir, "--json",
        ]) == 0
        import json

        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["entries"] == 8
        assert snapshot["total_bytes"] == sum(
            path.stat().st_size for path in disk.schema_dir.glob("*/*.pkl")
        )

    def test_stats_needs_a_directory(self, capsys):
        assert main(["cache", "stats"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_stats_env_fallback(self, tmp_path, capsys, monkeypatch):
        cache_dir = self._warm_dir(tmp_path, capsys)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["cache", "stats"]) == 0
        assert "2 entries" in capsys.readouterr().out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_broken_pipe_exits_like_sigpipe(self):
        """`repro ... | head` must exit 141, never traceback (EPIPE).

        Runs in a subprocess: the handler redirects the real stdout fd
        to devnull, which would clobber pytest's capture in-process.
        """
        import pathlib
        import subprocess
        import sys as _sys

        script = (
            "import sys\n"
            "import repro.cli as cli\n"
            "def boom(args):\n"
            "    raise BrokenPipeError\n"
            "cli._cmd_formats = boom\n"
            "sys.exit(cli.main(['formats']))\n"
        )
        result = subprocess.run(
            [_sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=pathlib.Path(__file__).resolve().parents[1],
            timeout=60,
        )
        assert result.returncode == 141
        assert "Traceback" not in result.stderr


class TestFigures:
    def test_exports_svgs(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["figures", "--output", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("*.svg"))) == 6


@pytest.mark.skipif(
    not fork_available(),
    reason="the serve daemon's pool needs the fork start method",
)
class TestServe:
    """Lifecycle of the serve daemon, end-to-end over a subprocess."""

    @staticmethod
    def _spawn(tmp_path, *extra):
        import pathlib
        import subprocess
        import sys as _sys

        sock = str(tmp_path / "serve.sock")
        repo_root = pathlib.Path(__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve",
             "--socket", sock, "--jobs", "2", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=repo_root,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        ready = proc.stdout.readline()
        assert "listening on" in ready, f"no ready line: {ready!r}"
        return proc, sock

    @staticmethod
    def _stop(proc):
        import signal as _signal

        if proc.poll() is None:
            proc.send_signal(_signal.SIGTERM)
        try:
            return proc.wait(timeout=60), proc.stdout.read()
        except Exception:
            proc.kill()
            raise

    def test_ready_handshake_request_and_drain(self, tmp_path, capsys):
        import json
        import pathlib

        proc, sock = self._spawn(tmp_path)
        try:
            assert main(["serve-request", "--socket", sock, "--ping"]) == 0
            assert "pong" in capsys.readouterr().out

            assert main(["serve-request", "--socket", sock, "--status"]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["draining"] is False
            assert status["pool"]["width"] == 2

            assert main([
                "serve-request", "--socket", sock, "--inline",
                '{"kind": "synthetic", "cells": 3, "tag": "cli"}',
            ]) == 0
            captured = capsys.readouterr()
            rows = [json.loads(line)
                    for line in captured.out.strip().splitlines()]
            assert [row["cell"] for row in rows] == [0, 1, 2]
            assert "3 rows (computed)" in captured.err
        finally:
            rc, output = self._stop(proc)
        assert rc == 0
        assert "draining" in output and "drained" in output
        assert not pathlib.Path(sock).exists()

    def test_sigterm_finishes_in_flight_then_refuses_new(self, tmp_path):
        import signal as _signal
        import threading

        from repro.serve.client import ServeUnavailableError, connect

        proc, sock = self._spawn(tmp_path)
        rows = []
        first_row = threading.Event()

        def client() -> None:
            inline = {"kind": "synthetic", "cells": 6, "cell_s": 0.25,
                      "tag": "drain"}
            for row in connect(sock).sweep(inline=inline):
                rows.append(row)
                first_row.set()

        thread = threading.Thread(target=client)
        try:
            thread.start()
            assert first_row.wait(timeout=30), "sweep never started"
            proc.send_signal(_signal.SIGTERM)
            # The drain finishes the in-flight sweep for its client...
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert [row["cell"] for row in rows] == list(range(6))
        finally:
            rc, _ = self._stop(proc)
        assert rc == 0
        # ...and afterwards new requests are refused cleanly.
        with pytest.raises(ServeUnavailableError):
            connect(sock).ping()

    def test_stale_socket_is_cleaned_up_on_restart(self, tmp_path, capsys):
        import socket as _socket

        sock = str(tmp_path / "serve.sock")
        stale = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        stale.bind(sock)
        stale.close()  # dead listener: the file stays behind

        proc, sock = self._spawn(tmp_path)
        try:
            assert main(["serve-request", "--socket", sock, "--ping"]) == 0
            assert "pong" in capsys.readouterr().out
        finally:
            rc, _ = self._stop(proc)
        assert rc == 0

    def test_second_daemon_on_live_socket_is_refused(self, tmp_path, capsys):
        proc, sock = self._spawn(tmp_path)
        try:
            import pathlib
            import subprocess
            import sys as _sys

            repo_root = pathlib.Path(__file__).resolve().parents[1]
            second = subprocess.run(
                [_sys.executable, "-m", "repro", "serve", "--socket", sock],
                capture_output=True, text=True, timeout=60, cwd=repo_root,
                env={**os.environ, "PYTHONPATH": "src"},
            )
            assert second.returncode == 2
            assert "already serving" in second.stderr
            # The first daemon is unharmed.
            assert main(["serve-request", "--socket", sock, "--ping"]) == 0
            assert "pong" in capsys.readouterr().out
        finally:
            rc, _ = self._stop(proc)
        assert rc == 0

    def test_serve_request_without_daemon_is_a_clean_error(
        self, tmp_path, capsys
    ):
        sock = str(tmp_path / "nothing-here.sock")
        assert main(["serve-request", "--socket", sock, "--ping"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_request_rejects_ambiguous_request(self, capsys):
        assert main(["serve-request"]) == 2
        assert "exactly one" in capsys.readouterr().err
