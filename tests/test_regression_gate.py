"""Tests for the regression gate's skip reporting, ratio ceilings and
record-only anchors.

CI asserts skip *reasons* (e.g. the 1-CPU parallel-scaling skip) off a
machine-readable JSON line rather than grepping prose, and the socket
executor's overhead/dedup anchors are gated by ratio *ceilings* — the
mirror image of the long-standing ratio floors.
"""

import json

import pytest

from benchmarks.perf import check_regression


@pytest.fixture()
def report(tmp_path):
    """A minimal recorded report with the parallel-scaling anchor."""
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({
        "benchmarks": {
            "figure12_sweep_parallel": {
                "after_s": 1.0,
                "parallel_speedup_4w": 2.0,
                "cpu_count": 4.0,
            },
        },
    }))
    return path


def test_skipped_gates_emitted_as_json(report, monkeypatch, capsys):
    recorded = json.loads(report.read_text())["benchmarks"]
    monkeypatch.setattr(check_regression, "run_benchmarks",
                        lambda repeats: recorded)
    monkeypatch.setattr(check_regression.os, "cpu_count", lambda: 1)
    assert check_regression.main(["--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [line for line in lines if line.startswith("{")]
    assert len(payloads) == 1
    skipped = json.loads(payloads[0])["skipped_gates"]
    assert len(skipped) == 1
    assert "1 CPU" in skipped[0]
    # The human-readable line still prints alongside the JSON record.
    assert any(line.startswith("skipped gate:") for line in lines)


def test_skipped_gates_empty_when_nothing_skipped(report, monkeypatch,
                                                  capsys):
    recorded = json.loads(report.read_text())["benchmarks"]
    monkeypatch.setattr(check_regression, "run_benchmarks",
                        lambda repeats: recorded)
    monkeypatch.setattr(check_regression.os, "cpu_count", lambda: 4)
    assert check_regression.main(["--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [line for line in lines if line.startswith("{")]
    assert json.loads(payloads[0]) == {"skipped_gates": []}


def test_ratio_ceilings_flag_overhead_blowups():
    recorded = {
        "remote_dispatch_overhead": {
            "after_s": 1.0, "dispatch_overhead_ratio": 1.4,
        },
        "remote_delta_dedup": {
            "after_s": 1.0, "warm_shard_bytes_ratio": 0.0,
        },
    }
    # Within the ceilings: no failures.
    fresh = {
        "remote_dispatch_overhead": {
            "after_s": 1.0, "dispatch_overhead_ratio": 1.9,
        },
        "remote_delta_dedup": {
            "after_s": 1.0, "warm_shard_bytes_ratio": 0.05,
        },
    }
    assert check_regression._ratio_ceiling_failures(recorded, fresh) == []
    # Above them: both anchors flagged, and a vanished measurement is a
    # failure rather than a silent pass.
    fresh = {
        "remote_dispatch_overhead": {
            "after_s": 1.0, "dispatch_overhead_ratio": 2.5,
        },
        "remote_delta_dedup": {"after_s": 1.0},
    }
    failures = check_regression._ratio_ceiling_failures(recorded, fresh)
    assert len(failures) == 2
    assert any("above the 2.00 ceiling" in f for f in failures)
    assert any("disappeared" in f for f in failures)


def test_record_only_anchor_is_never_gated():
    # The end-to-end CLI wall time is machine-bound with nothing in the
    # run to normalize it by, so even a 3x slower fresh run passes.
    recorded = {"e2e_cli_figure12": {"after_s": 0.4, "import_share": 0.6}}
    fresh = {"e2e_cli_figure12": {"after_s": 1.2, "import_share": 0.9}}
    assert check_regression.compare(recorded, fresh, 0.25) == []
    # A gated anchor with the same numbers is flagged.
    recorded = {"figure12_sweep": {"after_s": 0.4}}
    fresh = {"figure12_sweep": {"after_s": 1.2}}
    assert len(check_regression.compare(recorded, fresh, 0.25)) == 1


def test_recorded_report_meets_its_own_ratio_gates():
    # The checked-in BENCH_perf.json is the reference every fresh run is
    # compared against; a recorded ratio already outside its own floor
    # or ceiling makes the gate red before any code changes.
    recorded = json.loads(
        check_regression.DEFAULT_OUTPUT.read_text()
    )["benchmarks"]
    gates = [
        (name, field, limit, "floor")
        for name, (field, limit, _) in check_regression.RATIO_FLOORS.items()
    ] + [
        (name, field, limit, "ceiling")
        for name, (field, limit, _) in check_regression.RATIO_CEILINGS.items()
    ]
    for name, field, limit, kind in gates:
        assert name in recorded, f"{name} is gated but not recorded"
        value = recorded[name][field]
        if kind == "floor":
            assert value >= limit, f"{name}: {field} {value} < {limit}"
        else:
            assert value <= limit, f"{name}: {field} {value} > {limit}"
