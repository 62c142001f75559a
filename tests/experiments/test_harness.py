"""Experiment-harness tests (runner helpers + table renderer) and fast
smoke tests of each experiment at tiny size."""

import json

import pytest

from repro.bench import get
from repro.experiments import fig1, fig4, table2
from repro.experiments.harness import (
    RunOutcome,
    render_table,
    rows_to_dicts,
    run_variant,
    run_variant_isolated,
)


class TestRunVariant:
    def test_optimized_variant(self):
        run = run_variant(get("JACOBI"), "optimized", "tiny")
        assert run.runtime.device.total_transferred_bytes() > 0

    def test_sequential_variant_uses_no_device(self):
        run = run_variant(get("JACOBI"), "sequential", "tiny")
        assert run.runtime.device.total_transferred_bytes() == 0

    def test_naive_variant_strips_management(self):
        naive = run_variant(get("JACOBI"), "naive", "tiny")
        opt = run_variant(get("JACOBI"), "optimized", "tiny")
        assert (
            naive.runtime.device.total_transferred_bytes()
            > opt.runtime.device.total_transferred_bytes()
        )

    def test_unknown_variant_rejected_with_valid_names(self):
        with pytest.raises(ValueError) as exc:
            run_variant(get("JACOBI"), "bogus", "tiny")
        message = str(exc.value)
        assert "bogus" in message
        for name in ("optimized", "unoptimized", "naive", "sequential"):
            assert name in message


class TestRenderTable:
    def test_renders_headers_and_rows(self):
        text = render_table(["A", "B"], [["x", 1.5], ["y", 2.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[2] and "B" in lines[2]
        assert any("1.5" in l for l in lines)

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456]])
        assert "0.123" in text

    def test_empty_rows(self):
        text = render_table(["A"], [])
        assert "A" in text

    def test_rows_to_dicts(self):
        out = rows_to_dicts(["a", "b"], [[1, 2]])
        assert out == [{"a": 1, "b": 2}]

    def test_rows_to_dicts_preserves_row_order(self):
        out = rows_to_dicts(["n"], [[3], [1], [2]])
        assert [d["n"] for d in out] == [3, 1, 2]


class TestRunOutcome:
    def test_describe_ok(self):
        outcome = RunOutcome("JACOBI", "optimized", True)
        assert outcome.describe() == "JACOBI/optimized: ok"

    def test_describe_failure_names_stage_and_type(self):
        outcome = RunOutcome(
            "LUD", "naive", False, error_type="DeviceError",
            error_stage="runtime", error="boom",
        )
        text = outcome.describe()
        assert "LUD/naive: FAILED" in text
        assert "[runtime]" in text
        assert "DeviceError" in text
        assert "boom" in text

    def test_stripped_drops_interp_and_pickles(self):
        import pickle

        outcome = run_variant_isolated(get("JACOBI"), "optimized", "tiny")
        assert outcome.ok and outcome.interp is not None
        slim = outcome.stripped()
        assert slim.interp is None
        assert slim.bench == outcome.bench
        assert slim.wall_seconds == outcome.wall_seconds
        round_trip = pickle.loads(pickle.dumps(slim))
        assert round_trip.describe() == outcome.describe()


class TestOutcomeReport:
    """``report_path`` leaves a RunReport behind on every exit path."""

    def test_report_written_on_timeout_path(self, tmp_path):
        report_path = tmp_path / "report.json"
        outcome = run_variant_isolated(
            get("JACOBI"), "unoptimized", size="small", seed=1,
            timeout_s=1e-4, report_path=str(report_path))
        assert not outcome.ok and outcome.error_stage == "timeout"
        report = json.loads(report_path.read_text())
        assert report["error"]["type"] == "TimeoutError"
        assert report["outcome"]["error_stage"] == "timeout"

    def test_report_written_on_crash_path(self, tmp_path, monkeypatch):
        from repro.experiments import harness

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "run_variant", crash)
        report_path = tmp_path / "report.json"
        outcome = run_variant_isolated(
            get("JACOBI"), "unoptimized", size="tiny", seed=1,
            report_path=str(report_path))
        assert not outcome.ok and outcome.error_stage == "internal"
        report = json.loads(report_path.read_text())
        assert report["error"]["type"] == "RuntimeError"
        assert report["outcome"]["error_stage"] == "internal"

    def test_report_written_on_success_path(self, tmp_path):
        report_path = tmp_path / "report.json"
        outcome = run_variant_isolated(
            get("JACOBI"), "unoptimized", size="tiny", seed=1,
            report_path=str(report_path))
        assert outcome.ok
        report = json.loads(report_path.read_text())
        assert report["error"] is None
        assert report["outcome"]["ok"] is True


class TestExperimentSmoke:
    """Tiny-size smoke runs: each experiment produces well-formed rows."""

    def test_fig1_tiny(self):
        rows = fig1.run("tiny")
        assert len(rows) == 12 and all(r.norm_bytes >= 1.0 for r in rows)

    def test_fig4_tiny(self):
        rows = fig4.run("tiny")
        assert len(rows) == 12 and all(r.check_calls > 0 for r in rows)

    def test_table2_tiny(self):
        result = table2.run("tiny")
        assert result.tested_kernels == 46
        assert result.active_errors_detected == 4
        assert result.latent_errors_undetected == 16

    def test_experiment_mains_print(self, capsys):
        fig1.main("tiny")
        assert "Figure 1" in capsys.readouterr().out
