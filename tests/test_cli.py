"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main

GOOD = """
int N;
double a[N];
double r;

void main()
{
    #pragma acc data copyout(a)
    {
        #pragma acc kernels loop
        for (int i = 0; i < N; i++) { a[i] = (double)i; }
    }
    r = a[N - 1];
    printf("r=%f\\n", r);
}
"""

RACY = """
int N;
double a[N];
double s;

void main()
{
    for (int i = 0; i < N; i++) { a[i] = 1.0; }
    #pragma acc kernels loop
    for (int i = 0; i < N; i++) { s = s + a[i]; }
    printf("s=%f\\n", s);
}
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.c"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY)
    return str(path)


class TestCompileCommand:
    def test_lists_kernels(self, good_file, capsys):
        assert main(["compile", good_file]) == 0
        out = capsys.readouterr().out
        assert "main_kernel0" in out

    def test_show_source(self, good_file, capsys):
        main(["compile", good_file, "--show-source"])
        assert "#pragma acc kernels loop" in capsys.readouterr().out

    def test_racy_warning_without_auto_reduction(self, racy_file, capsys):
        main(["compile", racy_file, "--no-auto-reduction"])
        out = capsys.readouterr().out
        assert "RACY" in out or "warning" in out


class TestRunCommand:
    def test_runs_and_prints(self, good_file, capsys):
        assert main(["run", good_file, "-p", "N=8"]) == 0
        out = capsys.readouterr().out
        assert "r=7.0" in out
        assert "modeled time" in out

    def test_compare_sequential_ok(self, good_file, capsys):
        assert main(["run", good_file, "-p", "N=8", "--compare-sequential"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_param_rejected(self, good_file):
        with pytest.raises(SystemExit):
            main(["run", good_file, "-p", "N=abc"])


class TestVerifyCommand:
    def test_clean_program_passes(self, good_file, capsys):
        assert main(["verify", good_file, "-p", "N=16"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_race_detected(self, racy_file, capsys):
        code = main(["verify", racy_file, "-p", "N=64", "--no-auto-reduction"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_options_string(self, good_file, capsys):
        code = main([
            "verify", good_file, "-p", "N=16",
            "--options", "errorMargin=1e-6,kernels=main_kernel0",
        ])
        assert code == 0


class TestMemcheckCommand:
    def test_reports_checks(self, good_file, capsys):
        assert main(["memcheck", good_file, "-p", "N=8"]) == 0
        out = capsys.readouterr().out
        assert "dynamic coherence checks" in out

    def test_show_instrumented(self, good_file, capsys):
        main(["memcheck", good_file, "-p", "N=8", "--show-instrumented"])
        assert "__check_read" in capsys.readouterr().out

    def test_show_instrumented_appends_exact_instrumented_source(self, good_file, capsys):
        from repro.compiler import compile_source
        from repro.compiler.checkinsert import instrument_for_memverify

        main(["memcheck", good_file, "-p", "N=8"])
        plain = capsys.readouterr().out
        main(["memcheck", good_file, "-p", "N=8", "--show-instrumented"])
        shown = capsys.readouterr().out
        with open(good_file) as handle:
            compiled = compile_source(handle.read())
        source = instrument_for_memverify(compiled).compiled.to_source()
        assert shown == plain + "\n" + source + "\n"


class TestOptimizeCommand:
    def test_writes_output_file(self, tmp_path, capsys):
        src = tmp_path / "unopt.c"
        src.write_text("""
int N, ITER;
double a[N], b[N];
double r;
void main()
{
    for (int i = 0; i < N; i++) { b[i] = (double)i; }
    #pragma acc data copyin(b) copy(a)
    {
        for (int k = 0; k < ITER; k++) {
            #pragma acc kernels loop
            for (int i = 0; i < N; i++) { a[i] = b[i] + (double)k; }
            #pragma acc update host(a)
        }
    }
    r = a[0];
}
""")
        out_file = tmp_path / "opt.c"
        code = main([
            "optimize", str(src), "-p", "N=8", "-p", "ITER=3",
            "--outputs", "a,r", "-o", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        text = capsys.readouterr().out
        assert "converged=True" in text
        assert "#pragma acc" in out_file.read_text()


class TestErrorDiagnostics:
    def test_parse_error_is_one_structured_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("void main() { int x = ; }")
        assert main(["compile", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error [parse]")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_pragma_error_stage_tagged(self, tmp_path, capsys):
        bad = tmp_path / "badpragma.c"
        bad.write_text("""
int N;
double a[N];
void main()
{
    #pragma acc bogus_directive
    for (int i = 0; i < N; i++) { a[i] = 1.0; }
}
""")
        assert main(["compile", str(bad)]) == 2
        assert "repro: error [pragma]" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_cache_stats_printed(self, good_file, capsys):
        assert main(["compile", good_file, "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "compile caches" in out
        assert "parse_misses" in out
        assert "pass_misses" in out
        assert "semantics closure caches" in out
        assert "expr_hits" in out

    def test_time_passes_report(self, good_file, capsys):
        assert main(["compile", good_file, "--time-passes"]) == 0
        out = capsys.readouterr().out
        assert "pass timing" in out
        assert "kernelgen" in out
        assert "passes account for" in out

    def test_dump_after_pipeline_pass(self, good_file, capsys):
        assert main(["compile", good_file, "--dump-after", "regions"]) == 0
        assert "after pass 'regions'" in capsys.readouterr().out

    def test_dump_after_unknown_pass_rejected(self, good_file):
        with pytest.raises(SystemExit):
            main(["compile", good_file, "--dump-after", "nonsense"])


class TestExperimentsFlags:
    @staticmethod
    def _assert_rejects_sampling_before_any_job(capsys, monkeypatch,
                                                which, title):
        from repro.experiments import scheduler

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job was scheduled")

        monkeypatch.setattr(scheduler, "run_jobs", no_jobs)
        assert main(["experiments", which, "--size", "small",
                     "--sample"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro: error [sample]: {title} cannot run with phase sampling")
        assert captured.err.count("\n") == 1
        assert captured.err.count("[sample]") == 1

    def test_fig3_rejects_sampling_before_any_job(self, capsys,
                                                   monkeypatch):
        self._assert_rejects_sampling_before_any_job(
            capsys, monkeypatch, "fig3", "Figure 3")

    @pytest.mark.parametrize("which, title", [("table2", "Table II"),
                                              ("table3", "Table III")])
    def test_tables_reject_sampling_before_any_job(self, capsys,
                                                   monkeypatch, which, title):
        # Like Figure 3, Tables II and III compare real program values.
        self._assert_rejects_sampling_before_any_job(
            capsys, monkeypatch, which, title)

    def test_json_output(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "rows.json"
        code = main(["experiments", "fig1", "--size", "tiny",
                     "--json", str(json_path)])
        assert code == 0
        data = json.loads(json_path.read_text())
        assert set(data) == {"fig1"}
        assert len(data["fig1"]) == 12
        row = data["fig1"][0]
        assert row["Benchmark"] == "BACKPROP"
        assert row["Norm. total execution time"] >= 1.0

    def test_jobs_flag_rows_identical_to_sequential(self, tmp_path, capsys):
        import json

        seq_path, par_path = tmp_path / "seq.json", tmp_path / "par.json"
        assert main(["experiments", "fig1", "--size", "tiny",
                     "--json", str(seq_path)]) == 0
        seq_out = capsys.readouterr().out
        assert main(["experiments", "fig1", "--size", "tiny", "--jobs", "2",
                     "--json", str(par_path)]) == 0
        par_out = capsys.readouterr().out
        assert json.loads(seq_path.read_text()) == json.loads(par_path.read_text())
        assert seq_out.replace(str(seq_path), "X") == \
            par_out.replace(str(par_path), "X")

    def test_json_with_chaos_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["experiments", "fig1", "--size", "tiny",
                  "--chaos-seed", "0", "--json", str(tmp_path / "x.json")])

    def test_jobs_with_chaos_forced_sequential(self, capsys):
        code = main(["experiments", "fig1", "--size", "tiny",
                     "--chaos-seed", "0", "--chaos-spec", "alloc=1.0,",
                     "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ignoring --jobs" in out
        assert "under fault injection" in out


class TestChaosFlags:
    def test_chaos_seed_run_recovers(self, good_file, capsys):
        assert main(["run", good_file, "-p", "N=64", "--chaos-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "r=63.0" in out
        assert "-- chaos:" in out

    def test_chaos_spec_exhaustion_reported_as_typed_error(self, good_file, capsys):
        code = main(["run", good_file, "-p", "N=8",
                     "--chaos-spec", "alloc=1.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error [chaos]" in err
        assert "alloc.oom" in err

    def test_bad_chaos_spec_rejected(self, good_file):
        with pytest.raises(SystemExit):
            main(["run", good_file, "-p", "N=8", "--chaos-spec", "bogus=0.5"])

    def test_experiments_accept_chaos_budget(self, capsys):
        code = main(["experiments", "fig1", "--size", "tiny",
                     "--chaos-seed", "0", "--chaos-spec", "alloc=1.0,",
                     ])
        # fig1 under chaos runs isolated: the sweep itself succeeds even
        # though the budgetless alloc faulting kills individual runs.
        assert code == 0
        out = capsys.readouterr().out
        assert "under fault injection" in out
        assert "FAILED" in out
        assert "chaos:" in out


class TestProfileCommand:
    def test_reports_byte_counters_and_top_sites(self, good_file, capsys):
        assert main(["profile", good_file, "-p", "N=8"]) == 0
        out = capsys.readouterr().out
        assert "h2d bytes" in out
        assert "d2h bytes" in out
        assert "top" in out and "transfer sites" in out
        assert "a" in out

    def test_top_transfers_limits_rows(self, good_file, capsys):
        assert main(["profile", good_file, "-p", "N=8",
                     "--top-transfers", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 1 transfer sites" in out

    def test_delta_transfers_flag(self, good_file, capsys):
        assert main(["profile", good_file, "-p", "N=8",
                     "--delta-transfers", "--merge-gap", "16"]) == 0
        assert "saved" in capsys.readouterr().out

    def test_run_accepts_delta_flags(self, good_file, capsys):
        assert main(["run", good_file, "-p", "N=8", "--delta-transfers"]) == 0
        assert "transfers:" in capsys.readouterr().out


class TestTraceCommand:
    def test_tree_rendering(self, good_file, capsys):
        assert main(["trace", good_file, "-p", "N=8"]) == 0
        out = capsys.readouterr().out
        assert "compile (compiler)" in out
        assert "pass.kernelgen" in out
        assert "kernel.launch (runtime.kernel)" in out
        assert "transfer.d2h (runtime.transfer)" in out
        assert "modeled" in out

    def test_chrome_format_is_loadable_json(self, good_file, capsys):
        import json

        assert main(["trace", good_file, "-p", "N=8",
                     "--format", "chrome"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"compile", "kernel.launch", "transfer.d2h"} <= names
        assert all("ts" in e and "ph" in e for e in payload["traceEvents"])

    def test_jsonl_format(self, good_file, capsys):
        import json

        assert main(["trace", good_file, "-p", "N=8",
                     "--format", "jsonl"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        # The stream opens with a trace_context identity header record.
        assert all(r["kind"] in ("span", "event", "trace_context")
                   for r in records)
        assert any(r.get("name") == "kernel.launch" for r in records)

    def test_output_file(self, good_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", good_file, "-p", "N=8", "--format", "chrome",
                     "-o", str(out_path)]) == 0
        assert "written to" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]

    def test_chaos_events_in_trace(self, good_file, capsys):
        assert main(["trace", good_file, "-p", "N=64",
                     "--chaos-seed", "1",
                     "--chaos-spec", "transfer.transient=0.5"]) == 0
        out = capsys.readouterr().out
        assert "chaos.fault" in out
        assert "retry" in out


class TestRunObservabilityArtifacts:
    def test_trace_jsonl_and_report_files(self, good_file, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        report = tmp_path / "r.json"
        assert main(["run", good_file, "-p", "N=8",
                     "--trace", str(trace),
                     "--trace-jsonl", str(jsonl),
                     "--report", str(report)]) == 0
        captured = capsys.readouterr()
        # Artifact notices go to stderr; stdout stays the normal run output.
        assert "written to" in captured.err
        assert "written to" not in captured.out
        payload = json.loads(trace.read_text())
        assert {"compile", "kernel.launch"} <= {
            e["name"] for e in payload["traceEvents"]}
        assert all(json.loads(line)["kind"]
                   in ("span", "event", "trace_context")
                   for line in jsonl.read_text().strip().splitlines())
        from repro.obs.report import validate_report

        rep = json.loads(report.read_text())
        assert validate_report(rep) == []
        assert rep["command"] == "run"
        assert rep["launches"] == 1

    def test_traced_stdout_identical_to_untraced(self, good_file, tmp_path,
                                                 capsys):
        assert main(["run", good_file, "-p", "N=8"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", good_file, "-p", "N=8",
                     "--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        assert plain == traced

    def test_failed_run_still_writes_report(self, good_file, tmp_path,
                                            capsys):
        import json

        report = tmp_path / "r.json"
        # Rate 1.0 exhausts the retry budget: the run fails, but the report
        # is written on the error path and carries the typed error.
        assert main(["run", good_file, "-p", "N=8",
                     "--chaos-seed", "0",
                     "--chaos-spec", "transfer.transient=1.0",
                     "--report", str(report)]) == 2
        assert "repro: error" in capsys.readouterr().err
        from repro.obs.report import validate_report

        rep = json.loads(report.read_text())
        assert validate_report(rep) == []
        assert rep["error"]["type"] == "TransientFault"
        assert rep["metrics"]["counters"][
            "fault.injected.transfer.transient"] >= 1


class TestProfileJsonFormat:
    def test_json_profile_validates_and_aggregates(self, good_file, capsys):
        import json

        assert main(["profile", good_file, "-p", "N=8",
                     "--format", "json"]) == 0
        from repro.obs.report import validate_report

        rep = json.loads(capsys.readouterr().out)
        assert validate_report(rep) == []
        assert rep["command"] == "profile"
        sites = rep["transfer_sites"]
        assert sites and all(
            {"var", "site", "direction", "count", "bytes"} <= set(s)
            for s in sites)
        assert sum(s["bytes"] for s in sites) == rep["bytes"]["total"]


LOOPY = """
int N;
int T;
double a[N];

void main()
{
    for (int i = 0; i < N; i++) { a[i] = (double)i; }
    #pragma acc data copy(a)
    {
        for (int t = 0; t < T; t++) {
            #pragma acc kernels loop
            for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            #pragma acc update host(a)
        }
    }
    printf("a0=%f\\n", a[0]);
}
"""


@pytest.fixture
def loopy_file(tmp_path):
    path = tmp_path / "loopy.c"
    path.write_text(LOOPY)
    return str(path)


class TestRecoveryFlags:
    def test_chaos_fault_past_retry_budget_is_typed_error(self, loopy_file,
                                                          capsys):
        # Retries disabled, so the seeded mid-loop transfer fault is past
        # the retry budget: the run ends with its typed error, one line.
        assert main(["run", loopy_file, "-p", "N=16", "-p", "T=6",
                     "--max-retries", "0",
                     "--chaos-seed", "6",
                     "--chaos-spec", "transfer=0.25,transfer.corrupt=0.15",
                     ]) == 2
        captured = capsys.readouterr()
        assert "a0=" not in captured.out
        assert captured.err.startswith("repro: error [chaos]")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_retry_knobs_accepted(self, good_file, capsys):
        assert main(["run", good_file, "-p", "N=8",
                     "--max-retries", "5", "--backoff-base", "0.001"]) == 0
        assert "r=7.0" in capsys.readouterr().out

    def test_negative_retry_knobs_rejected(self, good_file):
        with pytest.raises(SystemExit):
            main(["run", good_file, "-p", "N=8", "--max-retries", "-1"])
        with pytest.raises(SystemExit):
            main(["run", good_file, "-p", "N=8", "--backoff-base", "-0.5"])


class TestChaosCommand:
    def test_dry_run_prints_fires_and_summary(self, capsys):
        assert main(["chaos", "--spec", "transfer=1.0", "--draws", "4"]) == 0
        out = capsys.readouterr().out
        assert "-- chaos dry-run: seed=0" in out
        assert "FIRES" in out
        assert "chaos:" in out  # plan.summary() trailer

    def test_default_spec(self, capsys):
        assert main(["chaos", "--seed", "3", "--draws", "10"]) == 0
        assert "-- probing 10 draw(s)" in capsys.readouterr().out

    def test_verbose_shows_clean_draws(self, capsys):
        assert main(["chaos", "--spec", "alloc=0.0", "--draws", "3",
                     "-v"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_budget_exhaustion_reported(self, capsys):
        assert main(["chaos", "--spec", "transfer=1.0", "--max-faults", "2",
                     "--draws", "20"]) == 0
        assert "fault budget exhausted" in capsys.readouterr().out

    def test_bad_points_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--points", "bogus"])

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--spec", "nope=1.0"])
