"""End-to-end CLI behaviour of ``repro-bench`` (list / run / compare / report)."""

import json

import pytest

from repro.bench.cli import main

FAST_SCENARIO = "figure1_knowledge_analysis"


@pytest.fixture
def completed_run(tmp_path):
    run_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--suite",
            "smoke",
            "--scenario",
            FAST_SCENARIO,
            "--run-dir",
            str(run_dir),
            "--write-baseline",
            str(tmp_path / "BENCH_test.json"),
        ]
    )
    assert code == 0
    return run_dir, tmp_path / "BENCH_test.json"


class TestList:
    def test_lists_all_scenarios(self, capsys):
        assert main(["list", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert FAST_SCENARIO in out
        assert "serving" in out

    def test_group_filter(self, capsys):
        assert main(["list", "--suite", "smoke", "--group", "perf"]) == 0
        out = capsys.readouterr().out
        assert "obs_overhead" in out
        assert FAST_SCENARIO not in out

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            main(["list", "--group", "nope"])


class TestRun:
    def test_run_writes_store_and_baseline(self, completed_run):
        run_dir, baseline_path = completed_run
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "summary.json").is_file()
        records = list((run_dir / FAST_SCENARIO).glob("*.json"))
        assert len(records) == 2  # one per relevant fraction
        baseline = json.loads(baseline_path.read_text())
        assert FAST_SCENARIO in baseline["scenarios"]

    def test_rerun_is_fully_cached(self, completed_run, capsys):
        run_dir, _ = completed_run
        assert (
            main(["run", "--suite", "smoke", "--scenario", FAST_SCENARIO,
                  "--run-dir", str(run_dir)])
            == 0
        )
        assert ", 0 to run," in capsys.readouterr().out


class TestCompare:
    def test_self_compare_passes(self, completed_run):
        run_dir, baseline_path = completed_run
        assert (
            main(["compare", "--run-dir", str(run_dir), "--baseline", str(baseline_path)]) == 0
        )

    def test_injected_regression_fails(self, completed_run):
        run_dir, baseline_path = completed_run
        doc = json.loads(baseline_path.read_text())
        metrics = doc["scenarios"][FAST_SCENARIO]["metrics"]
        metrics["prob_size5_frac5"] = metrics["prob_size5_frac5"] + 10.0
        inflated = baseline_path.with_name("BENCH_inflated.json")
        inflated.write_text(json.dumps(doc))
        assert (
            main(["compare", "--run-dir", str(run_dir), "--baseline", str(inflated)]) == 1
        )

    def test_missing_summary_is_usage_error(self, tmp_path):
        assert (
            main(["compare", "--run-dir", str(tmp_path / "empty"),
                  "--baseline", str(tmp_path / "nope.json")])
            == 2
        )


class TestReport:
    def test_report_prints_and_writes_tables(self, completed_run, capsys, tmp_path):
        run_dir, _ = completed_run
        out_dir = tmp_path / "tables"
        assert main(["report", "--run-dir", str(run_dir), "--output", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert FAST_SCENARIO in out
        assert (out_dir / ("%s.md" % FAST_SCENARIO)).is_file()
        assert (out_dir / "README.md").is_file()

    def test_report_without_summary_is_usage_error(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path / "empty")]) == 2
