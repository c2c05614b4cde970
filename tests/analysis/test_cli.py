"""The `python -m repro.analysis` command line: exit codes and baseline IO."""

import json

import pytest

from repro.analysis.cli import (
    EXIT_BAD_BASELINE,
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_STALE,
    main,
)

BAD_SOURCE = "def seed_for(name):\n    return hash(name)\n"
CLEAN_SOURCE = "def seed_for(name):\n    return len(name)\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return path


def test_findings_exit_nonzero_with_code_and_location(bad_file, tmp_path, capsys):
    code = main([str(bad_file), "--baseline", str(tmp_path / "none.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "DET003" in out
    assert "bad.py:2" in out


def test_write_baseline_then_clean(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    assert main([str(bad_file), "--baseline", str(baseline),
                 "--write-baseline"]) == EXIT_CLEAN
    assert "TODO: justify" in baseline.read_text(encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad_file), "--baseline", str(baseline)]) == EXIT_CLEAN
    assert "1 waived" in capsys.readouterr().out


def test_stale_waiver_fails_unless_allowed(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        f"{clean.resolve()}:2: DET003  # covered code that was since fixed\n",
        encoding="utf-8",
    )
    assert main([str(clean), "--baseline", str(baseline)]) == EXIT_STALE
    assert main([str(clean), "--baseline", str(baseline),
                 "--allow-stale"]) == EXIT_CLEAN


def test_malformed_baseline_reports_distinct_exit(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("x.py:1: DET003\n", encoding="utf-8")  # no justification
    assert main([str(bad_file), "--baseline", str(baseline)]) == EXIT_BAD_BASELINE
    assert "justification" in capsys.readouterr().err


def test_json_format(bad_file, tmp_path, capsys):
    code = main([str(bad_file), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_FINDINGS
    assert payload["clean"] is False
    assert payload["findings"][0]["code"] == "DET003"
    assert payload["findings"][0]["line"] == 2


def test_sarif_format_is_valid_and_lists_the_catalogue(bad_file, tmp_path,
                                                       capsys):
    from repro.analysis.rules import RULES

    code = main([str(bad_file), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_FINDINGS
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.analysis"
    assert {rule["id"] for rule in driver["rules"]} == set(RULES)
    result = run["results"][0]
    assert result["ruleId"] == "DET003"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 2
    assert location["artifactLocation"]["uri"].endswith("bad.py")


def test_sarif_format_clean_tree_has_empty_results(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    code = main([str(clean), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_CLEAN
    assert payload["runs"][0]["results"] == []


def test_sarif_format_marks_stale_waivers_as_notes(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    main([str(bad_file), "--baseline", str(baseline), "--write-baseline"])
    bad_file.write_text(CLEAN_SOURCE, encoding="utf-8")
    capsys.readouterr()
    code = main([str(bad_file), "--baseline", str(baseline),
                 "--allow-stale", "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_CLEAN
    notes = [r for r in payload["runs"][0]["results"]
             if r["level"] == "note"]
    assert len(notes) == 1


def test_github_format_emits_workflow_annotations(bad_file, tmp_path, capsys):
    code = main([str(bad_file), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "github"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "::error file=" in out
    assert "line=2" in out
    assert "title=DET003" in out


def test_github_format_clean_tree_prints_verdict(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    code = main([str(clean), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "github"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "::error" not in out
    assert "clean" in out


def test_a_run_leaves_the_working_directory_untouched(bad_file, tmp_path,
                                                     monkeypatch):
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main([str(bad_file), "--baseline",
                 str(tmp_path / "none.txt")]) == EXIT_FINDINGS
    assert list(workdir.iterdir()) == []


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in ("DET001", "DET004", "DET007"):
        assert code in out


def test_missing_path_errors(tmp_path):
    with pytest.raises(SystemExit):
        main([str(tmp_path / "missing")])
