"""Tests for the results-report assembler."""

import pytest

from repro.experiments.claims import evaluate, ledger_text
from repro.experiments.figures import FigureResult
from repro.experiments.report import (
    build_report,
    load_results,
    parse_result_file,
    render_report,
)


def write_table(tmp_path, figure_id="Fig7", labels=("Overall",),
                series=(("Naive", 1.05), ("Athena", 1.10)), notes=None):
    result = FigureResult(figure_id, "A test figure")
    for label in labels:
        result.add(label, **dict(series))
    if notes:
        result.notes = notes
    path = tmp_path / f"{figure_id}.txt"
    path.write_text(result.format_table() + "\n")
    return path


class TestParse:
    def test_roundtrip(self, tmp_path):
        path = write_table(tmp_path, labels=("Overall", "Adverse"))
        parsed = parse_result_file(path)
        assert parsed.figure_id == "Fig7"
        assert parsed.title == "A test figure"
        assert parsed.row("Overall")["Athena"] == pytest.approx(1.10)
        assert parsed.row("Adverse")["Naive"] == pytest.approx(1.05)

    def test_notes_preserved(self, tmp_path):
        path = write_table(tmp_path, notes="paper: 50.6% vs 28.1%")
        assert parse_result_file(path).notes == "paper: 50.6% vs 28.1%"

    def test_multiword_labels(self, tmp_path):
        result = FigureResult("Fig2", "Labels")
        result.add("Stateless Athena (SA)", speedup=1.01)
        path = tmp_path / "Fig2.txt"
        path.write_text(result.format_table())
        parsed = parse_result_file(path)
        assert parsed.row("Stateless Athena (SA)")["speedup"] == 1.01

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("this is not\na figure\ntable at all\n")
        with pytest.raises(ValueError):
            parse_result_file(path)

    def test_real_benchmark_outputs_parse(self):
        """Whatever the benchmarks most recently wrote must parse back."""
        import pathlib

        results_dir = (
            pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
        )
        if not results_dir.exists():
            pytest.skip("no benchmark results yet")
        loaded = load_results(results_dir)
        assert loaded, "no parseable figure tables"
        for result in loaded.values():
            assert result.rows

    def test_claims_ledger_is_not_a_figure(self, tmp_path):
        write_table(tmp_path, "Fig7",
                    labels=("Prefetcher-adverse", "Overall"),
                    series=(("POPET", 1.0), ("Naive", 1.05), ("HPAC", 1.0),
                            ("MAB", 1.0), ("Athena", 1.10)))
        verdicts = evaluate(parse_result_file(tmp_path / "Fig7.txt"))
        ledger = tmp_path / "claims.txt"
        ledger.write_text(ledger_text("", "Fig7", verdicts))
        with pytest.raises(ValueError):
            parse_result_file(ledger)
        assert list(load_results(tmp_path)) == ["Fig7"]


class TestRender:
    def test_report_contains_tables(self, tmp_path):
        write_table(tmp_path, "Fig7")
        write_table(tmp_path, "Fig14")
        report = build_report(tmp_path)
        assert "## Fig7" in report
        assert "## Fig14" in report
        assert report.index("## Fig7") < report.index("## Fig14")

    def test_report_written_to_file(self, tmp_path):
        write_table(tmp_path, "Fig7")
        out = tmp_path / "report.md"
        build_report(tmp_path, output=out)
        assert out.read_text().startswith("# Athena reproduction")

    def test_empty_directory(self, tmp_path):
        report = build_report(tmp_path)
        assert "no figure tables found" in report

    def test_numeric_figure_ordering(self, tmp_path):
        for fid in ("Fig10", "Fig2", "Fig12a"):
            write_table(tmp_path, fid)
        report = render_report(load_results(tmp_path))
        assert (report.index("## Fig2:")
                < report.index("## Fig10")
                < report.index("## Fig12a"))

