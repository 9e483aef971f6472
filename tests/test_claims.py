"""Tests for the paper-claims table and its evaluator."""

import ast
import pathlib

import pytest

from repro.experiments.claims import (
    CLAIMS,
    EVERY,
    FIGURES,
    LEDGER_HEADER,
    Claim,
    evaluate,
    ledger_lines,
    ledger_text,
    least,
    most,
)
from repro.experiments.figures import FigureResult

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


def figure(*rows, figure_id="FigX"):
    result = FigureResult(figure_id, "A synthetic figure")
    for label, values in rows:
        result.add(label, **values)
    return result


class TestEvaluate:
    @pytest.mark.parametrize("op, holds", [(">=", True), (">", False)])
    def test_margin_at_minus_the_bound(self, op, holds):
        result = figure(("r", {"Athena": 1.0, "Naive": 1.5}))
        (verdict,) = evaluate(
            result, (Claim("FigX", "r", "Athena", "Naive", 0.5, op),))
        (outcome,) = verdict.outcomes
        assert outcome.margin == -0.5
        assert outcome.holds is holds
        assert verdict.holds is holds

    def test_negative_bound_requires_a_lead(self):
        result = figure(("r", {"Athena": 1.25, "Naive": 1.0}))
        lead = Claim("FigX", "r", "Athena", "Naive", -0.25, ">")
        assert not evaluate(result, (lead,))[0].holds
        lead = Claim("FigX", "r", "Athena", "Naive", -0.125, ">")
        assert evaluate(result, (lead,))[0].holds

    def test_max_of_rivals_picks_the_leader(self):
        result = figure(("r", {"Athena": 1.1, "Naive": 1.3, "HPAC": 1.2}))
        claim = Claim("FigX", "r", "Athena", most("Naive", "HPAC"), 0.1)
        (verdict,) = evaluate(result, (claim,))
        (outcome,) = verdict.outcomes
        assert outcome.lhs == ("Athena", 1.1)
        assert outcome.rhs == ("Naive", 1.3)
        assert outcome.margin == pytest.approx(-0.2)
        assert not verdict.holds

    def test_min_of_named_cells_and_constants(self):
        result = figure(("a", {"x": 0.75}), ("b", {"x": 1.5}))
        claim = Claim("FigX", None, least(("a", "x"), ("b", "x"), 1.0), 0.5)
        (outcome,) = evaluate(result, (claim,))[0].outcomes
        assert outcome.row is None
        assert outcome.lhs == ("a[x]", 0.75)
        assert outcome.rhs == ("", 0.5)
        assert outcome.margin == 0.25

    def test_column_spans_every_row(self):
        result = figure(("a", {"x": 1.0}), ("b", {"x": 1.25}))
        claim = Claim("FigX", None, least((EVERY, "x")), most((EVERY, "x")),
                      0.25)
        (outcome,) = evaluate(result, (claim,))[0].outcomes
        assert outcome.lhs == ("a[x]", 1.0)
        assert outcome.rhs == ("b[x]", 1.25)
        assert outcome.holds

    @pytest.mark.parametrize("at_least, holds", [(2, True), (3, False)])
    def test_at_least_k_of_n_rows(self, at_least, holds):
        result = figure(("a", {"Athena": 1.2, "Naive": 1.0}),
                        ("b", {"Athena": 0.9, "Naive": 1.0}),
                        ("c", {"Athena": 1.0, "Naive": 1.0}))
        claim = Claim("FigX", EVERY, "Athena", "Naive", at_least=at_least)
        (verdict,) = evaluate(result, (claim,))
        assert [o.holds for o in verdict.outcomes] == [True, False, True]
        assert verdict.holds is holds
        assert ledger_lines([verdict])[-1].split()[1:] == [
            "2", "of", "3", "rows", "hold,", "needs", str(at_least),
            "holds" if holds else "FAILS"]

    def test_every_row_without_at_least_needs_all(self):
        result = figure(("a", {"Athena": 1.2}), ("b", {"Athena": 0.9}))
        claim = Claim("FigX", EVERY, "Athena", 1.0)
        assert not evaluate(result, (claim,))[0].holds

    def test_only_the_figures_claims(self):
        result = figure(("Overall", {"Athena": 1.0}), figure_id="Fig7")
        assert evaluate(result, (Claim("Fig9", "Overall", "Athena", 1.0),
                                 Claim("Fig7", "Overall", "Athena", 1.0))
                        )[0].claim.figure == "Fig7"

    def test_missing_row_raises(self):
        claim = Claim("FigX", "Overall", "Athena", 1.0)
        with pytest.raises(KeyError):
            evaluate(figure(("r", {"Athena": 1.0})), (claim,))


class TestTable:
    def test_claims_are_well_formed(self):
        for claim in CLAIMS:
            assert claim.op in (">=", ">"), claim
            assert claim.at_least is None or claim.rows == EVERY, claim

    def test_no_benchmark_defines_a_tolerance(self):
        names = []
        for path in sorted(BENCHMARKS.glob("test_*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(
                               node, (ast.AnnAssign, ast.AugAssign))
                           else [])
                names += [f"{path.name}: {target.id}" for target in targets
                          if isinstance(target, ast.Name)
                          and target.id.upper().endswith("TOL")]
        assert not names, names


class TestLedger:
    def test_replaces_one_figure_and_keeps_table_order(self):
        first, second = FIGURES[0], FIGURES[1]
        text = ledger_text("", second, [])
        assert text.splitlines() == list(LEDGER_HEADER)

        synthetic = (Claim(first, "r", "x", 1.0),)
        one = evaluate(figure(("r", {"x": 2.0}), figure_id=first), synthetic)
        two = evaluate(figure(("r", {"x": 0.5}), figure_id=second),
                       (Claim(second, "r", "x", 1.0),))
        text = ledger_text(ledger_text("", second, two), first, one)
        body = text.splitlines()[len(LEDGER_HEADER):]
        assert [line.split()[0] for line in body] == [first, second]
        assert body[0].endswith("holds") and body[1].endswith("FAILS")

        again = evaluate(figure(("r", {"x": 0.25}), figure_id=first),
                         synthetic)
        body = ledger_text(text, first, again).splitlines()[
            len(LEDGER_HEADER):]
        assert len(body) == 2
        assert body[0].endswith("FAILS") and body[1] == \
            text.splitlines()[-1]

    def test_committed_ledger_lists_known_figures(self):
        ledger = BENCHMARKS / "results" / "claims.txt"
        if not ledger.exists():
            pytest.skip("no claims ledger yet")
        lines = ledger.read_text().splitlines()
        assert tuple(lines[:len(LEDGER_HEADER)]) == LEDGER_HEADER
        assert {line.split()[0] for line in lines[len(LEDGER_HEADER):]} <= \
            set(FIGURES)
