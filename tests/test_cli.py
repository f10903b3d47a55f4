import json
import subprocess
import sys

import pytest

from fuzzyarith.cli import (
    CorrelationSpec,
    FuzzyLiteral,
    Operation,
    ParseError,
    evaluate,
    format_expression,
    main,
    parse_expression,
)


def test_parse_operator_expression():
    node = parse_expression("corr_sum(tri(1,2,3), negation)")
    assert node == Operation("corr_sum", (FuzzyLiteral("tri", (1.0, 2.0, 3.0)),
                                          CorrelationSpec("negation", ())))


def test_parse_accepts_whitespace_and_signs():
    node = parse_expression("  std_sum( tri(-2, 0, 1) ,  tri(1, 2e0, 3.5) ) ")
    assert node.name == "std_sum"
    assert node.operands[1].args == (1.0, 2.0, 3.5)


def test_parse_bare_and_parenthesized_correlation_names():
    a = parse_expression("corr_prod(tri(1,2,3), identity)")
    b = parse_expression("corr_prod(tri(1,2,3), identity())")
    assert a == b


def test_format_round_trips():
    texts = [
        "corr_sum(tri(1,2,3), negation)",
        "std_prod(trap(0,1,2,4), crisp(2))",
        "induced(tri(-2,0,1), hyperbolic(4,0))",
        "corr_prod(tri(1,2,3), linear(2,1))",
        "tri(1.5,2.5,3.5)",
    ]
    for text in texts:
        node = parse_expression(text)
        assert parse_expression(format_expression(node)) == node


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position"):
        parse_expression("corr_sum(tri(1,2,3) negation)")
    with pytest.raises(ParseError, match="position"):
        parse_expression("tri(1,2,3))")
    with pytest.raises(ParseError, match="position"):
        parse_expression("tri(1,2,3")
    with pytest.raises(ParseError, match="position"):
        parse_expression("corr_sum(tri(1,2,3), ?)")


def test_parse_rejects_wrong_shapes():
    with pytest.raises(ParseError):
        parse_expression("frob(1,2)")
    with pytest.raises(ParseError):
        parse_expression("tri(1,2)")
    with pytest.raises(ParseError):
        parse_expression("std_sum(tri(1,2,3), identity)")
    with pytest.raises(ParseError):
        parse_expression("corr_sum(tri(1,2,3), tri(1,2,3))")
    with pytest.raises(ParseError):
        parse_expression("corr_sum(std_sum(tri(1,2,3), tri(1,2,3)), identity)")
    with pytest.raises(ParseError):
        parse_expression("corr_sum(1, identity)")
    with pytest.raises(ParseError):
        parse_expression("")


def test_evaluate_rejects_correlation_alone():
    with pytest.raises(ValueError):
        evaluate(parse_expression("negation"), 100)


def test_evaluate_fuzzy_literal_honors_grid():
    fn = evaluate(parse_expression("tri(1,2,3)"), 10)
    assert fn.k == 10
    assert fn.support.lo == 1.0 and fn.support.hi == 3.0


def test_eval_table_output_exact(capsys):
    rc = main(["eval", "-e", "corr_sum(tri(1,2,3), negation)", "--alphas", "0,0.5,1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [
        "alpha\tlevel",
        "0\t[0, 0]",
        "0.5\t[0, 0]",
        "1\t[0, 0]",
    ]


def test_eval_csv_output_exact(capsys):
    rc = main(["eval", "-e", "std_sum(tri(1,2,3), tri(3,5,7))", "--format", "csv",
               "--alphas", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["alpha,lo,hi", "0,4,10"]


def test_eval_json_output_schema(capsys):
    rc = main(["eval", "-e", "induced(tri(1,2,3), linear(2,1))", "--format", "json",
               "--grid", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    body = json.loads(out)
    assert body["expr"] == "induced(tri(1,2,3), linear(2,1))"
    assert body["K"] == 4
    assert len(body["levels"]) == 5
    assert body["levels"][0] == {"alpha": 0.0, "lo": 3.0, "hi": 7.0}
    assert body["levels"][-1] == {"alpha": 1.0, "lo": 5.0, "hi": 5.0}


def test_eval_grid_controls_row_count(capsys):
    rc = main(["eval", "-e", "tri(1,2,3)", "--grid", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(out.splitlines()) == 6  # header + 5 levels


def test_table_compares_against_closed_form_and_standard(capsys):
    rc = main(["table", "-e", "corr_prod(tri(-2,0,1), identity)", "--alphas", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [
        "alpha\tengine\tclosed_form\tstandard",
        "0\t[0, 4]\t[0, 4]\t[-2, 4]",
    ]


def test_table_marks_missing_closed_form(capsys):
    rc = main(["table", "-e", "corr_sum(tri(1,2,3), hyperbolic(4,0))", "--alphas", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    line = out.splitlines()[1]
    assert line.startswith("0\t[4, 5]\t-\t")


def test_check_emits_level_rows_and_summary(capsys):
    rc = main(["check", "-e", "corr_sum(tri(1,2,3), hyperbolic(4,0))", "--grid", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6  # 5 level rows + summary
    row = json.loads(lines[0])
    assert set(row) == {"alpha", "engine", "oracle", "hausdorff", "minkowski"}
    summary = json.loads(lines[-1])
    assert set(summary) == {"op", "n", "tolerance", "max_hausdorff", "passed"}
    assert summary["passed"] is True
    assert summary["n"] == 2001


def test_check_exit_code_on_tolerance_failure(capsys):
    rc = main(["check", "-e", "corr_prod(tri(0,0.001,2), linear(2,1))",
               "--oracle-n", "101"])
    out = capsys.readouterr().out
    assert rc == 3
    assert json.loads(out.splitlines()[-1])["passed"] is False


def test_check_requires_correlated_expression(capsys):
    rc = main(["check", "-e", "std_sum(tri(1,2,3), tri(1,2,3))"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "corr_sum" in err or "correlated" in err


def test_parse_error_exit_code(capsys):
    rc = main(["eval", "-e", "corr_sum(tri(1,2,3) negation)"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "position" in err


def test_validation_error_exit_code(capsys):
    rc = main(["eval", "-e", "tri(3,2,1)"])
    assert rc == 1
    rc = main(["eval", "-e", "corr_sum(tri(1,2,3), linear(0,1))"])
    assert rc == 1
    rc = main(["eval", "-e", "tri(1,2,3)", "--alphas", "1.5"])
    assert rc == 1
    capsys.readouterr()


def test_domain_error_exit_code(capsys):
    rc = main(["eval", "-e", "corr_sum(tri(-1,0,1), hyperbolic(4,0))"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "zero" in err or "domain" in err.lower()


def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 1  # missing -e
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyarith", "eval", "-e", "tri(1,2,3)",
         "--format", "csv", "--alphas", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["alpha,lo,hi", "1,2,2"]


def test_overflow_names_operator_and_level_without_numpy_warnings():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyarith", "eval", "-e",
         "std_prod(tri(1e200,1e200,1e200), tri(1e200,1e200,1e200))"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "std_prod" in lines[0]
    assert "alpha 0 " in lines[0]
