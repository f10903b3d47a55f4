import contextlib
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyarith import cli
from fuzzyarith.arithmetic import (correlated_product, correlated_sum, standard_product,
                                   standard_sum)
from fuzzyarith.cli import (
    MAX_GRID_K,
    MAX_ORACLE_N,
    OPERATORS,
    ParseError,
    evaluate,
    main,
    parse_expression,
)
from fuzzyarith.correlation import CORRELATIONS, induced_number
from fuzzyarith.fuzzy import SHAPES


def test_parse_operator_expression():
    node = parse_expression("corr_sum(tri(1,2,3), negation)")
    assert node == {"corr_sum": [{"tri": [1.0, 2.0, 3.0]}, "negation"]}


def test_parse_accepts_whitespace_and_signs():
    node = parse_expression("  std_sum( tri(-2, 0, 1) ,  tri(1, 2e0, 3.5) ) ")
    assert node == {"std_sum": [{"tri": [-2.0, 0.0, 1.0]}, {"tri": [1.0, 2.0, 3.5]}]}


def test_parse_bare_and_parenthesized_correlation_names():
    a = parse_expression("corr_prod(tri(1,2,3), identity)")
    b = parse_expression("corr_prod(tri(1,2,3), identity())")
    assert a == b


_FINITE = st.floats(-1e3, 1e3, allow_nan=False)
_LIBRARY_OPS = {"std_sum": standard_sum, "std_prod": standard_product,
                "corr_sum": correlated_sum, "corr_prod": correlated_product,
                "induced": induced_number}


def _outcome(call):
    try:
        return call()
    except ValueError as e:
        return type(e), str(e)


@st.composite
def _expressions(draw):
    """(text, JSON form, outcome of the library called directly on a grid of
    K steps) for a random literal, correlation or operator expression, its
    numbers finite floats written by repr."""
    def term(names):
        name = draw(st.sampled_from(sorted(names)))
        make, count = names[name]
        args = draw(st.lists(_FINITE, min_size=count, max_size=count))
        if names is SHAPES:
            args.sort()
            return f"{name}({', '.join(map(repr, args))})", {name: args}, \
                lambda K: make(*args, grid=K)
        if not count:
            return name + draw(st.sampled_from(["", "()"])), name, lambda K: make()
        return f"{name}({', '.join(map(repr, args))})", {name: args}, lambda K: make(*args)

    kind = draw(st.sampled_from(["literal", "correlation", *OPERATORS]))
    if kind == "literal":
        return term(SHAPES)
    if kind == "correlation":
        text, node, _ = term(CORRELATIONS)
        return text, node, lambda K: (ValueError,
                                      "a correlation function is not a fuzzy value by itself")
    (t1, n1, build1), (t2, n2, build2) = term(SHAPES), term(
        SHAPES if kind.startswith("std_") else CORRELATIONS)

    def direct(K):
        a, b = build1(K), build2(K)
        outcome = _outcome(lambda: _LIBRARY_OPS[kind](a, b))
        # an error raised while applying an operator is prefixed with its name
        return outcome if not isinstance(outcome, tuple) else (outcome[0],
                                                               f"{kind}: {outcome[1]}")
    return f"{kind}({t1}, {t2})", {kind: [n1, n2]}, direct


@settings(max_examples=200, deadline=None)
@given(_expressions(), st.sampled_from([1, 2, 7, 100]))
def test_parse_and_evaluate_match_the_library_called_directly(expression, K):
    text, node, direct = expression
    assert parse_expression(text) == node
    assert _outcome(lambda: evaluate(parse_expression(text), K)) == _outcome(lambda: direct(K))


PARSE_ERRORS = [
    ("corr_sum(tri(1,2,3) negation)", "expected ',', found 'negation' at position 20"),
    ("tri(1,2,3))", "unexpected trailing input ')' at position 10"),
    ("tri(1,2,3", "expected ',' or ')', found end of input at position 9"),
    ("corr_sum(tri(1,2,3), ?)", "unexpected character '?' at position 21"),
    ("frob(1,2)", "unknown function 'frob' at position 0"),
    ("tri(1,2)", "'tri' takes 3 arguments, got 2 at position 0"),
    ("std_sum(tri(1,2,3), identity)", "'std_sum' needs two fuzzy literals at position 0"),
    ("corr_sum(tri(1,2,3), tri(1,2,3))",
     "'corr_sum' needs a correlation function as its second operand at position 0"),
    ("corr_sum(std_sum(tri(1,2,3), tri(1,2,3)), identity)",
     "'corr_sum' needs a fuzzy literal as its first operand at position 0"),
    ("corr_sum(1, identity)", "expected a function name, found '1' at position 9"),
    ("", "expected a function name, found end of input at position 0"),
    ("tri(a,2,3)", "'tri' takes numeric arguments, found 'a' at position 4"),
    ("tri(1,2,", "'tri' takes numeric arguments, found end of input at position 8"),
    ("identity(1)", "expected ')' (identity takes no arguments), found '1' at position 9"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert str(info.value) == message
    assert info.value.pos == int(message.rpartition(" ")[2])


@pytest.mark.parametrize("text, message", [
    ("corr_sum(" * 3000, "'corr_sum' needs a fuzzy literal as its first operand at position 0"),
    ("corr_prod(tri(1,2,3), " * 3000,
     "'corr_prod' needs a correlation function as its second operand at position 0"),
    ("std_prod(tri(1,2,3), corr_sum(frob(1)", "'std_prod' needs two fuzzy literals at position 0"),
    ("  induced(identity, corr_sum(", "'induced' needs a correlation function as its "
                                      "second operand at position 2"),
], ids=["deep-first-operand", "deep-second-operand", "nested-in-std", "after-a-correlation"])
def test_an_operator_as_an_operand_is_rejected_where_its_name_is_read(text, message):
    # the parser never descends into the operand, however deep it nests
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert str(info.value) == message


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


def test_eval_sums_a_shape_that_rounds_at_its_core(capsys):
    assert main(["eval", "-e", "std_sum(tri(-100000, 50000.7, 100000), tri(1, 2, 3))",
                 "--alphas", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1\t[50002.7")


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


def test_module_entry_point_prints_the_readme_rows_and_exits_with_the_cli_code():
    run = lambda *argv: subprocess.run([sys.executable, "-m", "fuzzyarith", *argv],
                                       capture_output=True, text=True)
    rows = run("eval", "-e", "corr_sum(tri(1,2,3), negation)", "--alphas", "0,0.5,1")
    assert (rows.returncode, rows.stderr) == (0, "")
    assert rows.stdout == "alpha\tlevel\n0\t[0, 0]\n0.5\t[0, 0]\n1\t[0, 0]\n"
    bad = run("eval", "-e", "corr_sum(tri(1,2,3) negation)")
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr == "fuzzyarith: expected ',', found 'negation' at position 20\n"


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


@pytest.mark.parametrize("command", ["check", "table"])
def test_domain_error_names_operator(command, capsys):
    rc = main([command, "-e", "corr_sum(tri(-1,0,1), hyperbolic(4,0))"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "fuzzyarith: domain error: corr_sum: hyperbolic correlation is undefined "
        "across zero, got interval [-1, 1]\n")


@pytest.mark.parametrize("argv, err", [
    (["eval", "-e", "corr_sum(tri(1,2,3), linear(1e309, 0))"],
     "fuzzyarith: linear correlation needs a finite q, got inf\n"),
    (["check", "-e", "corr_sum(tri(1, 1.000000000000001, 1.000000000000002), linear(2,1))",
      "--grid", "10"],
     "fuzzyarith: corr_sum: support [1.0, 1.000000000000002] is too narrow for "
     "n = 2001 distinct samples\n"),
    (["table", "-e", "corr_sum(tri(1,2,3), identity)", "--grid", "0"],
     "fuzzyarith: grid size must be at least 1, got 0\n"),
])
def test_validation_error_names_the_cause(argv, err, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, err", [
    (["eval", "-e", "corr_sum(negation, tri(1,2,3))"],
     "fuzzyarith: 'corr_sum' needs a fuzzy literal as its first operand at position 0\n"),
    (["eval", "-e", "tri(1,2,3)", "--alphas", ","], "fuzzyarith: empty alpha list\n"),
], ids=["correlation-first", "no-alphas"])
def test_rejected_input_exits_1_naming_the_cause(argv, err, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, alpha", [
    (["eval", "-e", "tri(1,2,3)", "--alphas", "1.5"], "1.5"),
    (["table", "-e", "corr_sum(tri(1,2,3), identity)", "--alphas", "-0.1"], "-0.1"),
])
def test_an_alpha_outside_the_unit_interval_exits_1_before_any_output(argv, alpha, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"fuzzyarith: alpha must lie in [0, 1], got {alpha}\n")


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=reject)


def test_check_prints_strict_json_where_the_termwise_reading_passes_the_float_range(capsys):
    rc = main(["check", "-e", "corr_sum(tri(0.1, 1, 1e308), hyperbolic(1e307, 0))",
               "--grid", "2"])
    # the verdict is the oracle's; the output must parse either way
    assert rc in (0, 3)
    rows = [_strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 4 and not any("minkowski" in row for row in rows)


def test_empty_entries_of_an_alpha_list_are_skipped(capsys):
    assert main(["eval", "-e", "tri(1,2,3)", "--alphas", "0,,1"]) == 0
    assert capsys.readouterr() == ("alpha\tlevel\n0\t[1, 3]\n1\t[2, 2]\n", "")


class _Reached(ValueError):
    pass


def _stub(record):
    def call(*args, **kwargs):
        record.append((args, kwargs))
        raise _Reached("stub reached")
    return call


@pytest.mark.parametrize("argv", [
    ["eval", "-e", "crisp(1)"],
    ["table", "-e", "corr_sum(tri(1,2,3), identity)"],
    ["check", "-e", "corr_sum(tri(1,2,3), identity)"],
])
def test_grid_cap_is_checked_before_any_array(argv, monkeypatch, capsys):
    grids = []
    monkeypatch.setattr(cli, "_grid_size", _stub(grids))
    assert main(argv + ["--grid", str(MAX_GRID_K)]) == 1
    assert grids == [((MAX_GRID_K,), {})]
    assert capsys.readouterr().err == "fuzzyarith: stub reached\n"
    assert main(argv + ["--grid", str(MAX_GRID_K + 1)]) == 1
    assert grids == [((MAX_GRID_K,), {})]
    assert capsys.readouterr().err == (
        f"fuzzyarith: --grid {MAX_GRID_K + 1} exceeds the cap of {MAX_GRID_K}\n")


def test_oracle_n_cap_is_checked_before_any_array(monkeypatch, capsys):
    calls, grids = [], []
    monkeypatch.setattr(cli, "oracle_check", _stub(calls))
    argv = ["check", "-e", "corr_sum(tri(1,2,3), identity)", "--grid", "2", "--oracle-n"]
    assert main(argv + [str(MAX_ORACLE_N)]) == 1
    assert calls[0][1] == {"n": MAX_ORACLE_N}
    assert capsys.readouterr().err == "fuzzyarith: corr_sum: stub reached\n"
    monkeypatch.setattr(cli, "_grid_size", _stub(grids))
    assert main(argv + [str(MAX_ORACLE_N + 1)]) == 1
    assert grids == [] and len(calls) == 1
    assert capsys.readouterr().err == (
        f"fuzzyarith: --oracle-n {MAX_ORACLE_N + 1} exceeds the cap of {MAX_ORACLE_N}\n")


GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "cli_golden.json").read_text())


@pytest.mark.parametrize("cls", sorted(GOLDEN["classes"]))
def test_cli_output_matches_recorded_bytes(cls):
    """Every recorded invocation prints the bytes recorded for it; a case
    recorded without bytes keeps the exit code it was recorded with."""
    for case in GOLDEN["classes"][cls]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(case["argv"])
        if case["sha256"] is None:
            assert rc == case["recorded_rc"], case["argv"]
        else:
            assert rc == case["rc"], case["argv"]
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["sha256"], \
                case["argv"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(command, printed lines) for every ``$ fuzzyarith`` line in the
    README's console blocks; an example's output runs to the next ``$`` line
    or the end of its block, trailing blank lines dropped."""
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", README.read_text(), re.S | re.M):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.strip():
                command, *lines = chunk.rstrip("\n").splitlines()
                while lines and not lines[-1]:
                    lines.pop()
                examples.append(pytest.param(command, lines, id=command))
    return examples


def test_readme_shows_every_command():
    commands = [p.values[0] for p in _readme_examples()]
    assert all(c.startswith("$ fuzzyarith ") for c in commands)
    assert {shlex.split(c)[2] for c in commands} == {"eval", "check", "table"}


@pytest.mark.parametrize("command, lines", _readme_examples())
def test_readme_console_examples_print_what_they_show(command, lines, capsys):
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out.splitlines() == lines


# Tokens of the expression language, some of them out of place or out of range.
_TOKENS = [*OPERATORS, *SHAPES, *CORRELATIONS, "frob", "(", ")", ",", " ", "1", "-2", "3.5",
           "0", "1e400", "-1e400", "?"]


@st.composite
def _mutated_expressions(draw):
    """A grammar-built expression with one of its tokens replaced by a
    drawn one."""
    tokens = re.findall(r"[A-Za-z_]\w*|-?[\d.]+(?:e[-+]?\d+)?|\S", draw(_expressions())[0])
    tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
    return " ".join(tokens)


@st.composite
def _argvs(draw):
    """An argument vector for one subcommand: a token soup, a
    grammar-built expression or a mutated one, and small random options."""
    command = draw(st.sampled_from(["eval", "check", "table"]))
    text = draw(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join),
                          _expressions().map(lambda e: e[0]), _mutated_expressions()))
    argv = [command, "-e", text, "--grid", str(draw(st.integers(-1, 8)))]
    if command == "check":
        argv += ["--oracle-n", str(draw(st.integers(0, 300)))]
    elif draw(st.booleans()):
        alphas = st.sampled_from(["0", "0.25", "1", "1.5", "-0.1", "", "x"])
        argv += ["--alphas", ",".join(draw(st.lists(alphas, max_size=3)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argvs())
@example(["eval", "-e", "corr_sum(" * 3000])
def test_main_exits_with_a_code_and_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    if rc in (1, 2):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("fuzzyarith: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
