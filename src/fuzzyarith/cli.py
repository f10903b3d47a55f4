"""Command line front end with a small expression language.

Grammar (whitespace insignificant, numbers are decimal literals):

    expr  := call | name
    call  := name "(" args ")"
    args  := [ arg { "," arg } ]
    arg   := number | expr

Names fall into three groups: fuzzy literals ``tri``, ``trap``, ``crisp``;
correlation functions ``linear``, ``hyperbolic``, ``identity``,
``negation``, ``reciprocal`` (the last three may appear bare); and
operators ``std_sum``, ``std_prod``, ``corr_sum``, ``corr_prod``,
``induced``.  Operator arguments must be literals or correlation specs,
operators do not nest.

Exit codes: 0 success, 1 parse or validation error, 2 domain error
(a reciprocal shape over a support containing zero), 3 oracle tolerance
exceeded in ``check``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from .arithmetic import (closed_form, correlated_product, correlated_sum,
                         standard_product, standard_sum)
from .correlation import (CorrelationFunction, hyperbolic, identity,
                          induced_number, linear, negation, reciprocal)
from .errors import DomainError
from .fuzzy import (DEFAULT_GRID_K, AlphaGrid, FuzzyNumber, crisp, triangular,
                    trapezoidal)
from .oracle import DEFAULT_SAMPLES, oracle_check


class ParseError(ValueError):
    """Syntax or structural error in an input expression."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# -- tokens ---------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        out.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(_Token("end", "", n))
    return out


# -- syntax tree ------------------------------------------------------------------

FUZZY_KINDS = {"tri": 3, "trap": 4, "crisp": 1}
CORR_PARAMETRIC = {"linear": 2, "hyperbolic": 2}
CORR_BARE = ("identity", "negation", "reciprocal")
OPERATORS = ("std_sum", "std_prod", "corr_sum", "corr_prod", "induced")


@dataclass(frozen=True)
class FuzzyLiteral:
    kind: str
    args: tuple[float, ...]


@dataclass(frozen=True)
class CorrelationSpec:
    family: str
    args: tuple[float, ...]


@dataclass(frozen=True)
class Operation:
    name: str
    operands: tuple


Node = FuzzyLiteral | CorrelationSpec | Operation


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what}, found {got}", tok.pos)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        tok = self.expect("name", "a function name")
        name = tok.text
        if name in FUZZY_KINDS:
            args = self.number_args(name, FUZZY_KINDS[name], tok.pos)
            return FuzzyLiteral(name, args)
        if name in CORR_PARAMETRIC:
            args = self.number_args(name, CORR_PARAMETRIC[name], tok.pos)
            return CorrelationSpec(name, args)
        if name in CORR_BARE:
            # bare names and explicit empty parens are both accepted
            if self.peek().kind == "lparen":
                self.take()
                self.expect("rparen", f"')' ({name} takes no arguments)")
            return CorrelationSpec(name, ())
        if name in OPERATORS:
            return self.operator(name, tok.pos)
        raise ParseError(f"unknown function {name!r}", tok.pos)

    def number_args(self, name: str, count: int, at: int) -> tuple[float, ...]:
        self.expect("lparen", f"'(' after {name!r}")
        args = []
        while True:
            tok = self.take()
            if tok.kind != "number":
                raise ParseError(f"{name!r} takes numeric arguments, found "
                                 f"{tok.text!r}" if tok.kind != "end" else
                                 f"{name!r} takes numeric arguments, found end of input",
                                 tok.pos)
            args.append(float(tok.text))
            tok = self.take()
            if tok.kind == "rparen":
                break
            if tok.kind != "comma":
                got = repr(tok.text) if tok.kind != "end" else "end of input"
                raise ParseError(f"expected ',' or ')', found {got}", tok.pos)
        if len(args) != count:
            raise ParseError(
                f"{name!r} takes {count} arguments, got {len(args)}", at)
        return tuple(args)

    def operator(self, name: str, at: int) -> Operation:
        self.expect("lparen", f"'(' after {name!r}")
        first = self.expr()
        self.expect("comma", "','")
        second = self.expr()
        self.expect("rparen", "')'")
        if not isinstance(first, FuzzyLiteral):
            raise ParseError(f"{name!r} needs a fuzzy literal as its first operand", at)
        if name in ("std_sum", "std_prod"):
            if not isinstance(second, FuzzyLiteral):
                raise ParseError(f"{name!r} needs two fuzzy literals", at)
        else:
            if not isinstance(second, CorrelationSpec):
                raise ParseError(
                    f"{name!r} needs a correlation function as its second operand", at)
        return Operation(name, (first, second))


def parse_expression(text: str) -> Node:
    """Parse an expression string into its syntax tree."""
    return _ExprParser(text).parse()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def format_expression(node: Node) -> str:
    """Canonical text for a tree; parse(format_expression(t)) == t."""
    if isinstance(node, FuzzyLiteral):
        return f"{node.kind}({', '.join(_fmt(a) for a in node.args)})"
    if isinstance(node, CorrelationSpec):
        if not node.args:
            return node.family
        return f"{node.family}({', '.join(_fmt(a) for a in node.args)})"
    return f"{node.name}({', '.join(format_expression(o) for o in node.operands)})"


# -- evaluation --------------------------------------------------------------------


def _make_fuzzy(node: FuzzyLiteral, grid: AlphaGrid) -> FuzzyNumber:
    maker = {"tri": triangular, "trap": trapezoidal, "crisp": crisp}[node.kind]
    return maker(*node.args, grid=grid)


def _make_correlation(node: CorrelationSpec) -> CorrelationFunction:
    if node.family == "linear":
        return linear(*node.args)
    if node.family == "hyperbolic":
        return hyperbolic(*node.args)
    return {"identity": identity, "negation": negation,
            "reciprocal": reciprocal}[node.family]()


def evaluate(node: Node, grid: AlphaGrid) -> FuzzyNumber:
    """Evaluate a tree to a fuzzy number on the given grid.

    An error raised while applying an operator is prefixed with its name.
    """
    if isinstance(node, FuzzyLiteral):
        return _make_fuzzy(node, grid)
    if isinstance(node, CorrelationSpec):
        raise ValueError("a correlation function is not a fuzzy value by itself")
    a = _make_fuzzy(node.operands[0], grid)
    if node.name in ("std_sum", "std_prod"):
        b = _make_fuzzy(node.operands[1], grid)
        op = standard_sum if node.name == "std_sum" else standard_product
    else:
        b = _make_correlation(node.operands[1])
        op = {"corr_sum": correlated_sum, "corr_prod": correlated_product,
              "induced": induced_number}[node.name]
    try:
        return op(a, b)
    except ValueError as e:
        e.args = (f"{node.name}: {e}",)
        raise


# -- commands ----------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # deterministic exit codes, argparse exits 2 otherwise
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="fuzzyarith",
                        description="Alpha-cut arithmetic for fuzzy numbers")
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression to its levels")
    ev.add_argument("-e", "--expr", required=True)
    ev.add_argument("--grid", type=int, default=DEFAULT_GRID_K, metavar="K")
    ev.add_argument("--alphas", default=None,
                    help="comma separated alphas (default: every grid node)")
    ev.add_argument("--format", choices=("table", "csv", "json"), default="table")

    ck = sub.add_parser("check", help="compare the engine against the sampling oracle")
    ck.add_argument("-e", "--expr", required=True)
    ck.add_argument("--grid", type=int, default=DEFAULT_GRID_K, metavar="K")
    ck.add_argument("--oracle-n", type=int, default=DEFAULT_SAMPLES, metavar="N")

    tb = sub.add_parser("table", help="engine, closed-form and standard side by side")
    tb.add_argument("-e", "--expr", required=True)
    tb.add_argument("--grid", type=int, default=DEFAULT_GRID_K, metavar="K")
    tb.add_argument("--alphas", default=None)
    return p


def _parse_alphas(spec: str | None, grid: AlphaGrid) -> list[float]:
    if spec is None:
        return [float(a) for a in grid.alphas()]
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        a = float(part)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha {a:g} outside [0, 1]")
        out.append(a)
    if not out:
        raise ValueError("empty alpha list")
    return out


def _iv_text(iv) -> str:
    return f"[{_fmt(iv.lo)}, {_fmt(iv.hi)}]"


def _cmd_eval(args) -> int:
    grid = AlphaGrid(args.grid)
    node = parse_expression(args.expr)
    value = evaluate(node, grid)
    alphas = _parse_alphas(args.alphas, grid)
    cuts = [value.alpha_cut(a) for a in alphas]
    if args.format == "csv":
        print("alpha,lo,hi")
        for a, iv in zip(alphas, cuts):
            print(f"{_fmt(a)},{_fmt(iv.lo)},{_fmt(iv.hi)}")
    elif args.format == "json":
        print(json.dumps({
            "expr": args.expr,
            "K": grid.K,
            "levels": [{"alpha": a, "lo": iv.lo, "hi": iv.hi}
                       for a, iv in zip(alphas, cuts)],
        }))
    else:
        print("alpha\tlevel")
        for a, iv in zip(alphas, cuts):
            print(f"{_fmt(a)}\t{_iv_text(iv)}")
    return 0


def _correlated_parts(node: Node, what: str):
    if not isinstance(node, Operation) or node.name not in ("corr_sum", "corr_prod"):
        raise ValueError(f"{what} needs a corr_sum or corr_prod expression")
    op = "sum" if node.name == "corr_sum" else "product"
    return node.operands[0], node.operands[1], op


def _cmd_check(args) -> int:
    grid = AlphaGrid(args.grid)
    lit, spec, op = _correlated_parts(parse_expression(args.expr), "check")
    a = _make_fuzzy(lit, grid)
    f = _make_correlation(spec)
    report = oracle_check(a, f, op, n=args.oracle_n)
    body = report.to_json()
    for row in body["levels"]:
        print(json.dumps(row))
    print(json.dumps({k: body[k] for k in ("op", "n", "tolerance",
                                           "max_hausdorff", "passed")}))
    return 0 if report.passed else 3


_CLOSED_FORM_FOR = {
    ("linear", "sum"): "corr-sum-linear",
    ("linear", "product"): "corr-prod-linear",
    ("hyperbolic", "product"): "corr-prod-hyperbolic",
    # no entry for ("hyperbolic", "sum"): the termwise formula overstates
    # the range, so no closed form is offered there
}


def _cmd_table(args) -> int:
    grid = AlphaGrid(args.grid)
    lit, spec, op = _correlated_parts(parse_expression(args.expr), "table")
    a = _make_fuzzy(lit, grid)
    f = _make_correlation(spec)
    engine = correlated_sum(a, f) if op == "sum" else correlated_product(a, f)

    closed = None
    qr = f.linear_coeffs
    shape = "linear" if qr is not None else "hyperbolic"
    if qr is None:
        qr = f.hyperbolic_coeffs
    kind = _CLOSED_FORM_FOR.get((shape, op))
    if kind is not None:
        closed = closed_form(kind, a, *qr)

    b = induced_number(a, f)
    standard = standard_sum(a, b) if op == "sum" else standard_product(a, b)

    alphas = _parse_alphas(args.alphas, grid)
    print("alpha\tengine\tclosed_form\tstandard")
    for alpha in alphas:
        closed_text = _iv_text(closed.alpha_cut(alpha)) if closed is not None else "-"
        print(f"{_fmt(alpha)}\t{_iv_text(engine.alpha_cut(alpha))}"
              f"\t{closed_text}\t{_iv_text(standard.alpha_cut(alpha))}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"fuzzyarith: {e}", file=sys.stderr)
        return 1
    try:
        # Overflow and invalid operations surface as the non-finite level
        # errors below, not as raw numpy warnings.
        with np.errstate(all="ignore"):
            if args.command == "eval":
                return _cmd_eval(args)
            if args.command == "check":
                return _cmd_check(args)
            return _cmd_table(args)
    except DomainError as e:
        print(f"fuzzyarith: domain error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"fuzzyarith: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
