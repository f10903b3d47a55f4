"""Command line front end with a small expression language.

Grammar (whitespace insignificant, numbers are decimal literals):

    expr  := call | name
    call  := name "(" args ")"
    args  := [ arg { "," arg } ]
    arg   := number | expr

Names fall into three groups: the fuzzy literal names of ``fuzzy.SHAPES``
(``tri``, ``trap``, ``crisp``); the correlation names of
``correlation.CORRELATIONS`` (the parameterless ones may appear bare); and
operators ``std_sum``, ``std_prod``, ``corr_sum``, ``corr_prod``,
``induced``.  An operator takes a fuzzy literal and a second literal
(``std_*``) or a correlation.  ``parse_expression`` returns the JSON forms
that ``fuzzy_from_json`` and ``correlation_from_json`` read.

Exit codes: 0 success, 1 parse or validation error (including a ``--grid``
above MAX_GRID_K or an ``--oracle-n`` above MAX_ORACLE_N), 2 domain error
(a reciprocal shape over a support containing zero), 3 oracle tolerance
exceeded in ``check``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager

import numpy as np

from .arithmetic import (CLOSED_FORM_KINDS, closed_form, correlated_product,
                         correlated_sum, standard_product, standard_sum)
from .correlation import CORRELATIONS, correlation_from_json, induced_number
from .errors import DomainError
from .fuzzy import DEFAULT_GRID_K, SHAPES, FuzzyNumber, _grid_floats, _grid_size, fuzzy_from_json
from .oracle import DEFAULT_SAMPLES, oracle_check

# Caps on --grid and --oracle-n, checked before any array is built: memory
# grows as K + n; an oracle check at both caps peaks at about 210 MB RSS.
MAX_GRID_K = 100_000
MAX_ORACLE_N = 2_000_001


class ParseError(ValueError):
    """Syntax or structural error in an input expression."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# -- tokens ---------------------------------------------------------------------

# One token per match, after any whitespace: a name, a number, a punctuation
# mark, or any other character, which is an error.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<punct>[(),])"
    r"|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of every token, then ("end", "", len(text)); the
    kind of a punctuation mark is the mark itself."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
        out.append((tok if kind == "punct" else kind, tok, pos))
    out.append(("end", "", len(text)))
    return out


def _shown(tok: tuple[str, str, int]) -> str:
    return repr(tok[1]) if tok[0] != "end" else "end of input"


# -- parsing into JSON forms ----------------------------------------------------------

OPERATORS = ("std_sum", "std_prod", "corr_sum", "corr_prod", "induced")


def _name(node) -> str:
    """The name a JSON form is read by: its one key, or the bare alias."""
    return node if isinstance(node, str) else next(iter(node))


class _ExprParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self, kind: str | None = None, what: str = "") -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {what}, found {_shown(tok)}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self):
        _, name, at = self.take("name", "a function name")
        # the parameter count of a literal or correlation name, None otherwise
        _, count = SHAPES.get(name) or CORRELATIONS.get(name) or (None, None)
        if count:
            return {name: self.numbers(name, count, at)}
        if count == 0:
            # bare names and explicit empty parens are both accepted
            if self.tokens[self.i][0] == "(":
                self.i += 1
                self.take(")", f"')' ({name} takes no arguments)")
            return name
        if name not in OPERATORS:
            raise ParseError(f"unknown function {name!r}", at)
        needs = (f"{name!r} needs a fuzzy literal as its first operand",
                 f"{name!r} needs two fuzzy literals" if name.startswith("std_")
                 else f"{name!r} needs a correlation function as its second operand")
        self.take("(", f"'(' after {name!r}")
        first = self.operand(needs[0], at)
        self.take(",", "','")
        second = self.operand(needs[1], at)
        self.take(")", "')'")
        if _name(first) not in SHAPES:
            raise ParseError(needs[0], at)
        if _name(second) not in (SHAPES if name.startswith("std_") else CORRELATIONS):
            raise ParseError(needs[1], at)
        return {name: [first, second]}

    def operand(self, need: str, at: int):
        """An operator's operand: a literal or a correlation, never an
        operator, which is rejected with ``need`` where its name is read.
        So the parser recurses at most one level however deep the input
        nests."""
        if self.tokens[self.i][1] in OPERATORS:
            raise ParseError(need, at)
        return self.expr()

    def numbers(self, name: str, count: int, at: int) -> list[float]:
        self.take("(", f"'(' after {name!r}")
        args = []
        while True:
            tok = self.take()
            if tok[0] != "number":
                raise ParseError(f"{name!r} takes numeric arguments, found {_shown(tok)}",
                                 tok[2])
            args.append(float(tok[1]))
            tok = self.take()
            if tok[0] == ")":
                break
            if tok[0] != ",":
                raise ParseError(f"expected ',' or ')', found {_shown(tok)}", tok[2])
        if len(args) != count:
            raise ParseError(f"{name!r} takes {count} arguments, got {len(args)}", at)
        return args


def parse_expression(text: str):
    """Parse an expression string into the JSON form the library reads:
    {"tri": [1.0, 2.0, 3.0]} for a fuzzy literal, {"linear": [2.0, 1.0]} or
    a bare alias such as "identity" for a correlation, and
    {"corr_sum": [literal, correlation]} for an operator."""
    return _ExprParser(text).parse()


# -- evaluation --------------------------------------------------------------------


def _build(node, grid: int):
    """The fuzzy number or correlation function a literal or correlation
    names, read from its JSON form; a literal on the grid of K = grid steps."""
    if _name(node) in SHAPES:
        return fuzzy_from_json({**node, "K": grid})
    return correlation_from_json(node)


@contextmanager
def _named(operator: str):
    """Prefix a ValueError raised inside with the operator's name."""
    try:
        yield
    except ValueError as e:
        e.args = (f"{operator}: {e}",)
        raise


def evaluate(node, grid: int) -> FuzzyNumber:
    """Evaluate a parsed expression to a fuzzy number on the grid of K =
    grid steps.

    An error raised while applying an operator is prefixed with its name.
    """
    name = _name(node)
    if name in CORRELATIONS:
        raise ValueError("a correlation function is not a fuzzy value by itself")
    if name in SHAPES:
        return _build(node, grid)
    a, b = (_build(operand, grid) for operand in node[name])
    # looked up per call, so that a rebinding of these module names takes effect
    op = {"std_sum": standard_sum, "std_prod": standard_product,
          "corr_sum": correlated_sum, "corr_prod": correlated_product,
          "induced": induced_number}[name]
    with _named(name):
        return op(a, b)


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
    ck = sub.add_parser("check", help="compare the engine against the sampling oracle")
    tb = sub.add_parser("table", help="engine, closed-form and standard side by side")
    for cmd in (ev, ck, tb):
        cmd.add_argument("-e", "--expr", required=True)
        cmd.add_argument("--grid", type=int, default=DEFAULT_GRID_K, metavar="K")
    for cmd in (ev, tb):
        cmd.add_argument("--alphas", default=None,
                         help="comma separated alphas (default: every grid node)")
    ev.add_argument("--format", choices=("table", "csv", "json"), default="table")
    ck.add_argument("--oracle-n", type=int, default=DEFAULT_SAMPLES, metavar="N")
    return p


def _parse_alphas(spec: str | None, x: FuzzyNumber) -> list[float]:
    """The alphas of --alphas, or x's grid alphas; alpha_cuts checks the
    range, before anything is printed."""
    if spec is None:
        return list(_grid_floats(x.k))
    out = []
    for part in spec.split(","):
        part = part.strip()
        if part:
            out.append(float(part))
    if not out:
        raise ValueError("empty alpha list")
    return out


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _iv_text(lo: float, hi: float) -> str:
    return f"[{_fmt(lo)}, {_fmt(hi)}]"


def _cuts(x: FuzzyNumber, alphas: list[float]) -> list[tuple[float, float]]:
    """(lo, hi) of x at every alpha, as Python floats."""
    los, his = x.alpha_cuts(alphas)
    return list(zip(los.tolist(), his.tolist()))


def _cmd_eval(args) -> int:
    value = evaluate(parse_expression(args.expr), args.grid)
    alphas = _parse_alphas(args.alphas, value)
    cuts = _cuts(value, alphas)
    if args.format == "csv":
        print("alpha,lo,hi")
        for a, (lo, hi) in zip(alphas, cuts):
            print(f"{_fmt(a)},{_fmt(lo)},{_fmt(hi)}")
    elif args.format == "json":
        print(json.dumps({
            "expr": args.expr,
            "K": args.grid,
            "levels": [{"alpha": a, "lo": lo, "hi": hi}
                       for a, (lo, hi) in zip(alphas, cuts)],
        }))
    else:
        print("alpha\tlevel")
        for a, (lo, hi) in zip(alphas, cuts):
            print(f"{_fmt(a)}\t{_iv_text(lo, hi)}")
    return 0


def _correlated_parts(args, what: str):
    """Operator name, op ("sum"/"product"), operand and correlation."""
    node = parse_expression(args.expr)
    name = _name(node)
    if name not in ("corr_sum", "corr_prod"):
        raise ValueError(f"{what} needs a corr_sum or corr_prod expression")
    a, f = (_build(operand, args.grid) for operand in node[name])
    return name, "sum" if name == "corr_sum" else "product", a, f


def _cmd_check(args) -> int:
    name, op, a, f = _correlated_parts(args, "check")
    with _named(name):
        report = oracle_check(a, f, op, n=args.oracle_n)
    body = report.to_json()
    for row in body["levels"]:
        print(json.dumps(row))
    print(json.dumps({k: body[k] for k in ("op", "n", "tolerance",
                                           "max_hausdorff", "passed")}))
    return 0 if report.passed else 3


def _cmd_table(args) -> int:
    name, op, a, f = _correlated_parts(args, "table")
    with _named(name):
        engine = correlated_sum(a, f) if op == "sum" else correlated_product(a, f)

        kind = f"corr-{'sum' if op == 'sum' else 'prod'}-{f.family}"
        closed = closed_form(kind, a, f.q, f.r) if kind in CLOSED_FORM_KINDS else None

        b = induced_number(a, f)
        standard = standard_sum(a, b) if op == "sum" else standard_product(a, b)

    alphas = _parse_alphas(args.alphas, engine)
    columns = [[_iv_text(lo, hi) for lo, hi in _cuts(x, alphas)] if x is not None
               else ["-"] * len(alphas) for x in (engine, closed, standard)]
    print("alpha\tengine\tclosed_form\tstandard")
    for alpha, *texts in zip(alphas, *columns):
        print("\t".join([_fmt(alpha), *texts]))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"fuzzyarith: {e}", file=sys.stderr)
        return 1
    try:
        for flag, value, cap in (("--grid", args.grid, MAX_GRID_K),
                                 ("--oracle-n", getattr(args, "oracle_n", 0), MAX_ORACLE_N)):
            if value > cap:
                raise ValueError(f"{flag} {value} exceeds the cap of {cap}")
        _grid_size(args.grid)
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

