"""Seeded input generation for the four benchmark workloads.

Every workload is a pool of blocks.  Each slot of a block has a class
fixed by its position and the block's index: the operation, the grid
size K, the oracle sample count n, the correlation family and the shape
kind.  The seed draws only the numbers and the order inside the block.
A run makes a fixed number of passes over the whole pool, so the mix of
classes, and with it the medians and percentiles, is the same for every
seed, and one seed always gives the same operations and the same
failures; the costs of single operations still differ widely with their
operands.

Operand parameters are drawn the way people write them: mostly small
integers and halves, sometimes an arbitrary float.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import fuzzyarith as fa

from checks import (check_closed_form, check_compare, check_correlated,
                    check_induced, check_oracle, check_standard,
                    corr_prod_linear_exact)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")

WORKLOADS = ("engine-analytic", "engine-numeric", "oracle-check", "cli")



class Plan(NamedTuple):
    blocks: int         # blocks in the pool; at least 100 operations
    pass_s: float       # wall time of one pass, checks included, on the seed commit
    min_passes: int     # fewest passes a run makes


# The work of one run is fixed by the workload and --seconds alone:
# ``passes`` passes over the pool.  Each operation's time is the best of
# its passes, so an in-process workload makes at least three (four for
# engine-numeric, whose 60-700 ms calls are hit hardest by the host's
# moment-to-moment noise).  The CLI workload makes one: each invocation
# is a fresh process, and its spread was small without repeats.  The two
# workloads whose p90 needs 100 slow operations (engine-numeric, cli)
# take longer than a 15 s run asks for.
PLAN = {
    "engine-analytic": Plan(blocks=16, pass_s=2.4, min_passes=3),
    "engine-numeric": Plan(blocks=5, pass_s=7.5, min_passes=4),
    "oracle-check": Plan(blocks=20, pass_s=5.0, min_passes=4),
    "cli": Plan(blocks=10, pass_s=17.5, min_passes=1),
}

# Blocks in one trace pass: enough for every slot to meet every family
# and shape kind it can get, where a pass stays short enough to repeat.
TRACE_BLOCKS = {"engine-analytic": 10, "engine-numeric": 1, "oracle-check": 10, "cli": 1}


def passes(workload: str, seconds: float) -> int:
    plan = PLAN[workload]
    return max(plan.min_passes, round(seconds / plan.pass_s))


def trace_pairs(workload: str, seconds: float) -> int:
    """Untraced-and-traced pass pairs of a traced run; a traced pass runs
    a prefix of the pool and takes somewhat longer than an untraced one."""
    plan = PLAN[workload]
    pass_s = plan.pass_s * TRACE_BLOCKS[workload] / plan.blocks
    return max(2, round(seconds / (2.2 * pass_s)))


PARAMS = {
    "engine-analytic": {
        "K": [100, 1000, 10000],
        "ops": ["standard_sum", "standard_product", "correlated_sum",
                "correlated_product", "induced_number", "closed_form", "compare_levels"],
        "block": "K=100: 6 ops x2 + compare x2; K=1000: 6 ops x2 + compare x1; "
                 "K=10000: 6 ops x1 + compare x1",
        "families": ["linear", "hyperbolic", "identity", "negation", "reciprocal"],
    },
    "engine-numeric": {
        "K": [100, 1000],
        "ops": ["correlated_sum", "correlated_product"],
        "block": "K=100: 6 custom families x {sum, product} + the 5 built-in "
                 "families with RangeMethod() + -exp(x/2) + an affine composition; "
                 "1 more custom, at K=1000 in blocks 0 and 3; classes rotating per block",
        "families": ["x**3+x", "exp", "-exp(x/2)", "atan", "log (positive supports)",
                     "c*h(s*x+t)+d for h in {x**3+x, exp, atan}"],
    },
    "oracle-check": {
        "K": [100, 1000],
        "n": [2001, 20001],
        "block": "(K=100,n=2001) x6, (100,20001) x1, (1000,2001) x1, (1000,20001) x2",
        "ops": ["oracle_check sum", "oracle_check product"],
    },
    "cli": {
        "K": [100, 1000],
        "block": "one invocation from each of the 10 classes in cli_golden.json",
        "commands": ["eval table/csv/json", "check", "table", "bad input (exit 1 or 2)"],
    },
}


@dataclass
class Op:
    """One timed library call: ``call()`` is timed, ``check(result)`` is not.

    Calls look the library function up on the package when they run, so
    that a traced pass sees the names ``tracing.instrument`` rebinds.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # traced variant, for operations that trace in a child process
    traced_call: Callable | None = None


@dataclass(frozen=True)
class Corr:
    """A correlation as the library sees it plus the benchmark's own copy.

    ``vec`` evaluates the function on arrays and is what the output checks
    use; ``lib`` is the object handed to the library.
    """

    name: str
    lib: object
    vec: Callable
    decreasing: bool
    kind: str | None = None     # "linear" or "hyperbolic" for built-in families
    q: float = 0.0
    r: float = 0.0


# -- parameter drawing ------------------------------------------------------------


def num(rng: random.Random, lo: int = -3, hi: int = 5) -> float:
    u = rng.random()
    if u < 0.6:
        return float(rng.randint(lo, hi))
    if u < 0.85:
        return rng.randint(2 * lo, 2 * hi) / 2
    return rng.uniform(lo, hi)


def nonzero(rng: random.Random) -> float:
    while True:
        v = num(rng)
        if v != 0.0:
            return v


# Shape kinds in the proportions the slots of a block cycle through.
KIND_CYCLE = ("tri", "trap", "tri", "tri", "trap", "tri", "crisp", "tri", "trap", "tri")


def slot_kind(slot: int, block: int) -> str:
    return KIND_CYCLE[(slot + 3 * block) % len(KIND_CYCLE)]


def shape(rng: random.Random, where: str | None = None,
          kind: str | None = None) -> tuple[str, list[float]]:
    """A fuzzy literal (kind, params); ``where`` restricts the support:
    'pos' to x > 0, 'offzero' to a zero-free support, 'cross' to one that
    contains zero.  Without ``kind`` the kind is drawn too."""
    while True:
        if kind is None:
            u = rng.random()
            kind = "tri" if u < 0.6 else "trap" if u < 0.9 else "crisp"
        vals = sorted(num(rng) for _ in range({"tri": 3, "trap": 4, "crisp": 1}[kind]))
        lo, hi = vals[0], vals[-1]
        if where == "pos" and lo <= 0:
            continue
        if where == "offzero" and lo <= 0 <= hi:
            continue
        if where == "cross" and not lo <= 0 <= hi:
            continue
        return kind, vals


def make_fuzzy(lit: tuple[str, list[float]], K: int):
    kind, vals = lit
    return {"tri": fa.triangular, "trap": fa.trapezoidal, "crisp": fa.crisp}[kind](*vals, grid=K)


BUILTINS = ("linear", "hyperbolic", "identity", "negation", "reciprocal")


def builtin(rng: random.Random, family: str | None = None) -> Corr:
    family = family or rng.choice(BUILTINS)
    if family == "linear":
        q, r = nonzero(rng), num(rng)
        return Corr(f"linear({fmt_num(q)}, {fmt_num(r)})", fa.linear(q, r), lambda x: q * x + r,
                    q < 0, "linear", q, r)
    if family == "hyperbolic":
        q, r = nonzero(rng), num(rng)
        return Corr(f"hyperbolic({fmt_num(q)}, {fmt_num(r)})", fa.hyperbolic(q, r), lambda x: q / x + r,
                    q > 0, "hyperbolic", q, r)
    if family == "identity":
        return Corr("identity", fa.identity(), lambda x: x, False, "linear", 1.0, 0.0)
    if family == "negation":
        return Corr("negation", fa.negation(), lambda x: -x, True, "linear", -1.0, 0.0)
    return Corr("reciprocal", fa.reciprocal(), lambda x: 1.0 / x, True, "hyperbolic", 1.0, 0.0)


def slot_family(slot: int, block: int) -> str:
    return BUILTINS[(slot + block) % len(BUILTINS)]


def needs_offzero(corr: Corr) -> bool:
    return corr.kind == "hyperbolic"


# Custom monotone functions: name -> (evaluator on floats and arrays,
# decreasing?).  They use numpy so that one function serves the library's
# scalar calls and the benchmark's vectorized scan.
CUSTOM = {
    "cubic": (lambda x: x ** 3 + x, False),
    "exp": (np.exp, False),
    "nexp": (lambda x: -np.exp(x / 2), True),
    "atan": (np.arctan, False),
    "log": (np.log, False),
}
CUSTOM_FAMILIES = ("cubic", "exp", "nexp", "atan", "log", "affine")


AFFINE_INNER = ("cubic", "exp", "atan")


def custom(rng: random.Random, family: str, g_counter: list | None, inner: str = "cubic"):
    """A custom correlation and a support it is valid on; an affine
    family wraps ``inner``."""
    if family == "affine":
        h, dec = CUSTOM[inner]
        c, s, t, d = nonzero(rng), nonzero(rng), num(rng), num(rng)
        fn = lambda x: c * h(s * x + t) + d
        name = f"{c:g}*{inner}({s:g}*x+{t:g})+{d:g}"
        dec = dec ^ (c < 0) ^ (s < 0)
    else:
        fn, dec = CUSTOM[family]
        name = family
    lib_fn = fn
    if g_counter is not None:
        def lib_fn(x, _fn=fn, _n=g_counter):
            _n[0] += 1 if type(x) is float else np.size(x)
            return _fn(x)
    lib = fa.custom(lib_fn, "decreasing" if dec else "increasing")
    return Corr(name, lib, fn, dec), ("pos" if family == "log" else None)


def lit_text(lit) -> str:
    kind, vals = lit
    return f"{kind}({', '.join(fmt_num(v) for v in vals)})"


def fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


# -- engine-analytic -----------------------------------------------------------------

ANALYTIC_OPS = ("std_sum", "std_prod", "corr_sum", "corr_prod", "induced", "closed_form")
ANALYTIC_SLOTS = ([(100, op) for op in ANALYTIC_OPS * 2] + [(100, "compare")] * 2
                  + [(1000, op) for op in ANALYTIC_OPS * 2] + [(1000, "compare")]
                  + [(10000, op) for op in ANALYTIC_OPS] + [(10000, "compare")])


def _correlation_and_operand(rng, K, family: str, kind: str):
    f = builtin(rng, family)
    a = make_fuzzy(shape(rng, "offzero" if needs_offzero(f) else None, kind), K)
    return f, a


def closed_kinds(f: Corr, a) -> list[tuple[str, str]]:
    """(kind, reference) pairs of closed forms valid for f on a's support."""
    if f.kind == "linear":
        kinds = [("std-sum-linear", "std_sum"), ("std-prod-linear", "std_prod"),
                 ("corr-sum-linear", "sum")]
        if corr_prod_linear_exact(a, f.q, f.r):
            kinds.append(("corr-prod-linear", "product"))
        return kinds
    return [("std-sum-hyperbolic", "std_sum"), ("std-prod-hyperbolic", "std_prod"),
            ("corr-prod-hyperbolic", "product")]


def analytic_op(rng: random.Random, K: int, which: str, slot: int, block: int) -> Op:
    label = f"{which} K={K}"
    kind = slot_kind(slot, block)
    if which in ("std_sum", "std_prod"):
        a = make_fuzzy(shape(rng, kind=kind), K)
        b = make_fuzzy(shape(rng, kind=slot_kind(slot + 5, block)), K)
        name = "standard_sum" if which == "std_sum" else "standard_product"
        return Op(label, lambda: getattr(fa, name)(a, b),
                  lambda res: check_standard(res, a.los, a.his, b.los, b.his, which))
    f, a = _correlation_and_operand(rng, K, slot_family(slot, block), kind)
    if which in ("corr_sum", "corr_prod"):
        op = "sum" if which == "corr_sum" else "product"
        name = "correlated_sum" if op == "sum" else "correlated_product"
        return Op(label, lambda: getattr(fa, name)(a, f.lib),
                  lambda res: check_correlated(res, a, f, op, analytic=True))
    if which == "induced":
        return Op(label, lambda: fa.induced_number(a, f.lib),
                  lambda res: check_induced(res, a, f))
    if which == "closed_form":
        form, ref = rng.choice(closed_kinds(f, a))
        return Op(f"closed_form {form} K={K}", lambda: fa.closed_form(form, a, f.q, f.r),
                  lambda res: check_closed_form(res, a, f, ref))
    op = ("sum", "product")[block % 2]
    if op == "sum":
        corr = fa.correlated_sum(a, f.lib)
        std = fa.standard_sum(a, fa.induced_number(a, f.lib))
    else:
        corr = fa.correlated_product(a, f.lib)
        std = fa.standard_product(a, fa.induced_number(a, f.lib))
    return Op(label, lambda: fa.compare_levels(corr, std),
              lambda res: check_compare(res, corr, std))


def engine_analytic(rng: random.Random, block: int, g_counter) -> list[Op]:
    return [analytic_op(rng, K, which, i, block) for i, (K, which) in enumerate(ANALYTIC_SLOTS)]


# -- engine-numeric --------------------------------------------------------------------

NUMERIC_CLASSES = [(fam, op) for fam in CUSTOM_FAMILIES for op in ("sum", "product")]


def numeric_op(rng: random.Random, K: int, family: str, op: str, kind: str,
               g_counter, slot: int, block: int) -> Op:
    name = "correlated_sum" if op == "sum" else "correlated_product"
    if family in BUILTINS:
        f = builtin(rng, family)
        a = make_fuzzy(shape(rng, "offzero" if needs_offzero(f) else None, kind), K)
        method = fa.RangeMethod()
        label = f"corr_{op} {family} RangeMethod() K={K}"
        call = lambda: getattr(fa, name)(a, f.lib, method)
    else:
        inner = AFFINE_INNER[(slot + block) % len(AFFINE_INNER)]
        f, where = custom(rng, family, g_counter, inner)
        a = make_fuzzy(shape(rng, where, kind), K)
        label = f"corr_{op} {family} K={K}"
        call = lambda: getattr(fa, name)(a, f.lib)
    return Op(label, call,
              lambda res: check_correlated(res, a, f, op, analytic=False))


def engine_numeric(rng: random.Random, block: int, g_counter) -> list[Op]:
    ops = [numeric_op(rng, 100, fam, op, slot_kind(i, block), g_counter, i, block)
           for i, (fam, op) in enumerate(NUMERIC_CLASSES)]
    ops += [numeric_op(rng, 100, slot_family(i, block), ("sum", "product")[(i + block) % 2],
                       slot_kind(i + 12, block), g_counter, i, block)
            for i in range(len(BUILTINS))]
    # Two more of the slowest K=100 families, so that they make close to a
    # third of the pool and the p90 lies inside their group, not at its edge.
    for j, fam in enumerate(("nexp", "affine")):
        ops.append(numeric_op(rng, 100, fam, ("sum", "product")[(j + block) % 2],
                              slot_kind(j + 17, block), g_counter, j + 1, block))
    # Blocks 0 and 3 end with a call at K=1000, the others with one more at
    # K=100: two of 100 calls, a sixth of the time.  The p90 lies in the
    # tail of the K=100 calls, clear of the K=1000 pair.
    fam, op = NUMERIC_CLASSES[5 * block % len(NUMERIC_CLASSES)]
    K = 1000 if block % 3 == 0 else 100
    ops.append(numeric_op(rng, K, fam, op, ("tri", "trap")[block % 2], g_counter, 2, block))
    return ops


# -- oracle-check -------------------------------------------------------------------------

# Sorted by cost the classes take 60/10/10/20% of a block, so the median
# falls inside the first class and the p90 inside the last.
ORACLE_SLOTS = [(100, 2001)] * 6 + [(100, 20001), (1000, 2001)] + [(1000, 20001)] * 2


def engine_oracle(rng: random.Random, block: int, g_counter) -> list[Op]:
    ops = []
    for i, (K, n) in enumerate(ORACLE_SLOTS):
        op = ("sum", "product")[(i + block) % 2]
        f, a = _correlation_and_operand(rng, K, slot_family(i, block), slot_kind(i, block))
        ops.append(Op(f"oracle_check {op} K={K} n={n}",
                      lambda a=a, f=f, op=op, n=n: fa.oracle_check(a, f.lib, op, n=n),
                      lambda res, K=K: check_oracle(res, K)))
    return ops


# -- cli -----------------------------------------------------------------------------------


def corr_expr(rng: random.Random, where_bad: bool = False, ops=("corr_sum", "corr_prod")) -> str:
    """A correlated expression; with where_bad, a zero-crossing support
    under a hyperbolic-shaped correlation (a domain error)."""
    op = rng.choice(ops)
    if where_bad:
        f = builtin(rng, rng.choice(("hyperbolic", "reciprocal")))
        lit = shape(rng, "cross")
    else:
        f = builtin(rng)
        lit = shape(rng, "offzero" if needs_offzero(f) else None)
    return f"{op}({lit_text(lit)}, {f.name})"


def eval_expr(rng: random.Random) -> str:
    op = rng.choice(("std_sum", "std_prod", "corr_sum", "corr_prod", "induced"))
    if op.startswith("std"):
        return f"{op}({lit_text(shape(rng))}, {lit_text(shape(rng))})"
    return corr_expr(rng, ops=(op,))


def alphas(rng: random.Random) -> list[str]:
    if rng.random() < 0.7:
        return []
    pts = sorted(rng.sample((0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1), rng.randint(1, 4)))
    return ["--alphas", ",".join(fmt_num(p) for p in pts)]


def _corrupt(rng: random.Random, expr: str) -> str:
    way = rng.randrange(4)
    if way == 0:
        return expr[:-1]                                   # unbalanced parenthesis
    if way == 1:
        return expr.replace("(", "x(", 1)                  # unknown function
    if way == 2:
        close = expr.index(")")
        return expr[:close] + ", 1" + expr[close:]          # one argument too many
    return expr.replace(",", " @", 1)                      # stray character


CLI_CLASSES = ("eval-table-K100", "eval-csv-K100", "eval-json-K100", "eval-K1000",
               "eval-alphas-K100", "check-K100", "check-K1000", "table-K100",
               "table-K1000", "bad")


def cli_case(rng: random.Random, cls: str) -> tuple[list[str], int]:
    """An argument vector of the given class and the exit code it must give."""
    if cls == "bad":
        cmd = rng.choice(("eval", "check", "table"))
        if rng.random() < 0.5:
            expr = corr_expr(rng, where_bad=True)
            return [cmd, "-e", expr, "--grid", "100"], 2
        expr = _corrupt(rng, corr_expr(rng))
        return [cmd, "-e", expr], 1
    cmd, _, rest = cls.partition("-")
    K = "1000" if cls.endswith("K1000") else "100"
    if cmd == "eval":
        fmt = rest.split("-")[0]
        if fmt not in ("table", "csv", "json"):
            fmt = rng.choice(("table", "csv", "json"))
        extra = alphas(rng) if rest.startswith("alphas") or rng.random() < 0.2 else []
        if rest.startswith("alphas") and not extra:
            extra = ["--alphas", "0,0.5,1"]
        return ["eval", "-e", eval_expr(rng), "--grid", K, "--format", fmt] + extra, 0
    if cmd == "check":
        return ["check", "-e", corr_expr(rng), "--grid", K], 0
    return ["table", "-e", corr_expr(rng), "--grid", K] + alphas(rng), 0


def cli_blocks(rng: random.Random, blocks: int, run_cli) -> list[list[Op]]:
    with open(GOLDEN) as fh:
        corpus = json.load(fh)["classes"]
    picks = {cls: rng.sample(cases, min(blocks, len(cases))) for cls, cases in corpus.items()}
    out = []
    for b in range(blocks):
        block = []
        for cls in CLI_CLASSES:
            case = picks[cls][b % len(picks[cls])]
            block.append(run_cli(cls, case))
        rng.shuffle(block)
        out.append(block)
    return out


GENERATORS = {"engine-analytic": engine_analytic, "engine-numeric": engine_numeric,
              "oracle-check": engine_oracle}


def generate(workload: str, seed: int, g_counter: list | None = None,
             run_cli=None) -> list[list[Op]]:
    """The workload's pool of blocks for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli":
        return cli_blocks(rng, PLAN["cli"].blocks, run_cli)
    gen = GENERATORS[workload]
    blocks = []
    for b in range(PLAN[workload].blocks):
        ops = gen(rng, b, g_counter)
        rng.shuffle(ops)
        blocks.append(ops)
    return blocks
