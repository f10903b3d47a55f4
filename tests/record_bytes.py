"""Digests of output bytes that must not change by accident, and the script
that records them.

    python3 tests/record_bytes.py

Run from the root of a checkout whose outputs are the reference.  It
rewrites tests/byte_digests.json; tests/test_bytes.py then recomputes every
digest and names each case whose bytes differ.  A change that means to
change output bytes re-records the file and names every changed case.

Four kinds of case are digested, each by a 16-hex-digit prefix of a
SHA-256:
- every operation of the seed 1 and seed 2 pools of the benchmark's
  engine-analytic and oracle-check workloads (perfbench/workloads.py, read
  but not changed), called in-process: the bytes of every level array, the
  comparison rows with their floats' exact bits, every report field and the
  report's JSON text, or the type and message of the error raised;
- the stdout, stderr and exit code of every argument vector of
  perfbench/cli_golden.json, run in-process through cli.main;
- the same for every argument vector of CONSOLE below, keyed by its command line.
The engine-numeric pools are left out: their custom functions call
np.exp, np.log and np.arctan, whose last bits can differ between CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from array import array
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "byte_digests.json"

POOLS = [(workload, seed) for workload in ("engine-analytic", "oracle-check")
         for seed in (1, 2)]
SECTIONS = [f"{workload}/{seed}" for workload, seed in POOLS] + ["cli", "console"]
CONSOLE = [
    # the README rows
    ["eval", "-e", "corr_sum(tri(1,2,3), negation)", "--alphas", "0,0.5,1"],
    # the oracle's membership paths, merged and searched; a support too wide; a wide tolerance
    ["check", "-e", "corr_sum(tri(1,2,3), linear(2,1))", "--grid", "4", "--oracle-n", "20001"],
    ["check", "-e", "corr_prod(tri(1,2,3), hyperbolic(2,1))", "--grid", "1000"],
    ["check", "-e", "corr_sum(tri(-1.5e308, 0, 1.6e308), linear(-0.25, 0))", "--grid", "4"],
    ["check", "-e", "corr_sum(tri(-8e307, 0, 8e307), linear(-0.25, 0))", "--grid", "4"],
    # extend's sort-and-merge, collapsed and falling paths
    ["check", "-e", "corr_prod(tri(-2,0,2), identity)", "--grid", "1000", "--oracle-n", "20001"],
    ["check", "-e", "corr_prod(tri(1,2,4), reciprocal)", "--grid", "1000", "--oracle-n", "20001"],
    ["check", "-e", "corr_sum(tri(-1,2,4), negation)"],
    ["check", "-e", "corr_sum(tri(1,2,3), linear(-2,1))", "--grid", "4"],
    # the cuts of a side that ends at the float max
    ["eval", "-e", "tri(2.9937604643020797e292, 1.7976931348623157e308, 1.7976931348623157e308)",
     "--grid", "1", "--alphas", "0,0.5,0.9999999999999999,1", "--format", "json"],
    # a parse error, a domain error and an alpha outside [0, 1]
    ["eval", "-e", "corr_sum(tri(1,2,3) negation)"],
    ["eval", "-e", "corr_sum(tri(-1,0,1), hyperbolic(4,0))"],
    ["eval", "-e", "tri(1,2,3)", "--alphas", "1.5"],
    # proved results past the float range
    ["eval", "-e", "std_sum(crisp(1.7e308), crisp(1.7e308))", "--grid", "2"],
    ["eval", "-e", "std_prod(tri(1e200,2e200,3e200), tri(1e200,2e200,3e200))", "--grid", "2"],
    ["eval", "-e", "induced(tri(1e308,1.2e308,1.5e308), linear(2, 0))", "--grid", "2"],
    # strict JSON where a termwise reading passes the float range
    ["check", "-e", "corr_sum(tri(0.1, 1, 1e308), hyperbolic(1e307, 0))", "--grid", "2"],
]


def _workloads():
    """perfbench/workloads.py, imported without writing bytecode into
    perfbench/."""
    if "workloads" not in sys.modules:
        sys.path.insert(0, str(PERFBENCH))
        saved = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        try:
            import workloads  # noqa: F401
        finally:
            sys.dont_write_bytecode = saved
            sys.path.remove(str(PERFBENCH))
    return sys.modules["workloads"]


def _feed(h, value) -> None:
    """Feed the exact content of one result, with its types, to the hash h."""
    from fuzzyarith import FuzzyNumber, LevelResult, OracleReport

    if isinstance(value, FuzzyNumber):
        h.update(b"FuzzyNumber")
        _feed(h, value.los)
        _feed(h, value.his)
    elif isinstance(value, np.ndarray):
        h.update(f"ndarray {value.dtype.str} {value.shape}".encode())
        h.update(value.tobytes())
    elif isinstance(value, OracleReport):
        h.update(b"OracleReport")
        for name in value._fields:
            h.update(name.encode())
            _feed(h, getattr(value, name))
        _feed(h, value.levels)
        h.update(json.dumps(value.to_json()).encode())
    elif isinstance(value, list) and value and all(type(r) is LevelResult for r in value):
        # rows by columns, each column's element types and then its exact bits
        alpha, left, right, dist, subset, equal = zip(*value)
        columns = (alpha, *zip(*left), *zip(*right), dist)
        h.update(f"LevelResult rows {len(value)} {type(left[0]).__name__}".encode())
        for column in (*columns, subset, equal):
            h.update(repr(sorted({type(x).__name__ for x in column})).encode())
        for column in columns:
            h.update(array("d", column).tobytes())
        h.update(bytes(subset) + bytes(equal))
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(f"{type(value).__name__} {float.hex(value)}".encode())
    elif isinstance(value, BaseException):
        h.update(f"{type(value).__name__}: {value}".encode())
    else:
        h.update(f"{type(value).__name__} {value!r}".encode())


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def pool_digests(workload: str, seed: int) -> dict[str, str]:
    """One digest per operation of the workload's pool for the seed, keyed
    by block, position and label."""
    out = {}
    for b, block in enumerate(_workloads().generate(workload, seed)):
        for i, op in enumerate(block):
            try:
                result = op.call()
            except ValueError as e:  # DomainError and MonotonicityError included
                result = e
            out[f"{b}/{i} {op.label}"] = digest(result)
    return out


def golden_cases() -> dict[str, dict]:
    """The records of perfbench/cli_golden.json, keyed by class and position."""
    golden = json.loads((PERFBENCH / "cli_golden.json").read_text())["classes"]
    return {f"{cls}/{j}": case for cls, cases in golden.items() for j, case in enumerate(cases)}


def argv_digests(cases: dict[str, list[str]], check=None) -> dict[str, str]:
    """One digest of (exit code, stdout, stderr) per argv, run through
    cli.main; check(key, exit code, stdout), where given, sees every run."""
    from fuzzyarith.cli import main

    out = {}
    for key, argv in cases.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        if check is not None:
            check(key, rc, stdout.getvalue())
        out[key] = digest((rc, stdout.getvalue(), stderr.getvalue()))
    return out


def section_digests(section: str, check=None) -> dict[str, str]:
    """The digests of a section; check, for the cli section only, sees
    every run of a golden argv (see argv_digests)."""
    if section == "cli":
        return argv_digests({key: case["argv"] for key, case in golden_cases().items()}, check)
    if section == "console":
        return argv_digests({shlex.join(argv): argv for argv in CONSOLE})
    workload, seed = section.rsplit("/", 1)
    return pool_digests(workload, int(seed))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    record = {section: section_digests(section) for section in SECTIONS}
    DIGESTS.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
    for section, cases in record.items():
        print(f"{section}: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
