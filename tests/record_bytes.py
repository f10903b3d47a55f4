"""Digests of output bytes that must not change by accident, and the script
that records them.

    python3 tests/record_bytes.py

Run from the root of a checkout whose outputs are the reference.  It
rewrites tests/byte_digests.json; tests/test_bytes.py then recomputes every
digest and names each case whose bytes differ.  A change that means to
change output bytes re-records the file and names every changed case.

Three kinds of case are digested, each by a 16-hex-digit prefix of a
SHA-256:
- every operation of the seed 1 and seed 2 pools of the benchmark's
  engine-analytic and oracle-check workloads (perfbench/workloads.py, read
  but not changed), called in-process: the bytes of every level array, the
  comparison rows with their floats' exact bits, every report field and the
  report's JSON text, or the type and message of the error raised;
- the stdout, stderr and exit code of every argument vector of
  perfbench/cli_golden.json, run in-process through cli.main.
The engine-numeric pools are left out: their custom functions call
np.exp, np.log and np.arctan, whose last bits can differ between CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from array import array
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "byte_digests.json"

POOLS = [(workload, seed) for workload in ("engine-analytic", "oracle-check")
         for seed in (1, 2)]
SECTIONS = [f"{workload}/{seed}" for workload, seed in POOLS] + ["cli"]


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
        for name in value.__dataclass_fields__:
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


def cli_digests() -> dict[str, str]:
    """One digest of (exit code, stdout, stderr) per golden argument vector,
    keyed by class and position."""
    from fuzzyarith.cli import main

    golden = json.loads((PERFBENCH / "cli_golden.json").read_text())
    out = {}
    for cls, cases in golden["classes"].items():
        for j, case in enumerate(cases):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(case["argv"])
            out[f"{cls}/{j}"] = digest((rc, stdout.getvalue(), stderr.getvalue()))
    return out


def section_digests(section: str) -> dict[str, str]:
    if section == "cli":
        return cli_digests()
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
