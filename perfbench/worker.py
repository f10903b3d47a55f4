"""One workload in one child process: set up, run the closed loop, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode run --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --mode count

``run.py`` starts this with PYTHONPATH pointing at the checkout's src/.
The last line of stdout is a JSON object.  ``setup`` only sets up and
reports the set-up time; ``count`` runs one traced pass and reports the
exact counters, for the repeatability self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = os.path.join(HERE, "cli_probe.py")

HARD_LIMIT_S = 120.0     # start no further pass after this long
CLI_TIMEOUT_S = 60.0


class Tally:
    """Latencies and failures of every operation attempted."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.errors: Counter = Counter()          # raised, or reported failure
        self.check_failures: Counter = Counter()  # returned a wrong result

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.check_failures.values())

    def run(self, op, tracer=None) -> float:
        from checks import CheckFailed, ReportedFailure
        t = time.perf_counter()
        try:
            if tracer is not None and op.traced_call is not None:
                res = op.traced_call(tracer)
            else:
                res = op.call()
        except Exception as e:    # the loop must go on; the failure is counted
            dt = time.perf_counter() - t
            self.latencies.append(dt)
            self.errors[f"{op.label}: {type(e).__name__}: {e}"] += 1
            return dt
        dt = time.perf_counter() - t
        self.latencies.append(dt)
        try:
            op.check(res)
        except ReportedFailure as e:
            self.errors[f"{op.label}: {e}"] += 1
        except CheckFailed as e:
            self.check_failures[f"{op.label}: {e}"] += 1
        return dt


def cli_op_factory(env: dict):
    from checks import CheckFailed, ReportedFailure
    from tracing import PROBE_MARK
    from workloads import Op

    def make(label: str, case: dict):
        argv = case["argv"]

        def call():
            return subprocess.run([sys.executable, "-m", "fuzzyarith", *argv], cwd=ROOT,
                                  env=env, capture_output=True, timeout=CLI_TIMEOUT_S)

        def traced_call(tracer):
            p = subprocess.run([sys.executable, PROBE, *argv], cwd=ROOT, env=env,
                               capture_output=True, timeout=CLI_TIMEOUT_S)
            last = p.stderr.rstrip(b"\n").rpartition(b"\n")[2]
            if not last.startswith(PROBE_MARK):
                raise RuntimeError(f"traced CLI gave no trace: {p.stderr[-300:]!r}")
            tracer.merge(json.loads(last[len(PROBE_MARK):]))
            tracer.counts["cli.output_bytes"] += len(p.stdout)
            return p

        def check(p):
            if p.returncode != case["rc"]:
                if case["rc"] == 0:
                    raise ReportedFailure(f"exit code {p.returncode}, expected 0")
                raise CheckFailed(f"exit code {p.returncode}, expected {case['rc']}")
            # no reference bytes where the recording commit itself failed
            if case["sha256"] is None:
                return
            if hashlib.sha256(p.stdout).hexdigest() != case["sha256"]:
                raise CheckFailed(f"stdout differs from the recorded bytes "
                                  f"({len(p.stdout)} bytes, recorded {case['bytes']})")

        return Op(label, call, check, traced_call)
    return make


def setup(workload: str, seed: int, g_counter=None):
    """Import the package and generate the inputs; returns (blocks, seconds)."""
    t0 = time.perf_counter()
    import fuzzyarith
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(fuzzyarith.__file__).startswith(src + os.sep):
        raise SystemExit(f"fuzzyarith was imported from {fuzzyarith.__file__}, not {src}")
    import workloads
    run_cli = cli_op_factory(dict(os.environ)) if workload == "cli" else None
    blocks = workloads.generate(workload, seed, g_counter, run_cli)
    return blocks, time.perf_counter() - t0


def interpreter_ms(runs: int = 5) -> float:
    """Median wall time of a bare interpreter start, the floor under every
    CLI invocation."""
    ts = []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CLI_TIMEOUT_S)
        ts.append((time.perf_counter() - t) * 1e3)
    return statistics.median(ts)


def probe_every(ops: int) -> int:
    """Probe before every n-th operation: at most 100 probe slots."""
    return max(1, -(-ops // 100))


def timed_passes(blocks, passes: int, tally: Tally, speed) -> tuple[list[float], list[float]]:
    """Run every operation of the pool once per pass, ``passes`` times,
    probing the host's speed between operations.

    Returns each operation's best (smallest) time over the passes and the
    wall time of each pass.  The passes are seconds apart, so an operation
    that ran while the shared host was slow gets another chance.
    """
    ops = [op for block in blocks for op in block]
    best = [float("inf")] * len(ops)
    walls = []
    start = time.perf_counter()
    every = probe_every(len(ops))
    for _ in range(passes):
        t = time.perf_counter()
        for i, op in enumerate(ops):
            if i % every == 0:
                speed.take(i)
            best[i] = min(best[i], tally.run(op))
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start >= HARD_LIMIT_S:
            break
    return best, walls


def traced_pass(blocks, tally: Tally, g_counter: list, memory: bool = False):
    import tracing
    tracer = tracing.Tracer()
    g_counter[0] = 0
    if memory:
        import tracemalloc
        tracemalloc.start()
    try:
        with tracing.instrument(tracer):
            seconds = sum(tally.run(op, tracer) for block in blocks for op in block)
    finally:
        if memory:
            tracemalloc.stop()
    tracer.counts["arithmetic.g_evals"] = g_counter[0]
    return tracer, seconds


def trace_run(workload: str, seed: int, seconds: float, plain, tally: Tally) -> dict:
    """Alternate untraced and traced passes over the same inputs, a fixed
    number of times for the workload and ``seconds``.

    The first traced pass runs under tracemalloc and gives the exact
    counters and the oracle's peak allocation; later traced passes give
    the times, and their counters must equal the first pass's.
    """
    import tracing
    from workloads import TRACE_BLOCKS, trace_pairs
    g_counter = [0]
    counted, _ = setup(workload, seed, g_counter)
    plain, counted = plain[:TRACE_BLOCKS[workload]], counted[:TRACE_BLOCKS[workload]]
    ops = sum(len(b) for b in plain)
    first, _ = traced_pass(counted, tally, g_counter, memory=True)
    exact = {k: first.counts[k] for k in tracing.EXACT_COUNTS}
    repeat = True
    untraced_s = traced_s = 0.0
    passes = []
    start = time.perf_counter()
    for pair in range(trace_pairs(workload, seconds)):
        order = ("plain", "traced") if pair % 2 == 0 else ("traced", "plain")
        for which in order:
            if which == "plain":
                untraced_s += sum(tally.run(op) for block in plain for op in block)
            else:
                tracer, t = traced_pass(counted, tally, g_counter)
                traced_s += t
                repeat &= all(tracer.counts[k] == v for k, v in exact.items())
                passes.append(tracing.layer_metrics(tracer, ops))
        if time.perf_counter() - start >= HARD_LIMIT_S:
            break
    metrics = {k: statistics.median(p[k] for p in passes) for k in tracing.LAYER_METRICS}
    for k in ("oracle.peak_alloc_mb", "oracle.mask_bytes_computed"):
        metrics[k] = first.maxima[k]
    metrics["trace.overhead_share"] = 1.0 - untraced_s / traced_s
    if any(op.traced_call is not None for op in plain[0]):
        metrics["cli.interpreter_ms"] = interpreter_ms()
    return {"layer": metrics, "exact": exact, "exact_repeat": repeat,
            "trace_passes": len(passes), "pass_ops": ops,
            "untraced_ops_per_s": ops * len(passes) / untraced_s,
            "traced_ops_per_s": ops * len(passes) / traced_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "count"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.mode == "count":
        import tracing
        from workloads import TRACE_BLOCKS
        g_counter = [0]
        blocks, _ = setup(args.workload, args.seed, g_counter)
        tracer, _ = traced_pass(blocks[:TRACE_BLOCKS[args.workload]], Tally(), g_counter)
        print(json.dumps({k: tracer.counts[k] for k in tracing.EXACT_COUNTS}))
        return 0

    blocks, setup_s = setup(args.workload, args.seed)
    from hostspeed import HostSpeed, moment_scale
    out = {"setup_s": setup_s * moment_scale(), "setup_raw_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy
    tally = Tally()
    if args.trace:
        out.update(trace_run(args.workload, args.seed, args.seconds, blocks, tally))
    else:
        from workloads import passes
        # After a CLI child the parent's caches are cold; its probe reads
        # warm ones, as the in-process probes find them.
        spawns = blocks[0][0].traced_call is not None
        speed = HostSpeed(warm=spawns)
        best, walls = timed_passes(blocks, passes(args.workload, args.seconds), tally, speed)
        raw = {"latency_p50_ms": statistics.median(best) * 1e3,
               "latency_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
               "ops_per_s": len(best) / sum(best)}
        out["beyond_p90"] = sum(x * 1e3 > raw["latency_p90_ms"] for x in best)
        # times at the reference host speed; a rate scales the other way
        scale = speed.scale()
        out.update({k: v / scale if k == "ops_per_s" else v * scale for k, v in raw.items()})
        out["raw"] = raw
        out["probe_ms"] = speed.best_median() * 1e3
        out["probes"] = len(speed.best)
        out["distinct_ops"] = len(best)
        out["pass_walls_s"] = walls
        who = resource.RUSAGE_CHILDREN if spawns else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    out.update({
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "check_failed": sum(tally.check_failures.values()),
        "errors": dict(tally.errors.most_common(8)),
        "check_failures": dict(tally.check_failures.most_common(8)),
        "params": __import__("workloads").PARAMS[args.workload],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
