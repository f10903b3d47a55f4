"""fuzzyarith benchmark: closed-loop workloads over the engine, the numeric
range search, the oracle and the CLI.

    python3 perfbench/run.py --workload engine-numeric --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --selfcheck --seed 1

Run it from the root of a source checkout; the package is imported from
the checkout's src/ directory.  Each workload runs in its own child
process with one caller that waits for every result.  Set-up (importing
the package and generating the seeded inputs) runs SETUP_RUNS times, in
fresh processes, and the median is reported.  The work of a run is fixed
by the workload and --seconds: a number of passes over a seeded pool of
operations, each operation timed at the best of its passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  The lines above it
say the same for people: every metric with its unit and sample count,
failed_share with its counts, the environment, and the failures seen.
See perfbench/NOTES.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("engine-analytic", "engine-numeric", "oracle-check", "cli")
SETUP_RUNS = 7            # set-ups per run; the worker's own is one of them
RUN_LIMIT_S = 170.0       # every run ends within this, set-up included

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # every run compiles the package afresh, so no run finds another's cache
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON report."""
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    checkout need not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fuzzyarith")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_worker(["--workload", name, "--seed", str(seed), "--mode", "setup"],
                         deadline) for _ in range(SETUP_RUNS - 1)]
    res = run_worker(["--workload", name, "--seed", str(seed), "--mode", "run",
                      "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(res)
    res["setup_runs"] = [s["setup_s"] for s in setups]
    res["setup_s"] = statistics.median(res["setup_runs"])
    res.setdefault("raw", {})["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    return res


def report(name: str, res: dict, trace: int, seed: int) -> dict:
    """Print the human-readable lines; return the metrics of the JSON line."""
    print(f"== {name}  seed={seed}  trace={trace}")
    print(f"   params: {json.dumps(res['params'])}")
    print(f"   env: {json.dumps({**environment(seed), 'numpy': res['numpy']})}")
    n, failed = res["attempted"], res["failed"]
    if trace:
        from tracing import LAYER_METRICS
        metrics = {k: {"value": res["layer"][k], "unit": u} for k, u in LAYER_METRICS.items()}
        print(f"   trace: {res['trace_passes']} traced passes of {res['pass_ops']} ops, "
              f"traced {res['traced_ops_per_s']:.4g} ops/s vs untraced "
              f"{res['untraced_ops_per_s']:.4g} ops/s")
        print(f"   exact counts {json.dumps(res['exact'])} repeat across passes: "
              f"{res['exact_repeat']}")
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    distinct, walls = res.get("distinct_ops"), res.get("pass_walls_s", [])
    notes = {
        "setup_s": f"median of {len(res['setup_runs'])} set-ups",
        "ops_per_s": f"{distinct} ops at the best of {len(walls)} passes each",
        "latency_p50_ms": f"n={distinct}",
        "latency_p90_ms": f"n={distinct}, {res.get('beyond_p90')} beyond",
    }
    raw = res.get("raw", {})
    for k, m in metrics.items():
        as_measured = f" (as measured {raw[k]:.6g})" if k in raw and not trace else ""
        print(f"   {k:34s} {m['value']:14.6g} {m['unit']:9s} {notes.get(k, '')}{as_measured}")
    if walls:
        print(f"   pass wall times (s): {' '.join(f'{w:.2f}' for w in walls)}; host probe "
              f"{res['probe_ms']:.4f} ms (median of {res['probes']} slots' best)")
    print(f"   {'failed_share':34s} {failed / n:14.6g} {'ratio':9s} "
          f"{failed} failed of {n} attempted ({res['check_failed']} failed a check)")
    for msg, count in {**res["errors"], **res["check_failures"]}.items():
        print(f"   failure x{count}: {msg[:300]}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="check that the exact counters repeat across two traced runs")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fuzzyarith", "__init__.py")):
        print(f"perfbench: no fuzzyarith sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.selfcheck:
            return selfcheck(names, args.seed)
        metrics, correct, attempted, failed = {}, True, 0, 0
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            m = report(name, res, args.trace, args.seed)
            prefix = "" if len(names) == 1 else name + "/"
            metrics.update({prefix + k: v for k, v in m.items()})
            correct &= res["check_failed"] == 0 and (not args.trace or res["exact_repeat"])
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def selfcheck(names, seed: int) -> int:
    ok = True
    for name in names:
        args = ["--workload", name, "--seed", str(seed), "--mode", "count"]
        first = run_worker(args, time.monotonic() + RUN_LIMIT_S)
        second = run_worker(args, time.monotonic() + RUN_LIMIT_S)
        same = first == second
        ok &= same
        print(f"{name}: {'PASS' if same else 'FAIL'} {json.dumps(first)}"
              + ("" if same else f" vs {json.dumps(second)}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
