"""Run the fuzzyarith CLI once with its layers traced.

    python3 perfbench/cli_probe.py eval -e "corr_sum(tri(1,2,3), negation)"

Behaves like ``python -m fuzzyarith`` (same stdout, same exit code) and
then writes one line to stderr: PROBE_MARK followed by the JSON totals
of the spans and counters, including the time ``import fuzzyarith.cli``
took in this process.
"""

import time

T0 = time.perf_counter()

import json
import sys

import tracing

import fuzzyarith.cli as cli

IMPORT_MS = (time.perf_counter() - T0) * 1e3


def main() -> int:
    tracer = tracing.Tracer()
    tracer.child_ms["cli.import"] += IMPORT_MS
    tracer.child_calls["cli.import"] += 1
    with tracing.instrument(tracer):
        rc = tracer.call("cli.format", cli.main, sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(tracing.PROBE_MARK.decode() + json.dumps(tracer.summary()) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
