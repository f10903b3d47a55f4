"""Record the CLI workload's corpus: argument vectors, the exit code each
must give, and the SHA-256 of the stdout bytes the CLI printed.

    python3 perfbench/make_golden.py

Run from the root of a checkout of the commit whose output is the
reference.  It rewrites perfbench/cli_golden.json; the CLI workload then
checks every invocation's exit code and stdout against it.  A case whose
exit code differs from the one its class requires stays in the corpus
with no reference bytes (sha256 null), and is reported.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CASES_PER_CLASS = 40
CORPUS_SEED = 0


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    rng = random.Random(CORPUS_SEED)
    classes, failing = {}, 0
    for cls in workloads.CLI_CLASSES:
        cases = []
        while len(cases) < CASES_PER_CLASS:
            argv, rc = workloads.cli_case(rng, cls)
            p = subprocess.run([sys.executable, "-m", "fuzzyarith", *argv], cwd=ROOT,
                               env=env, capture_output=True, timeout=120)
            case = {"argv": argv, "rc": rc, "bytes": len(p.stdout),
                    "sha256": hashlib.sha256(p.stdout).hexdigest()}
            if p.returncode != rc:
                # kept, so the failure shows at its natural frequency; the
                # failing output is no reference for later commits
                failing += 1
                case.update(sha256=None, recorded_rc=p.returncode)
                print(f"fails here (exit {p.returncode}, expected {rc}): {argv}",
                      file=sys.stderr)
            cases.append(case)
        classes[cls] = cases
        print(f"{cls}: {len(cases)} cases")
    with open(workloads.GOLDEN, "w") as fh:
        json.dump({"corpus_seed": CORPUS_SEED, "classes": classes}, fh, indent=1)
        fh.write("\n")
    print(f"{failing} cases fail on this commit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
