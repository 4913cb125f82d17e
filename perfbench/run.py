"""Benchmark entry point.

    python3 perfbench/run.py --workload search-single --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout, using the program
under ``src/``.  Informational lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced.  With ``--trace 1`` they are the
per-layer ones: the run measures the workload untraced for half the
time and traced for the other half, the difference giving the tracing
overhead.  The exit code is 0 when every output check passed, 1 when one
failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, inherited by forked pool workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("search-single", "joint-moving", "serve-mixed")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import harness

    result, stamp, notes = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
