"""Run one liftcount benchmark workload and print its metrics.

    python3 perfbench/run.py --workload universal --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line before
it holds per-case details (seed, failures by exception class, result
digests).  The exit code is 1 when a result differs from its closed form,
and 2 when the liftcount sources are missing.
"""

import argparse
import json
import sys

import liftbench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=liftbench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lc = liftbench.import_liftcount()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = liftbench.build_workload(args.workload, args.seed)
    result = liftbench.run(lc, workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
