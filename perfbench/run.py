"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload household --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer breakdown with ``--trace 1``.
The line before it carries details (digest, set-up samples, problems).
The program under test is imported from ``src/`` next to ``perfbench/``;
without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.thread_time()  # perfbench.speed.CLOCK

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("household", "flow-churn", "ui-queries")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="shrunken workload for smoke tests"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import bench  # imports the program: part of set-up time

    import_s = time.thread_time() - _STARTED
    if args.trace:
        result = bench.traced_run(args.workload, args.seed, ROOT, small=args.small)
    else:
        result = bench.timed_run(
            args.workload,
            args.seed,
            args.seconds,
            import_s,
            ROOT,
            small=args.small,
        )
    print(json.dumps(result.details, sort_keys=True, default=repr))
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
