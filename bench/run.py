"""Benchmark command: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload triage --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: guiloc is imported from ``src/`` there.
Inputs, indexes and models go to ``.bench_work/`` and are removed after the
run; a traced run (``--trace 1``) leaves its spans in
``.bench_work/spans-<workload>-<seed>.json``. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
without tracing, per-layer metrics with it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("triage", "sweep", "lint")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="guiloc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "guiloc" / "__init__.py").is_file():
        print(f"guiloc sources not found under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import run_workload  # imports guiloc from src/

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_work")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
