"""Run one lmtsim benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the workload's inputs from the seed, runs it repeatedly for about
``--seconds`` seconds from the lmtsim sources under ``src/`` of this
checkout, checks every output, and prints a summary, a detail object and,
as the last line, the result object.  Exits 2 without a result when the
sources are missing or the benchmark cannot hook into them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads for every run: the arrays are at most 2000 x 50, where a
#: second thread does not pay and makes timings less steady
BLAS_THREADS = "1"


def use_checkout_sources() -> bool:
    """Fix the BLAS thread count and put this checkout's ``src/`` first on
    the import path; must run before numpy is imported.  False when the
    sources are missing."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "lmtsim" / "__init__.py").is_file():
        print(f"error: no lmtsim sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name (see README.md)")
    parser.add_argument("--seed", type=int, help="input seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2
    import lmtbench  # noqa: E402 - needs the BLAS setting and src on the path

    if args.workload not in lmtbench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(lmtbench.WORKLOADS)}")
    seed = args.seed if args.seed is not None else lmtbench.WORKLOADS[args.workload].default_seed
    try:
        result, detail = lmtbench.run(args.workload, seed, args.seconds, bool(args.trace))
    except lmtbench.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lmtbench.print_summary(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
