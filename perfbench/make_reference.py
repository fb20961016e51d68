"""Regenerate reference.json: trace digest and checkpoints per workload and seed.

    python3 perfbench/make_reference.py

Runs every workload once per seed in SEEDS at the benchmark size, untimed.
The benchmark compares every run against this file and reports the digest
match and the largest relative deviation; a mismatch is not a failure.
Regenerate only for a declared change of lmtsim's outputs, and say so in
CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import use_checkout_sources

#: seeds covered by reference.json, for every workload
SEEDS = range(24)


def main() -> int:
    if not use_checkout_sources():
        return 2
    import lmtbench  # noqa: E402 - needs the BLAS setting and src on the path

    ref = {}
    lmtbench.OUT_DIR.mkdir(exist_ok=True)
    workdir = lmtbench.OUT_DIR / f"reference-{os.getpid()}"
    workdir.mkdir()
    try:
        for name, wl in lmtbench.WORKLOADS.items():
            size = wl.sizes["bench"]
            for seed in SEEDS:
                prepared = wl.prepare(seed, size, workdir)
                res = lmtbench.execute_once(wl, prepared, workdir / "out")
                check = lmtbench.check_outputs(wl, res["runs"])
                if check["failures"]:
                    print(f"error: {name} seed {seed}: {check['failures']}",
                          file=sys.stderr)
                    return 1
                ref[lmtbench.reference_key(name, seed)] = {
                    "digest": check["digest"], "checkpoints": check["checkpoints"]}
                print(f"{name} seed {seed}: {check['property']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per workload and seed
    lmtbench.REFERENCE.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in ref.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
