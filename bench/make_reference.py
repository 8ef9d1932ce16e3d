"""Regenerate the committed reference PCC voltages of every input variant.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one unit of each workload per variant exactly as the benchmark does and
stores the complex PCC phase voltages (pu) of every step under its check key
in ``bench/reference/<workload>.json``.  Regenerate only when a change is
meant to move the answers, and say so in that change.
"""
from __future__ import annotations

import json
import shutil
import sys

import workloads as w


def reference_for(workload: str, v: int) -> dict:
    created = w.missing_inputs(workload, v)
    if created:
        w.build_inputs(workload, v)
    out = w.CACHE / "out-reference"
    try:
        outcomes = w.run_unit(workload, w.setup(workload, v), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if workload == "wide":  # 6 MB a variant; the cache rebuilds it on demand
            for path in created:
                path.unlink()
    failed = [o.error for o in outcomes if o.error is not None]
    if failed:
        raise SystemExit(f"{workload} variant {v} failed: {failed[0]}")
    checks = {}
    for o in outcomes:
        checks.update(o.checks)
    return w.encode_voltages(checks)


def main(names) -> None:
    w.REFERENCE.mkdir(exist_ok=True)
    for workload in names:
        variants = {}
        for v in range(w.VARIANTS):
            variants[str(v)] = reference_for(workload, v)
            print(f"{workload} variant {v}: {len(variants[str(v)])} checked results",
                  flush=True)
        doc = {"workload": workload, "eps": w.EPS, "tolerance_pu": w.TOLERANCE_PU,
               "variants": variants}
        w.reference_file(workload).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(w.WORKLOADS))
