"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

1. One ``deep`` snapshot passes the reference check; the same snapshot
   fails it once a reference voltage is moved by twice the tolerance, and
   still passes when moved by half of it.
2. The span accounting gives a main-thread span the union of its concurrent
   pool-thread children, not their sum, and the consistency identity holds.

Exits 0 when every expectation holds.
"""
from __future__ import annotations

import copy
import shutil
import sys

import workloads as w  # first: puts the tdcosim sources on sys.path
import tracing


def check_reference() -> list[str]:
    v = 0
    if w.missing_inputs("deep", v):
        w.build_inputs("deep", v)
    out = w.CACHE / "out-selftest"
    try:
        outcomes = w.run_unit("deep", w.setup("deep", v), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    reference = w.load_reference("deep", v)
    errors = []
    if w.check(outcomes, reference):
        errors.append("unperturbed reference: check failed")
    for factor, should_fail in ((2.0, True), (0.5, False)):
        perturbed = copy.deepcopy(reference)
        perturbed["snapshot"][w.DEEP_BUS][1] += factor * w.TOLERANCE_PU
        failed = bool(w.check(outcomes, perturbed))
        if failed != should_fail:
            errors.append(f"reference moved by {factor} x tolerance: "
                          f"check {'failed' if failed else 'passed'}")
    return errors


def check_accounting() -> list[str]:
    main, pool_a, pool_b = 1, 2, 3
    step = tracing.Span("cosim.couple_step", "cosim.couple_step", 0.0, 10.0, main, count=1)
    spans = [
        step,
        tracing.Span("tsolve.three_seq", "tsolve.solve_three_sequence", 0.5, 1.0, main),
        tracing.Span("dsolve.sweep", "dsolve.sweep_solve", 1.0, 5.0, pool_a),
        tracing.Span("dsolve.sweep", "dsolve.sweep_solve", 2.0, 6.0, pool_b),
        tracing.Span("dsolve.topology", "Feeder.topology", 2.5, 3.0, pool_b),
        tracing.Span("tsolve.three_seq", "tsolve.solve_three_sequence", 7.0, 8.0, main),
    ]
    tracing.link(spans, main)
    errors = []
    if abs(tracing.self_time(step) - (10.0 - 0.5 - 5.0 - 1.0)) > 1e-12:
        errors.append(f"couple_step self time {tracing.self_time(step)}")
    if spans[4].parent is not spans[3]:
        errors.append("pool-thread child not nested in its own thread's span")
    rounds = tracing.sweep_rounds(spans)
    if [len(r) for r in rounds] != [2]:
        errors.append(f"sweeps grouped into rounds {[len(r) for r in rounds]}")
    total_self = sum(tracing.self_time(s) for s in spans)
    parallel = 8.0 - 5.0  # two 4 s sweeps over a 5 s round
    if abs(total_self - parallel - 10.0) > 1e-12:
        errors.append(f"self times sum to {total_self}, expected {10.0 + parallel}")
    return errors


def main() -> int:
    errors = check_reference() + check_accounting()
    for e in errors:
        print(f"selftest FAILED: {e}")
    if not errors:
        print("selftest passed: perturbed references fail the check, "
              "span accounting is consistent")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
