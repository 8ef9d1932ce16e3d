"""Where the coupling converges: rounds and failure points over a grid.

The grid crosses ``case9`` with ``ckt24_synth`` at bus 6 and at buses 5, 6
and 8, with the loads as given and with the first half of them negated
(reverse flow), over load scale 1-4x and unbalance alpha.  Generators keep
the case-file setpoints, so every reverse-flow point has a feasible
operating point to start from.

A converged point pins the overall rounds and the rounds per PCC: an int is
the overall count when every PCC converged in that round, a dict gives the
rounds per PCC (the overall count is the largest).  A failing point pins the
error type and the round it failed in (``overall_iterations`` of the trace
it carries).

Every failing point but two fails for a physical reason: a feeder voltage
falls below the collapse floor.  The two left are ``5-6-8`` reverse flow at
3x and 4x, alpha 0.5, where the sequence loop does not settle in its 50-pass
budget (nor in 400 plain passes at 3x).

The sequence loop Anderson-mixes its passes and settles every converged
point in at most 18 passes.  A plain loop needs 21-33 passes at seven of
them and 57-77 at six, beyond the budget; a second test checks that both
land on the same fixed point at all 13.
"""
from dataclasses import replace

import numpy as np
import pytest

from tdcosim import cosim, dsolve, tsolve
from tdcosim.errors import ConvergenceError, TdcosimError
from tdcosim.netmodel import LoadAttachment

SCALES = (1, 2, 3, 4)
ALPHAS = (0.0, 0.1, 0.25, 0.5)
SEQ = "ConvergenceError"  # the sequence loop did not settle
COLLAPSE = "VoltageCollapseError"

# (PCC buses, reverse flow): {load scale: one cell per alpha in ALPHAS}
CONVERGENCE_MAP = {
    ((6,), False): {
        1: [3, 3, 3, 4],
        2: [4, 5, 5, 6],
        3: [5, 11, 13, 18],
        4: [(COLLAPSE, 4), (COLLAPSE, 2), (COLLAPSE, 1), (COLLAPSE, 1)],
    },
    ((5, 6, 8), False): {
        1: [3, 4, 5, 5],
        2: [4, 8, 10, 12],
        3: [{5: 6, 6: 6, 8: 5}, (COLLAPSE, 21), (COLLAPSE, 8), (COLLAPSE, 1)],
        4: [(COLLAPSE, 2), (COLLAPSE, 1), (COLLAPSE, 1), (COLLAPSE, 1)],
    },
    ((6,), True): {
        1: [3, 3, 3, 3],
        2: [3, 3, 3, 3],
        3: [3, 3, 4, 4],
        4: [3, 4, 4, 4],
    },
    ((5, 6, 8), True): {
        1: [3, 3, 3, 4],
        2: [3, 4, 4, 5],
        3: [3, 4, 5, (SEQ, 1)],
        4: [4, {5: 4, 6: 4, 8: 5}, 7, (SEQ, 1)],
    },
}

# Converged points where a plain loop (no mixing) needs more than 20 passes
# in a solve: (PCC buses, reverse flow, load scale, alpha).  Mixing opens the
# first six, where the plain loop needs 57-77 passes, beyond the budget.
SLOW_WITHOUT_MIXING = [
    ((6,), False, 3, 0.1), ((6,), False, 3, 0.25), ((6,), False, 3, 0.5),
    ((5, 6, 8), False, 2, 0.1), ((5, 6, 8), False, 2, 0.25), ((5, 6, 8), False, 2, 0.5),
    ((6,), False, 2, 0.25), ((6,), False, 2, 0.5),
    ((5, 6, 8), True, 2, 0.5), ((5, 6, 8), True, 3, 0.25),
    ((5, 6, 8), True, 4, 0.0), ((5, 6, 8), True, 4, 0.1), ((5, 6, 8), True, 4, 0.25),
]
OPENED_BY_MIXING = SLOW_WITHOUT_MIXING[:6]


def _id(buses, reverse, scale, alpha):
    return f"{'-'.join(map(str, buses))}{'-reverse' if reverse else ''}-x{scale}-a{alpha}"


POINTS = [
    pytest.param(buses, reverse, scale, alpha, cells[i], id=_id(buses, reverse, scale, alpha))
    for (buses, reverse), rows in CONVERGENCE_MAP.items()
    for scale, cells in rows.items()
    for i, alpha in enumerate(ALPHAS)
]


def _reverse_flow(feeder):
    """The feeder with the first half of its loads negated."""
    load_s = feeder.load_s.copy()
    load_s[: len(load_s) // 2] *= -1
    return dsolve.Feeder.from_arrays(
        feeder.base_kv, feeder.base_mva, feeder.head, feeder.line_from, feeder.line_to,
        feeder.line_phases, feeder.line_z, feeder.load_nodes, feeder.load_phases, load_s,
        feeder.name,
    )


def test_grid_covers_every_point():
    assert len(POINTS) == 64


def _point(case9, ckt_feeder, buses, reverse, scale, alpha):
    """The case and the feeders by PCC bus of one grid point."""
    case = replace(case9, loads=tuple(
        LoadAttachment(ld.bus, feeder_id=f"ckt24_{ld.bus}", loadshape_id=ld.loadshape_id)
        if ld.bus in buses else ld
        for ld in case9.loads
    ))
    base = _reverse_flow(ckt_feeder) if reverse else ckt_feeder
    feeder = dsolve.apply_unbalance(dsolve.scale_loads(base, scale), alpha)
    return case, {bus: feeder for bus in buses}


@pytest.mark.parametrize("buses, reverse, scale, alpha, expected", POINTS)
def test_convergence_map(case9, ckt_feeder, buses, reverse, scale, alpha, expected):
    case, feeders = _point(case9, ckt_feeder, buses, reverse, scale, alpha)
    try:
        _, trace = cosim.couple_step(case, feeders)
    except TdcosimError as exc:
        assert (type(exc).__name__, exc.trace.overall_iterations) == expected
        return
    assert not isinstance(expected, tuple), f"expected {expected}, converged"
    per_pcc = expected if isinstance(expected, dict) else dict.fromkeys(buses, expected)
    assert trace.iterations_to_converge == per_pcc
    assert trace.overall_iterations == max(per_pcc.values())


@pytest.mark.parametrize("buses, reverse, scale, alpha",
                         [pytest.param(*point, id=_id(*point)) for point in SLOW_WITHOUT_MIXING])
def test_mixing_lands_on_the_plain_loops_fixed_point(
    case9, ckt_feeder, monkeypatch, buses, reverse, scale, alpha
):
    case, feeders = _point(case9, ckt_feeder, buses, reverse, scale, alpha)
    mixed, mixed_trace = cosim.couple_step(case, feeders)
    monkeypatch.setattr(tsolve, "SEQ_LOOP_MEMORY", 0)
    if (buses, reverse, scale, alpha) in OPENED_BY_MIXING:
        with pytest.raises(ConvergenceError, match="sequence loop did not settle"):
            cosim.couple_step(case, feeders)  # the plain loop within the pass budget
    else:
        cosim.couple_step(case, feeders)  # settles within the budget, in more passes
    monkeypatch.setattr(tsolve, "SEQ_LOOP_MAX_PASSES", 400)
    plain, plain_trace = cosim.couple_step(case, feeders)
    assert mixed_trace.iterations_to_converge == plain_trace.iterations_to_converge
    assert mixed_trace.overall_iterations == plain_trace.overall_iterations
    assert mixed.pcc_buses == plain.pcc_buses == buses
    for v_mixed, v_plain in zip(mixed.v_pcc, plain.v_pcc, strict=True):
        assert np.max(np.abs(v_mixed - v_plain)) < 1e-7
