"""How often each layer is called through its module attribute.

A wrapper set on ``tsolve.nr_positive_sequence`` or ``dsolve.sweep_solve``
sees every call the solvers make, as the traced benchmark's spans do, so
these counts are the ones it reports: one bus schedule, and with it one
lookup of the network the case holds, per standalone transmission solve and
per step; one NR and one negative- and zero-sequence solve per pass; and one
sweep per PCC in each coupling round that sweeps.
"""
from collections import Counter
from dataclasses import replace

import pytest

from tdcosim import cosim, dsolve, tsolve

LAYERS = {
    tsolve: ("build_sequence_ybus", "bus_schedule", "solve_three_sequence",
             "nr_positive_sequence", "solve_negative", "solve_zero"),
    dsolve: ("sweep_solve",),
}


@pytest.fixture()
def calls(monkeypatch):
    """Counts of calls by attribute name, and of sweeps by feeder name."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "sweep_solve":
                counts[args[0].name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, names in LAYERS.items():
        for name in names:
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return counts


def test_each_pass_calls_each_sequence_solve_once(system1, calls):
    m = (51.7 + 12.3j) / 3.0
    cold = tsolve.solve_three_sequence(system1, [6], [[1.15 * m, 0.925 * m, m]])
    calls.clear()
    warm = tsolve.solve_three_sequence(system1, [6], [[1.16 * m, 0.93 * m, 1.01 * m]], warm=cold)
    assert warm.passes >= 2
    assert calls == {
        "solve_three_sequence": 1,
        "build_sequence_ybus": 1,
        "bus_schedule": 1,
        "nr_positive_sequence": warm.passes,
        "solve_negative": warm.passes,
        "solve_zero": warm.passes,
    }


def test_a_certified_pass_calls_each_sequence_solve_once(system1, calls):
    # a balanced PCC load: pass 1 is certified, and no second pass runs
    m = (51.7 + 12.3j) / 3.0
    cold = tsolve.solve_three_sequence(system1, [6], [[m, m, m]])
    calls.clear()
    warm = tsolve.solve_three_sequence(system1, [6], [[1.01 * m] * 3], warm=cold)
    assert cold.passes == warm.passes == 1
    assert calls == {
        "solve_three_sequence": 1,
        "build_sequence_ybus": 1,
        "bus_schedule": 1,
        "nr_positive_sequence": 1,
        "solve_negative": 1,
        "solve_zero": 1,
    }


def test_couple_step_sweeps_each_pcc_once_per_sweeping_round(system2, feeders3, calls):
    state, trace = cosim.couple_step(system2, feeders3)
    rounds = trace.overall_iterations
    assert rounds >= 3
    # one network and one schedule for the call; every round solves the
    # transmission side, and all but the last sweep
    assert calls["build_sequence_ybus"] == calls["bus_schedule"] == 1
    assert calls["solve_three_sequence"] == rounds
    assert calls["sweep_solve"] == 3 * (rounds - 1)
    for feeder in feeders3.values():
        assert calls[feeder.name] == rounds - 1
    assert calls["nr_positive_sequence"] == calls["solve_negative"] == calls["solve_zero"]
    assert calls["nr_positive_sequence"] >= rounds


def test_time_loop_holds_one_network_per_run(
    system1, ckt_feeder, day_shape, calls, monkeypatch
):
    derived = []
    derive = tsolve._sequence_network
    monkeypatch.setattr(tsolve, "_sequence_network", lambda *a: derived.append(a) or derive(*a))
    case = replace(system1, _network=[])  # the session's case may hold its network
    result = cosim.run_timeseries(
        case, {6: ckt_feeder}, {"day": day_shape}, start_min=1020, horizon_min=12
    )
    steps = result.steps
    assert len(steps) == 12 and all(s.converged for s in steps)
    rounds = sum(s.trace.overall_iterations for s in steps)
    assert calls["build_sequence_ybus"] == calls["bus_schedule"] == len(steps)
    assert calls["solve_three_sequence"] == rounds
    assert calls["sweep_solve"] == rounds - len(steps)
    assert calls["nr_positive_sequence"] == calls["solve_negative"] == calls["solve_zero"]
    assert calls["nr_positive_sequence"] >= rounds

    calls.clear()
    baseline = cosim.run_decoupled_baseline(
        case, {6: ckt_feeder}, {"day": day_shape}, start_min=1020, horizon_min=12
    )
    assert len(baseline.steps) == 3  # the 5-minute dispatch cadence
    assert calls["build_sequence_ybus"] == calls["bus_schedule"] == 3
    assert calls["solve_three_sequence"] == 3
    assert calls["sweep_solve"] == 0
    assert len(derived) == 1  # both runs' steps share the case's network
