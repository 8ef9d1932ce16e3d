"""How often each layer is called through its module attribute.

A wrapper set on ``tsolve.nr_positive_sequence`` or ``dsolve.sweep_solve``
sees every call the solvers make, as the traced benchmark's spans do, so
these counts are the ones it reports: one Y-bus lookup per transmission
solve, one NR and one negative- and zero-sequence solve per pass, and one
sweep per PCC in each coupling round that sweeps.
"""
from collections import Counter

import pytest

from tdcosim import cosim, dsolve, tsolve

LAYERS = {
    tsolve: ("build_sequence_ybus", "solve_three_sequence", "nr_positive_sequence",
             "solve_negative", "solve_zero"),
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
        "nr_positive_sequence": warm.passes,
        "solve_negative": warm.passes,
        "solve_zero": warm.passes,
    }


def test_couple_step_sweeps_each_pcc_once_per_sweeping_round(system2, feeders3, calls):
    state, trace = cosim.couple_step(system2, feeders3)
    rounds = trace.overall_iterations
    assert rounds >= 3
    # every round solves the transmission side; all but the last sweep
    assert calls["solve_three_sequence"] == calls["build_sequence_ybus"] == rounds
    assert calls["sweep_solve"] == 3 * (rounds - 1)
    for feeder in feeders3.values():
        assert calls[feeder.name] == rounds - 1
    assert calls["nr_positive_sequence"] == calls["solve_negative"] == calls["solve_zero"]
    assert calls["nr_positive_sequence"] >= rounds
