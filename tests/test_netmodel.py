import re
from dataclasses import replace

import numpy as np
import pytest

from tdcosim import cosim, tsolve
from tdcosim.netmodel import (
    Branch,
    Bus,
    BusKind,
    CostCurve,
    Generator,
    LoadAttachment,
    TransmissionCase,
    validate_case,
    with_dispatch,
)


def two_bus_case(**overrides):
    fields = dict(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0),
            Bus(2, BusKind.PQ, 230.0),
        ),
        branches=(Branch(1, 2, z1=0.01 + 0.1j),),
        generators=(Generator(1, 0.0, 500.0, -300.0, 300.0, CostCurve(0.01, 10.0, 0.0)),),
        loads=(LoadAttachment(2, p=51.7, q=12.3),),
    )
    fields.update(overrides)
    return TransmissionCase(**fields)


def test_shipped_case_is_clean(case9):
    assert validate_case(case9) == []


def test_two_slack_buses_flagged():
    case = two_bus_case(
        buses=(
            Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0),
            Bus(2, BusKind.SLACK, 230.0, 1.0, 0.0),
        )
    )
    violations = validate_case(case)
    assert any("slack" in v and "[1, 2]" in v for v in violations)


def test_branch_to_missing_bus_flagged():
    case = two_bus_case(branches=(Branch(1, 99, z1=0.1j),))
    violations = validate_case(case)
    assert any("branch 1-99" in v and "99" in v for v in violations)
    # the dangling branch also disconnects the graph
    assert any("not connected" in v for v in violations)


def test_duplicate_feeder_attachment_flagged():
    case = two_bus_case(
        loads=(
            LoadAttachment(2, feeder_id="f1"),
            LoadAttachment(2, feeder_id="f2"),
        )
    )
    assert any("more than one feeder" in v for v in validate_case(case))


def test_generator_setpoint_outside_limits_flagged():
    case = two_bus_case(
        generators=(
            Generator(1, 10.0, 50.0, -10.0, 10.0, CostCurve(0.0, 1.0, 0.0), p_set=60.0),
        )
    )
    assert any("p_set" in v for v in validate_case(case))


@pytest.mark.parametrize("tap", [0.0, -1.0, float("nan")])
def test_non_positive_tap_flagged(tap):
    # a zero tap used to be solved as 1.0, a negative one to end in the NR
    case = two_bus_case(branches=(Branch(1, 2, z1=0.01 + 0.1j, tap=tap),))
    assert validate_case(case) == [f"branch 1-2: tap must be positive, got {tap}"]


def test_inverted_generator_q_limits_flagged(case9):
    # with q_min above q_max the PV bus would be clamped far off its setpoint
    gens = tuple(
        replace(g, q_min=g.q_max + 10.0) if g.bus == 2 else g for g in case9.generators
    )
    (problem,) = validate_case(replace(case9, generators=gens))
    assert problem.startswith("generator at bus 2: q_min ") and "above q_max" in problem


def pv_bus_case(gens):
    """Slack bus 1, PV bus 2 at 1.05 pu with generators ``gens``, and a
    100 + j60 MVA load at bus 3 beyond it."""
    return TransmissionCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0),
            Bus(2, BusKind.PV, 230.0, 1.05),
            Bus(3, BusKind.PQ, 230.0),
        ),
        branches=(Branch(1, 2, z1=0.02 + 0.1j), Branch(2, 3, z1=0.02 + 0.1j)),
        generators=(
            Generator(1, 0.0, 500.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)),
            *gens,
        ),
        loads=(LoadAttachment(3, p=100.0, q=60.0),),
    )


def test_pv_bus_without_generator_flagged():
    # nothing would limit the Q that holds bus 2 at 1.05 pu
    assert validate_case(pv_bus_case(())) == ["bus 2: pv bus has no generator"]
    unit = Generator(2, 0.0, 500.0, -50.0, 50.0, CostCurve(0.01, 10.0, 0.0), p_set=20.0)
    assert validate_case(pv_bus_case((unit,))) == []


def test_zero_base_rejected():
    for base_mva in (0.0, -5.0):
        case = two_bus_case(base_mva=base_mva)
        assert any("base_mva" in v for v in validate_case(case))
        with pytest.raises(ValueError):
            tsolve.solve_three_sequence(case)


@pytest.mark.parametrize("base_mva", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_base_rejected(base_mva):
    # an infinite base would solve with every power at zero, a NaN one fail
    # as a non-convergence
    case = two_bus_case(base_mva=base_mva)
    message = f"base_mva must be finite and positive, got {base_mva}"
    assert message in validate_case(case)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tsolve.solve_three_sequence(case)


BUS_FIELDS = {  # case9's bus index and field, and the violation
    "base_kv": (3, "base_kv", "bus 4: base_kv must be finite and positive, got {}"),
    "pv v": (1, "v_setpoint", "bus 2: pv bus needs a finite v_setpoint > 0, got {}"),
    "slack v": (0, "v_setpoint", "bus 1: slack bus needs a finite v_setpoint > 0, got {}"),
    "angle": (0, "angle_setpoint", "bus 1: slack bus needs a finite angle_setpoint, got {}"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", list(BUS_FIELDS))
def test_non_finite_bus_fields_rejected(case9, name, value):
    # a NaN setpoint would validate clean, then fail as a non-convergence
    bus, field, message = BUS_FIELDS[name]
    buses = list(case9.buses)
    buses[bus] = replace(buses[bus], **{field: value})
    case = replace(case9, buses=tuple(buses))
    message = message.format(value)
    assert message in validate_case(case)
    with pytest.raises(ValueError, match=re.escape(message)):
        tsolve.solve_three_sequence(case)


def _unit(bus, cost_a=0.01):
    return Generator(bus, 0.0, 500.0, -300.0, 300.0, CostCurve(cost_a, 10.0, 0.0))


STRUCTURE_FAULTS = {  # two_bus_case's overrides, and the one violation
    "gen bus": ({"generators": (_unit(1), _unit(99))}, "generator at nonexistent bus 99"),
    "load bus": ({"loads": (LoadAttachment(99, p=1.0),)}, "load at nonexistent bus 99"),
    "duplicate bus": ({"buses": (Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0), Bus(2, BusKind.PQ, 230.0),
                                 Bus(2, BusKind.PQ, 230.0))}, "duplicate bus ids: [2]"),
    "self loop": ({"branches": (Branch(1, 2, z1=0.01 + 0.1j), Branch(2, 2, z1=0.1j))},
                  "branch 2-2: from and to bus coincide"),
    "zero z": ({"branches": (Branch(1, 2, z1=0.01 + 0.1j, z0=0j),)},
               "branch 1-2: |z0| must be nonzero"),
    "coupling shape": ({"branches": (Branch(1, 2, z1=0.01 + 0.1j, coupling=np.zeros((2, 2))),)},
                       "branch 1-2: coupling block must be 3x3"),
    "cost": ({"generators": (_unit(1, cost_a=-0.01),)}, "generator at bus 1: cost a must be >= 0"),
}


@pytest.mark.parametrize("name", list(STRUCTURE_FAULTS))
def test_structure_faults_are_named(name):
    overrides, message = STRUCTURE_FAULTS[name]
    case = two_bus_case(**overrides)
    assert validate_case(case) == [message]
    with pytest.raises(ValueError, match=f"^invalid case: {re.escape(message)}$"):
        cosim.run_timeseries(case, {}, None, start_min=0, horizon_min=1)


def test_with_dispatch_replaces_setpoints():
    case = two_bus_case()
    updated = with_dispatch(case, [123.0])
    assert updated.generators[0].p_set == 123.0
    with pytest.raises(ValueError):
        with_dispatch(case, [1.0, 2.0])


def test_case_lookup_helpers(case9):
    assert case9.pcc_buses() == []
