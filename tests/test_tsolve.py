import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcosim import cosim, tsolve
from tdcosim.errors import ConvergenceError, SingularNetworkError
from tdcosim.netmodel import (
    Branch,
    Bus,
    BusKind,
    CostCurve,
    Generator,
    LoadAttachment,
    TransmissionCase,
    ZeroSeqPath,
    with_dispatch,
)
from tdcosim.seqxform import FORTESCUE, PhasePowers

from oracles import (
    branchwise_power_balance,
    coupled_sequence_direct_2bus,
    nr_oracle,
    stamp_ybus_dense,
)


def two_bus_case(load_p=100.0, load_q=0.0, z1=0.1j, **branch_kw):
    return TransmissionCase(
        base_mva=100.0,
        buses=(Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0), Bus(2, BusKind.PQ, 230.0)),
        branches=(Branch(1, 2, z1=z1, **branch_kw),),
        generators=(Generator(1, 0.0, 500.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)),),
        loads=(LoadAttachment(2, p=load_p, q=load_q),),
    )


def solve_nr(case):
    return tsolve.nr_positive_sequence(tsolve.bus_schedule(case))


# -- Y-bus assembly ---------------------------------------------------------


def test_single_line_offdiagonal():
    yb = tsolve.build_sequence_ybus(two_bus_case())
    y1 = yb.y1
    assert y1[0, 1] == pytest.approx(-1.0 / 0.1j, abs=1e-14)
    assert y1[0, 1] == pytest.approx(10j, abs=1e-14)


def test_nine_bus_matches_stamping_oracle(case9):
    yb = tsolve.build_sequence_ybus(case9)
    for seq, mat in ((0, yb.y0), (1, yb.y1), (2, yb.y2)):
        oracle = stamp_ybus_dense(case9, seq)
        assert np.allclose(mat, oracle, atol=1e-13), f"sequence {seq}"


def test_open_zero_sequence_path_leaves_no_terms():
    case = two_bus_case(zero_seq_path=ZeroSeqPath.OPEN)
    y0 = tsolve.build_sequence_ybus(case).y0
    assert np.all(y0 == 0)


def test_grounded_zero_sequence_is_shunt_at_to_bus():
    case = two_bus_case(z0=0.2j, zero_seq_path=ZeroSeqPath.GROUNDED)
    y0 = tsolve.build_sequence_ybus(case).y0
    assert y0[0, 0] == 0 and y0[0, 1] == 0 and y0[1, 0] == 0
    assert y0[1, 1] == pytest.approx(1.0 / 0.2j, abs=1e-14)


def test_network_is_derived_once_per_bus_and_branch_set(case9):
    yb = tsolve.build_sequence_ybus(case9)
    assert tsolve.build_sequence_ybus(case9) is yb
    redispatched = with_dispatch(case9, [g.p_set + 1.0 for g in case9.generators])
    assert tsolve.build_sequence_ybus(redispatched) is yb
    br = case9.branches[-1]
    other = replace(case9, branches=case9.branches[:-1] + (replace(br, z1=1.1 * br.z1),))
    assert tsolve.build_sequence_ybus(other) is not yb


def test_copy_with_new_buses_derives_its_own_network(case9):
    yb = tsolve.build_sequence_ybus(case9)
    slack = case9.buses[0]
    raised = (replace(slack, v_setpoint=1.05),) + case9.buses[1:]
    own = tsolve.build_sequence_ybus(replace(case9, buses=raised))
    assert own is not yb and own.bus_index == yb.bus_index
    assert own.v_held[0] == 1.05 and yb.v_held[0] == slack.v_setpoint


def test_alternating_copies_derive_one_network_each(case9, monkeypatch):
    # a copy with a branch tuple of its own does not take over the holder it
    # shares with its parent, so lookups that alternate between them hit
    derived = []
    derive = tsolve._sequence_network
    monkeypatch.setattr(tsolve, "_sequence_network", lambda *a: derived.append(a) or derive(*a))
    case = replace(case9, _network=[])
    other = replace(case, branches=case.branches[:-1] + (replace(case.branches[-1]),))
    networks = [tsolve.build_sequence_ybus(c) for c in (case, other) * 3]
    assert len(derived) == 2
    assert all(n is networks[k % 2] for k, n in enumerate(networks))
    assert networks[0] is not networks[1]


def test_a_dropped_case_frees_its_network():
    case = two_bus_case()
    copies = [with_dispatch(case, [50.0]), replace(case, loads=())]
    for copy in copies:
        tsolve.solve_three_sequence(copy)
    network = weakref.ref(tsolve.build_sequence_ybus(case))
    assert all(tsolve.build_sequence_ybus(copy) is network() for copy in copies)
    del case, copies, copy
    gc.collect()
    assert network() is None


MISSING_BUS_RECORDS = {
    "generator at nonexistent bus 99":
        lambda c: replace(c, generators=c.generators + (replace(c.generators[0], bus=99),)),
    "load at nonexistent bus 99":
        lambda c: replace(c, loads=c.loads + (LoadAttachment(99, p=10.0, q=2.0),)),
    "PCC at nonexistent bus 99":
        lambda c: replace(c, loads=c.loads + (LoadAttachment(99, feeder_id="f"),)),
}


@pytest.mark.parametrize("message", list(MISSING_BUS_RECORDS))
def test_a_record_at_a_bus_missing_from_the_network_is_named(case9, ckt_feeder, message):
    case = MISSING_BUS_RECORDS[message](case9)
    pcc = case.pcc_buses()
    with pytest.raises(ValueError, match=f"^{message}$"):
        tsolve.solve_three_sequence(case, pcc, np.ones((len(pcc), 3)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        cosim.couple_step(case, dict.fromkeys(pcc, ckt_feeder))


@pytest.mark.parametrize("change, message", [
    ({"tap": 0.0}, "branch 1-4: tap must be positive, got 0.0"),
    ({"tap": -1.0}, "branch 1-4: tap must be positive, got -1.0"),
    ({"to_bus": 42}, "branch 1-42: references nonexistent bus 42"),
])
def test_invalid_network_rejected_where_it_is_built(case9, change, message):
    first = replace(case9.branches[0], **change)
    bad = replace(case9, branches=(first,) + case9.branches[1:])
    with pytest.raises(ValueError, match="^invalid network: .*" + re.escape(message)):
        tsolve.solve_three_sequence(bad)
    with pytest.raises(ValueError, match=re.escape(message)):
        cosim.couple_step(bad, {})


def test_solves_on_two_networks_do_not_share_state(case9):
    loads = tuple(
        ld if ld.bus != 6 else LoadAttachment(6, feeder_id="ckt") for ld in case9.loads
    )
    case_a = replace(case9, loads=loads)
    br = case_a.branches[-1]
    case_b = replace(case_a, branches=case_a.branches[:-1] + (replace(br, z0=1.3 * br.z0),))
    m = (51.7 + 12.3j) / 3.0
    s_pcc = [[1.15 * m, 0.925 * m, 0.925 * m]]

    sol_a = tsolve.solve_three_sequence(case_a, [6], s_pcc)
    after_a = tsolve.solve_three_sequence(case_b, [6], s_pcc)
    fresh = tsolve.solve_three_sequence(replace(case_b, _network=[]), [6], s_pcc)
    assert not np.array_equal(sol_a.v0, fresh.v0)
    for got, want in zip((after_a.v0, after_a.v1, after_a.v2), (fresh.v0, fresh.v1, fresh.v2)):
        assert np.array_equal(got, want)


# -- Newton-Raphson ---------------------------------------------------------


def test_no_load_flat_solution():
    case = replace(two_bus_case(), loads=())
    nr = solve_nr(case)
    assert np.allclose(nr.v1, [1.0, 1.0], atol=1e-12)
    assert nr.iterations <= 1


def test_two_bus_matches_gauss_seidel_oracle():
    case = two_bus_case(load_p=100.0, load_q=0.0)
    nr = solve_nr(case)
    v2 = 1.0 + 0j
    for _ in range(500):  # plain fixed point on the same equations
        v2 = 1.0 - 0.1j * np.conj((1.0 + 0j) / v2)
    assert abs(nr.v1[1] - v2) < 1e-8
    # frozen value of the Gauss-Seidel fixed point
    assert nr.v1[1] == pytest.approx(0.989897948556636 - 0.1j, abs=1e-8)


def test_nine_bus_base_case_matches_root_finder_oracle(case9):
    # A second system base checks the solver's MW-to-pu reading against the
    # oracle's own.
    for case in (case9, replace(case9, base_mva=250.0)):
        nr = solve_nr(case)
        oracle = nr_oracle(case)
        assert np.max(np.abs(nr.v1 - oracle)) < 1e-8, case.base_mva


def test_nine_bus_pcc_load_voltage_scale(case9):
    # L6 swapped for the paper's snapshot load keeps bus 6 near 1.03 pu
    loads = tuple(
        ld if ld.bus != 6 else LoadAttachment(6, p=51.7, q=12.3) for ld in case9.loads
    )
    case = replace(case9, loads=loads)
    nr = solve_nr(case)
    oracle = nr_oracle(case)
    assert np.max(np.abs(nr.v1 - oracle)) < 1e-6
    i6 = [b.id for b in case.buses].index(6)
    assert 1.0 < abs(nr.v1[i6]) < 1.06


def test_divergence_raises_with_history():
    case = two_bus_case(load_p=2500.0)  # far beyond loadability
    with pytest.raises(ConvergenceError) as err:
        solve_nr(case)
    assert len(err.value.history) > 0


def test_nan_mismatch_is_not_converged(case9):
    sched = tsolve.bus_schedule(case9)
    extra = np.zeros(sched.network.n, dtype=complex)
    extra[4] = np.nan
    with pytest.raises(ConvergenceError) as err:
        tsolve.nr_positive_sequence(sched, extra)
    assert np.isnan(err.value.history[-1])


def pv_bus_case(v_set, gens, load_q):
    """Slack bus 1, PV bus 2 at ``v_set`` with generators ``gens`` and a
    100 MW + ``load_q`` MVAr load at PQ bus 3."""
    return TransmissionCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0),
            Bus(2, BusKind.PV, 230.0, v_set),
            Bus(3, BusKind.PQ, 230.0),
        ),
        branches=(Branch(1, 2, z1=0.02 + 0.1j), Branch(2, 3, z1=0.02 + 0.1j)),
        generators=(Generator(1, 0.0, 500.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)), *gens),
        loads=(LoadAttachment(3, p=100.0, q=load_q),),
    )


def pv_gen(q_min, q_max, p_set=50.0, q_set=0.0):
    return Generator(2, 0.0, 500.0, q_min, q_max, CostCurve(0.01, 10.0, 0.0), p_set, q_set)


def pv_bus_state(case):
    """|V| and generator MVAr at PV bus 2, which carries no load."""
    nr = solve_nr(case)
    y1 = tsolve.build_sequence_ybus(case).y1
    return abs(nr.v1[1]), (nr.v1 * np.conj(y1 @ nr.v1))[1].imag * case.base_mva


def test_pv_q_limit_switching():
    # the PV bus cannot hold 1.05 with only 5 MVAr; it must have been released
    v2, q2 = pv_bus_state(pv_bus_case(1.05, [pv_gen(-5.0, 5.0)], load_q=60.0))
    assert v2 < 1.05 - 1e-4
    assert q2 == pytest.approx(5.0, abs=1e-6)

    # holding 0.95 takes about 24 MVAr of absorption: released at q_min
    v2, q2 = pv_bus_state(pv_bus_case(0.95, [pv_gen(-10.0, 10.0)], load_q=0.0))
    assert v2 > 0.95 + 1e-4
    assert q2 == pytest.approx(-10.0, abs=1e-6)

    # holding 1.02 takes about 48 MVAr: two 30 MVAr units on the bus hold it
    # together, either one alone would not
    v2, q2 = pv_bus_state(
        pv_bus_case(1.02, [pv_gen(-30.0, 30.0, p_set=25.0)] * 2, load_q=5.0)
    )
    assert v2 == pytest.approx(1.02, abs=1e-12)
    assert 30.0 < q2 < 60.0
    v2, q2 = pv_bus_state(pv_bus_case(1.02, [pv_gen(-30.0, 30.0)], load_q=5.0))
    assert v2 < 1.02 - 1e-4
    assert q2 == pytest.approx(30.0, abs=1e-6)


def test_pv_q_limit_ignores_generator_q_setpoint():
    # the generator needs about 48 of its 52.7 MVAr to hold 1.02 pu; its own
    # Q setpoint, which a PV bus overrides, must not shift the limits
    for q_set in (-30.0, 0.0, 30.0):
        v2, q2 = pv_bus_state(pv_bus_case(1.02, [pv_gen(-52.7, 52.7, q_set=q_set)], load_q=5.0))
        assert v2 == pytest.approx(1.02, abs=1e-12), q_set
        assert q2 == pytest.approx(47.72, abs=0.01), q_set


def test_pv_switching_past_its_budget_raises(monkeypatch):
    # one switch releases bus 2 (5 MVAr cannot hold 1.05 pu); with no re-solve
    # left the limit-violating solve must not come back as converged
    case = pv_bus_case(1.05, [pv_gen(-5.0, 5.0)], load_q=60.0)
    switched = solve_nr(case)
    monkeypatch.setattr(tsolve, "PV_SWITCH_MAX", 0)
    with pytest.raises(ConvergenceError, match=re.escape(
            "PV Q-limit switching did not settle in 0 re-solves: bus index [1] still")) as info:
        solve_nr(case)
    assert info.value.history and info.value.history[-1] < tsolve.NR_TOL
    with pytest.raises(ConvergenceError, match="PV Q-limit switching"):
        tsolve.solve_three_sequence(case)
    monkeypatch.setattr(tsolve, "PV_SWITCH_MAX", 1)
    again = solve_nr(case)
    assert again.iterations == switched.iterations and again.history == switched.history
    assert np.array_equal(again.v1, switched.v1)
    assert abs(again.v1[1]) < 1.05 - 1e-4


def test_singular_jacobian_raises(case9):
    # with no admittance every Jacobian entry is zero: LAPACK reports a zero pivot
    sched = tsolve.bus_schedule(case9)
    yb = sched.network
    dead = replace(sched, network=replace(yb, y1=np.zeros_like(yb.y1)))
    with pytest.raises(SingularNetworkError, match="singular Jacobian at NR iteration 0"):
        tsolve.nr_positive_sequence(dead)


# -- linear sequence solves -------------------------------------------------


def test_zero_injection_zero_voltage(case9):
    yb = tsolve.build_sequence_ybus(case9)
    n = yb.n
    assert np.all(tsolve.solve_negative(yb, np.zeros(n)) == 0)
    assert np.all(tsolve.solve_zero(yb, np.zeros(n)) == 0)


def test_two_bus_negative_solve_matches_dense():
    case = two_bus_case(b1_shunt=0.2)
    yb = tsolve.build_sequence_ybus(case)
    inj = np.array([0.0, 0.1 - 0.05j])
    v = tsolve.solve_negative(yb, inj)
    expected = np.linalg.solve(yb.y2, inj)
    assert np.allclose(v, expected, atol=1e-12)


def test_nine_bus_linear_solves_match_dense_lu(case9):
    yb = tsolve.build_sequence_ybus(case9)
    idx6 = yb.bus_index[6]
    inj = np.zeros(yb.n, dtype=complex)
    inj[idx6] = 0.05 - 0.02j

    v2 = tsolve.solve_negative(yb, inj)
    dense2 = np.linalg.solve(yb.y2, inj)
    assert np.max(np.abs(v2 - dense2)) < 1e-10
    assert np.max(np.abs(yb.y2 @ v2 - inj)) < 1e-10

    # zero sequence: generator buses have no path and must stay at zero
    v0 = tsolve.solve_zero(yb, inj)
    assert np.max(np.abs(yb.y0 @ v0 - inj)) < 1e-10
    for bus in (1, 2, 3):
        assert v0[yb.bus_index[bus]] == 0
    live = [yb.bus_index[b] for b in (4, 5, 6, 7, 8, 9)]
    dense0 = np.linalg.solve(yb.y0[np.ix_(live, live)], inj[live])
    assert np.max(np.abs(v0[live] - dense0)) < 1e-10


def open_transformer_case():
    """Slack bus 1 behind a zero-sequence open branch to bus 2, then a line
    with zero-sequence charging to bus 3."""
    return TransmissionCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0),
            Bus(2, BusKind.PQ, 230.0),
            Bus(3, BusKind.PQ, 230.0),
        ),
        branches=(
            Branch(1, 2, z1=0.1j, z0=0.1j, zero_seq_path=ZeroSeqPath.OPEN),
            Branch(2, 3, z1=0.05j, z0=0.15j, b0_shunt=0.1),
        ),
        generators=(Generator(1, 0.0, 500.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)),),
        loads=(),
    )


def test_injection_behind_open_transformer():
    yb = tsolve.build_sequence_ybus(open_transformer_case())
    inj = np.zeros(3, dtype=complex)
    inj[yb.bus_index[3]] = 0.02j
    v0 = tsolve.solve_zero(yb, inj)
    assert v0[yb.bus_index[1]] == 0  # isolated behind the open path
    assert abs(v0[yb.bus_index[3]]) > 0

    # an injection on the isolated bus has nowhere to go
    bad = np.zeros(3, dtype=complex)
    bad[yb.bus_index[1]] = 0.01
    with pytest.raises(SingularNetworkError):
        tsolve.solve_zero(yb, bad)


def test_non_finite_injections_rejected(case9):
    yb = tsolve.build_sequence_ybus(case9)
    with pytest.raises(ValueError, match="not finite"):
        tsolve.solve_zero(yb, np.full(yb.n, np.nan, dtype=complex))
    # at a ground-tied bus, alone and beside a finite injection
    for other in (0.0, 0.05 - 0.02j):
        for bad in (np.nan, np.inf):
            inj = np.zeros(yb.n, dtype=complex)
            inj[yb.bus_index[5]] = other
            inj[yb.bus_index[6]] = bad
            for solve in (tsolve.solve_zero, tsolve.solve_negative):
                with pytest.raises(ValueError, match=r"bus index \[5\] is not finite"):
                    solve(yb, inj)


def test_exactly_singular_sequence_network():
    # 10j series with 0.4 pu charging: Y0 = 0.1j * [[1, 1], [1, 1]], tied to
    # ground by its charging but singular
    yb = tsolve.build_sequence_ybus(two_bus_case(z0=10j, b0_shunt=0.4))
    assert yb.zero.floating.size == 0 and yb.zero.z is None and yb.zero.z_norm == np.inf
    inj = np.zeros(2, dtype=complex)
    inj[1] = 0.01
    with pytest.raises(SingularNetworkError, match="zero-sequence network is singular"):
        tsolve.solve_zero(yb, inj)
    assert np.all(tsolve.solve_zero(yb, np.zeros(2)) == 0)


# -- Z-bus ------------------------------------------------------------------

# A case, then the ids of its buses with no path to ground in Y0 and in Y2.
Z_BUS_CASES = {
    "case9": (lambda case9: case9, {1, 2, 3}, set()),
    # no shunt in either Y2: all its buses float
    "open transformer": (lambda _: open_transformer_case(), {1}, {1, 2, 3}),
    # Y0 tied to ground only at the wye side, bus 2
    "grounded wye": (lambda _: two_bus_case(z0=0.2j, zero_seq_path=ZeroSeqPath.GROUNDED),
                     {1}, {1, 2}),
    "untransposed": (lambda _: untransposed_case(), set(), set()),
}


@pytest.mark.parametrize("name", list(Z_BUS_CASES))
def test_each_z_bus_inverts_the_ground_tied_block_of_the_stamped_network(case9, name):
    make, floating0, floating2 = Z_BUS_CASES[name]
    case = make(case9)
    yb = tsolve.build_sequence_ybus(case)
    for seq, net, floating in ((0, yb.zero, floating0), (2, yb.negative, floating2)):
        y = stamp_ybus_dense(case, seq)
        off = np.array([b.id in floating for b in case.buses])
        assert net.floating.tolist() == np.flatnonzero(off).tolist()
        z = np.zeros_like(y)
        tied = np.ix_(~off, ~off)
        z[tied] = np.linalg.solve(y[tied], np.eye(np.count_nonzero(~off)))
        assert np.abs(net.z - z).max() <= 1e-12 * np.abs(z).max(initial=1.0), seq
        assert not net.z[off].any() and not net.z[:, off].any()
        assert net.z_norm == pytest.approx(np.abs(z).sum(axis=1).max(), rel=1e-12, abs=0.0)


def test_floating_buses_read_positive_zero(case9):
    # buses 1-3 have no zero-sequence path; a tolerated injection at bus 2
    # reaches no voltage
    yb = tsolve.build_sequence_ybus(case9)
    inj = np.zeros(yb.n, dtype=complex)
    inj[yb.bus_index[6]] = -0.05 + 0.02j
    v0 = tsolve.solve_zero(yb, inj)
    inj[yb.bus_index[2]] = -0.5 * tsolve.FLOATING_TOL
    assert np.array_equal(tsolve.solve_zero(yb, inj), v0)
    for bus in (1, 2, 3):
        v = v0[yb.bus_index[bus]]
        assert v == 0 and not np.signbit(v.real) and not np.signbit(v.imag), bus


# -- compensation currents --------------------------------------------------


COUPLING = np.array(
    [
        [0.0, 0.004 + 0.012j, 0.003 + 0.009j],
        [0.005 + 0.011j, 0.0, 0.002 + 0.01j],
        [0.003 + 0.008j, 0.004 + 0.009j, 0.0],
    ]
)


def untransposed_case():
    return two_bus_case(
        z1=0.02 + 0.1j,
        z2=0.02 + 0.1j,
        z0=0.05 + 0.3j,
        b1_shunt=0.3,
        b0_shunt=0.2,
        coupling=COUPLING,
    )


def coupled_chain_case():
    """Buses 1-2-3 joined by two untransposed lines of unlike coupling, so
    bus 2 takes the cross-sequence currents of both."""
    line = dict(z1=0.02 + 0.1j, z2=0.02 + 0.1j, z0=0.05 + 0.3j, b1_shunt=0.3, b0_shunt=0.2)
    return TransmissionCase(
        base_mva=100.0,
        buses=(Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0), Bus(2, BusKind.PQ, 230.0),
               Bus(3, BusKind.PQ, 230.0)),
        branches=(Branch(1, 2, coupling=COUPLING, **line),
                  Branch(2, 3, coupling=0.7 * COUPLING.T, **line)),
        generators=(Generator(1, 0.0, 500.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)),),
        loads=(),
    )


@pytest.mark.parametrize("make", [untransposed_case, coupled_chain_case])
def test_compensation_currents_follow_each_branch(make):
    # -y_off (v_f - v_t) at the from bus and +y_off (v_f - v_t) at the to
    # bus, y_off the branch's full series admittance with its diagonal zeroed
    case = make()
    yb = tsolve.build_sequence_ybus(case)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, yb.n)) + 1j * rng.normal(size=(3, yb.n))
    expected = np.zeros_like(x)
    for br in case.branches:
        y_full = np.linalg.inv(np.diag([br.z0_eff, br.z1, br.z2_eff]) + br.coupling)
        f, t = yb.bus_index[br.from_bus], yb.bus_index[br.to_bus]
        i_cross = (y_full - np.diag(np.diag(y_full))) @ (x[:, f] - x[:, t])
        expected[:, f] -= i_cross
        expected[:, t] += i_cross
    assert np.abs(tsolve.compensation_currents(yb, x) - expected).max() < 1e-13


def test_transposed_case_has_no_corrections(case9):
    yb = tsolve.build_sequence_ybus(case9)
    assert yb.y_cross is None
    assert np.all(tsolve.compensation_currents(yb, np.ones((3, yb.n), dtype=complex)) == 0)


def test_corrections_linear_in_coupling_block():
    yb = tsolve.build_sequence_ybus(untransposed_case())
    assert yb.y_cross.shape == (6, 6)
    doubled = replace(yb, y_cross=2.0 * yb.y_cross)
    rng = np.random.default_rng(3)
    x = np.array([rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)])
    base = tsolve.compensation_currents(yb, x)
    twice = tsolve.compensation_currents(doubled, x)
    assert np.allclose(twice, 2.0 * base, atol=1e-14)


def test_decoupled_fixed_point_matches_coupled_direct_solve():
    case = untransposed_case()
    br = case.branches[0]
    yb = tsolve.build_sequence_ybus(case)

    inj = np.array(
        [
            [0.01 - 0.004j, -0.02 + 0.01j, 0.005 + 0.002j],  # bus 1: seq 0,1,2
            [0.03 + 0.01j, -0.05 - 0.02j, 0.01 - 0.006j],  # bus 2
        ],
        dtype=complex,
    )
    z_full = np.diag([br.z0_eff, br.z1, br.z2_eff]) + COUPLING
    direct = coupled_sequence_direct_2bus(z_full, br.b0_shunt, br.b1_shunt, inj)

    mats = [yb.y0, yb.y1, yb.y2]
    v = np.zeros((2, 3), dtype=complex)
    for _ in range(200):
        corr = tsolve.compensation_currents(yb, v.T)
        v_new = np.zeros_like(v)
        for s in range(3):
            v_new[:, s] = np.linalg.solve(mats[s], inj[:, s] + corr[s])
        if np.max(np.abs(v_new - v)) < 1e-14:
            v = v_new
            break
        v = v_new
    assert np.max(np.abs(v - direct)) < 1e-8


# -- PCC load mapping -------------------------------------------------------

BALANCED_1PU = np.array([[0.0], [1.0], [0.0]], dtype=complex)  # (v0, v1, v2) of one PCC


def pcc_injection(s: PhasePowers, v012=BALANCED_1PU):
    """(i0, s1, i2) of one PCC load."""
    return tsolve.pcc_injections(s.as_array()[None] / (100.0 / 3.0), v012)[:, 0]


def test_balanced_pcc_load_maps_to_pure_positive():
    s = PhasePowers(51.7 / 3 + 12.3j / 3, 51.7 / 3 + 12.3j / 3, 51.7 / 3 + 12.3j / 3)
    i0, s1, i2 = pcc_injection(s)
    assert s1 == pytest.approx(0.517 + 0.123j, abs=1e-12)
    assert abs(i2) < 1e-14
    assert abs(i0) < 1e-14


def test_unbalanced_pcc_load_matches_hand_transform():
    m = (51.7 + 12.3j) / 3.0
    s = PhasePowers(1.15 * m, 0.925 * m, 0.925 * m)
    i0, s1, i2 = pcc_injection(s)
    # frozen from the scalar Fortescue transform of the load currents
    assert s1 == pytest.approx(0.517 + 0.123j, abs=1e-12)
    assert -i2 == pytest.approx(0.038775 - 0.009225j, abs=1e-12)
    assert -i0 == pytest.approx(0.038775 - 0.009225j, abs=1e-12)


def test_zero_power_zero_injection():
    i0, s1, i2 = pcc_injection(PhasePowers(0j, 0j, 0j))
    assert s1 == 0 and i2 == 0 and i0 == 0


# -- full three-sequence solve ----------------------------------------------


def test_balanced_reduces_to_positive_sequence(case9):
    sol = tsolve.solve_three_sequence(case9)
    assert np.max(np.abs(sol.v0)) < 1e-10
    assert np.max(np.abs(sol.v2)) < 1e-10
    nr = solve_nr(case9)
    assert np.max(np.abs(sol.v1 - nr.v1)) < 1e-8


def test_unbalanced_toy_matches_damped_monolithic_fixed_point():
    """3-bus network with one unbalanced PCC load vs a from-scratch coupled solve."""
    case = TransmissionCase(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, 230.0, 1.0, 0.0),
            Bus(2, BusKind.PQ, 230.0),
            Bus(3, BusKind.PQ, 230.0),
        ),
        branches=(
            Branch(1, 2, z1=0.01 + 0.08j, z0=0.03 + 0.2j, b1_shunt=0.5, b0_shunt=0.3),
            Branch(2, 3, z1=0.02 + 0.09j, z0=0.05 + 0.25j, b1_shunt=0.5, b0_shunt=0.3),
        ),
        generators=(Generator(1, 0.0, 500.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)),),
        loads=(LoadAttachment(3, feeder_id="f"),),
    )
    m = (20.0 + 5.0j) / 3.0
    s_abc = np.array([1.1 * m, 0.95 * m, 0.95 * m])
    sol = tsolve.solve_three_sequence(case, [3], [s_abc])

    # Monolithic oracle: simultaneous phase-frame nodal equations solved by a
    # generic root finder.  The source bus holds its positive-sequence
    # component at 1 /_ 0 and injects nothing into the other two sequences,
    # exactly the boundary condition of the sequence-decomposed model.
    import scipy.optimize

    from oracles import fortescue_inverse, fortescue_matrix, stamp_ybus_dense

    A, Ainv = fortescue_matrix(), fortescue_inverse()
    y_seq = [stamp_ybus_dense(case, s) for s in (0, 1, 2)]
    n = 3
    # phase-frame block admittance: Y_abc[i,j] = A @ diag(y0,y1,y2)[i,j] @ A^-1
    y_abc = np.zeros((3 * n, 3 * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            blk = np.diag([y_seq[0][i, j], y_seq[1][i, j], y_seq[2][i, j]])
            y_abc[3 * i: 3 * i + 3, 3 * j: 3 * j + 3] = A @ blk @ Ainv

    s_pu = s_abc / (100.0 / 3.0)  # per-phase base S/3
    balanced = A @ np.array([0.0, 1.0, 0.0])

    def unpack(x):
        z = x[:8] + 1j * x[8:]
        v = np.zeros(9, dtype=complex)
        v[0:3] = A @ np.array([z[0], 1.0, z[1]])  # slack: v1 pinned, v0/v2 free
        v[3:9] = z[2:8]
        return v

    def residual(x):
        v = unpack(x)
        i_inj = y_abc @ v
        out = []
        i012_slack = Ainv @ i_inj[0:3]
        out.append(i012_slack[0])  # no zero-sequence machine injection
        out.append(i012_slack[2])  # no negative-sequence machine injection
        out.extend(i_inj[3:6])  # bus 2: no load
        out.extend(i_inj[6:9] + np.conj(s_pu / v[6:9]))  # bus 3: constant PQ
        out = np.asarray(out)
        return np.concatenate([out.real, out.imag])

    x0 = np.concatenate([np.array([0.0, 0.0]), np.tile(balanced, 2)]).astype(complex)
    x0 = np.concatenate([x0.real, x0.imag])
    res = scipy.optimize.root(residual, x0, method="hybr", tol=1e-13)
    assert res.success, res.message
    v_oracle = unpack(res.x).reshape(n, 3)

    v_mine = np.zeros((n, 3), dtype=complex)
    for i in range(n):
        v_mine[i] = A @ np.array([sol.v0[i], sol.v1[i], sol.v2[i]])
    assert np.max(np.abs(v_mine - v_oracle)) < 1e-8


def test_pcc_bus_named_twice_rejected(case9):
    with pytest.raises(ValueError, match="more than once"):
        tsolve.solve_three_sequence(case9, [6, 5, 6], np.full((3, 3), 10.0 + 2.0j))


@pytest.mark.parametrize("s_pcc", [None, np.ones(3), np.ones((2, 3)), np.ones((1, 2))])
def test_pcc_powers_not_one_row_per_bus_rejected(case9, s_pcc):
    with pytest.raises(ValueError, match=r"\(1, 3\)"):
        tsolve.solve_three_sequence(case9, [6], s_pcc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_pcc_power_rejected_before_the_first_pass(case9, monkeypatch, bad):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(tsolve, "nr_positive_sequence", no_pass)
    s_pcc = np.full((3, 3), 10.0 + 2.0j)
    s_pcc[1, 2] = bad
    with pytest.raises(ValueError, match=r"^s_pcc at PCC bus 5 is not finite$"):
        tsolve.solve_three_sequence(case9, [6, 5, 8], s_pcc)
    s_pcc[2, 0] = bad
    with pytest.raises(ValueError, match=r"^s_pcc at PCC bus 5, 8 is not finite$"):
        tsolve.solve_three_sequence(case9, [6, 5, 8], s_pcc)


def test_phase_voltages_follow_the_bus_order(case9):
    loads = tuple(
        ld if ld.bus not in (5, 6) else LoadAttachment(ld.bus, feeder_id="f") for ld in case9.loads
    )
    m = (51.7 + 12.3j) / 3.0
    s_pcc = [[1.15 * m, 0.925 * m, 0.925 * m], [0.9 * m, 1.1 * m, m]]
    sol = tsolve.solve_three_sequence(replace(case9, loads=loads), [6, 5], s_pcc)
    for buses in ([6, 5], [5, 6, 4]):
        v = sol.phase_voltages(buses)
        assert v.shape == (len(buses), 3)
        for row, bus in zip(v, buses):
            i = sol.bus_index[bus]
            assert np.array_equal(row, FORTESCUE @ np.array([sol.v0[i], sol.v1[i], sol.v2[i]]))
    assert sol.phase_voltages([]).shape == (0, 3)


def test_nine_bus_snapshot_load_converges(case9):
    loads = tuple(
        ld if ld.bus != 6 else LoadAttachment(6, feeder_id="ckt") for ld in case9.loads
    )
    case = replace(case9, loads=loads)
    sol = tsolve.solve_three_sequence(case, [6], np.full((1, 3), 51.7 / 3 + 12.3j / 3))
    assert sol.mismatch < tsolve.NR_TOL


def test_power_conservation_per_sequence(case9):
    loads = tuple(
        ld if ld.bus != 6 else LoadAttachment(6, feeder_id="ckt") for ld in case9.loads
    )
    case = replace(case9, loads=loads)
    m = (51.7 + 12.3j) / 3.0
    sol = tsolve.solve_three_sequence(case, [6], [[1.15 * m, 0.925 * m, 0.925 * m]])
    yb = tsolve.build_sequence_ybus(case)

    # positive sequence: scheduled injections (with slack/PV fill-in) must
    # match the element-by-element branch/shunt consumption
    consumed = branchwise_power_balance(case, sol.v1, 1)
    injected = np.sum(sol.v1 * np.conj(yb.y1 @ sol.v1))
    assert abs(consumed - injected) < 1e-8

    # negative/zero: injected boundary power equals element consumption
    for seq, v, y in ((2, sol.v2, yb.y2), (0, sol.v0, yb.y0)):
        inj_power = np.sum(v * np.conj(y @ v))
        consumed = branchwise_power_balance(case, v, seq)
        assert abs(inj_power - consumed) < 1e-8, f"sequence {seq}"


def test_nr_mismatch_tail_strictly_decreasing(case9):
    nr = solve_nr(case9)
    tail = nr.history[-3:]
    assert len(tail) == 3
    assert tail[0] > tail[1] > tail[2]


def test_sequence_loop_failure_carries_pass_history(case9, monkeypatch):
    loads = tuple(
        ld if ld.bus != 6 else LoadAttachment(6, feeder_id="ckt") for ld in case9.loads
    )
    case = replace(case9, loads=loads)
    m = (51.7 + 12.3j) / 3.0
    monkeypatch.setattr(tsolve, "SEQ_LOOP_MAX_PASSES", 2)
    with pytest.raises(ConvergenceError) as err:
        tsolve.solve_three_sequence(case, [6], [[1.15 * m, 0.925 * m, 0.925 * m]])
    assert len(err.value.history) == 2
    assert err.value.history[-1] > tsolve.SEQ_LOOP_TOL


def test_mixing_settles_a_linear_map_whose_plain_iteration_diverges():
    # x -> a x + b with eigenvalues of modulus 1.74 and 1.17: the plain
    # iteration's change grows every pass, yet mixing through that growth
    # lands on the fixed point once it has fitted the map
    a = np.array([[-1.6, 0.3], [0.2, -1.3]]) + 0.1j * np.eye(2)
    b = np.array([1 + 0.5j, -0.3 + 0.2j])
    fixed = np.linalg.solve(np.eye(2) - a, b)
    changes = {}
    for memory in (0, tsolve.SEQ_LOOP_MEMORY):
        mixer, x, changes[memory] = tsolve._AndersonMixer(memory), np.zeros(2, dtype=complex), []
        for _ in range(20):
            g = a @ x + b
            changes[memory].append(np.abs(g - x).max())
            x = mixer.next(x, g)
        if memory:
            assert np.abs(x - fixed).max() < 1e-14
    plain, mixed = changes[0], changes[tsolve.SEQ_LOOP_MEMORY]
    assert all(later > earlier for earlier, later in zip(plain, plain[1:]))
    assert plain[-1] > 1e4
    assert mixed[1] > mixed[0]  # the change grew, and mixing went on
    assert max(mixed[5:]) < 1e-14  # from the sixth pass on


def test_three_sequence_with_untransposed_branch_converges():
    case = untransposed_case()
    sol = tsolve.solve_three_sequence(case)
    # coupling drags nonzero negative/zero voltages out of the balanced load
    assert np.max(np.abs(sol.v2)) > 1e-6
    assert sol.mismatch < tsolve.NR_TOL


# -- certified first pass ---------------------------------------------------


def one_plain_pass(case, buses, s_pcc, sol):
    """One pass of the sequence loop from ``sol``, put together from the
    module's public pass functions; the case has no untransposed branch."""
    yb = tsolve.build_sequence_ybus(case)
    x = np.array([sol.v0, sol.v1, sol.v2])
    pcc = [yb.bus_index[b] for b in buses]
    inj = np.zeros_like(x)
    inj[:, pcc] = tsolve.pcc_injections(np.array(s_pcc) / (case.base_mva / 3.0), x[:, pcc])
    nr = tsolve.nr_positive_sequence(tsolve.bus_schedule(case), inj[1], v_init=x[1])
    return np.array([tsolve.solve_zero(yb, inj[0]), nr.v1, tsolve.solve_negative(yb, inj[2])])


def pcc_loads(scales, alphas, phases):
    """(k, 3) MVA: each PCC's 40 + 10j MVA times its scale, shifted by its
    alpha toward its phase as ``dsolve.apply_unbalance`` shifts a load."""
    rows = []
    for scale, alpha, phase in zip(scales, alphas, phases):
        row = np.full(3, 1.0 - alpha / 2.0)
        row[phase] = 1.0 + alpha
        rows.append(row * scale * (40.0 + 10.0j) / 3.0)
    return np.array(rows)


_UNBALANCE = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.0, 0.5))


@given(st.sampled_from([(6,), (5, 8), (5, 6, 8)]), st.data())
@settings(max_examples=60, deadline=None)
def test_a_solve_in_one_pass_is_settled(case9, buses, data):
    """Whenever a solve stops after one pass, one more plain pass moves no
    sequence voltage by SEQ_LOOP_TOL, from a flat start or a warm one."""
    k = len(buses)
    draw = data.draw
    alphas = draw(st.lists(_UNBALANCE, min_size=k, max_size=k))
    phases = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    s_pcc = pcc_loads(draw(st.lists(st.floats(0.2, 2.0), min_size=k, max_size=k)),
                      alphas, phases)
    warm = None
    if draw(st.booleans()):
        moved = draw(st.lists(st.floats(0.8, 1.2), min_size=k, max_size=k))
        warm = tsolve.solve_three_sequence(case9, buses, s_pcc * np.array(moved)[:, None])
    sol = tsolve.solve_three_sequence(case9, buses, s_pcc, warm=warm)
    if sol.passes == 1:
        after = one_plain_pass(case9, buses, s_pcc, sol)
        assert np.abs(after - np.array([sol.v0, sol.v1, sol.v2])).max() < tsolve.SEQ_LOOP_TOL


@pytest.mark.parametrize("buses", [(6,), (5, 6, 8)])
def test_balanced_solves_stop_after_one_pass(case9, buses):
    # balanced PCC loads see balanced voltages, so their injections hardly
    # move between passes: every pass 1 is certified, cold and warm
    s_pcc = pcc_loads([1.0] * len(buses), [0.0] * len(buses), [0] * len(buses))
    cold = tsolve.solve_three_sequence(case9, buses, s_pcc)
    warm = tsolve.solve_three_sequence(case9, buses, 1.1 * s_pcc, warm=cold)
    assert cold.passes == warm.passes == 1
    for sol, s in ((cold, s_pcc), (warm, 1.1 * s_pcc)):
        after = one_plain_pass(case9, buses, s, sol)
        assert np.abs(after - np.array([sol.v0, sol.v1, sol.v2])).max() < 1e-15


def test_an_unbalanced_pcc_load_runs_pass_two(case9):
    s_pcc = pcc_loads([1.0], [0.15], [0])
    cold = tsolve.solve_three_sequence(case9, [6], s_pcc)
    warm = tsolve.solve_three_sequence(case9, [6], 1.01 * s_pcc, warm=cold)
    assert cold.passes >= 2 and warm.passes >= 2


def test_a_pv_switch_in_pass_one_runs_pass_two(monkeypatch):
    # no PCC, so pass 2 would take the same injections; but it restarts from
    # the unswitched bus classes, and switches bus 2 again
    results = []
    nr = tsolve.nr_positive_sequence
    monkeypatch.setattr(tsolve, "nr_positive_sequence",
                        lambda *a, **kw: results.append(nr(*a, **kw)) or results[-1])
    sol = tsolve.solve_three_sequence(pv_bus_case(1.05, [pv_gen(-5.0, 5.0)], load_q=60.0))
    assert results[0].switched == 1
    assert sol.passes == len(results) == 2


@pytest.mark.parametrize("extra, raises", [(5e-13, False), (5e-12, True)])
def test_a_floating_injection_over_tolerance_runs_pass_two(case9, monkeypatch, extra, raises):
    # bus 2 has no zero-sequence path to ground; from pass 2 on, its
    # balanced PCC load injects ``extra`` pu there
    inject = tsolve.pcc_injections
    calls = []

    def shifted(s_abc, v012):
        inj = inject(s_abc, v012)
        inj[0] += extra if calls else 0.0
        calls.append(None)
        return inj

    monkeypatch.setattr(tsolve, "pcc_injections", shifted)
    s_pcc = pcc_loads([0.25], [0.0], [0])
    if not raises:
        assert tsolve.solve_three_sequence(case9, [2], s_pcc).passes == 1
        return
    with pytest.raises(SingularNetworkError, match=re.escape(
            "zero-sequence injection at bus index [1] has no path to ground")):
        tsolve.solve_three_sequence(case9, [2], s_pcc)
    assert len(calls) == 2


def test_a_load_that_unbalances_a_floating_bus_raises_in_pass_two(case9, monkeypatch):
    # a negative-sequence pattern of powers draws no zero-sequence current
    # at balanced voltages, but does at the unbalanced ones pass 1 leaves
    a = np.exp(2j * np.pi / 3)
    s_pcc = [[0.01, 0.01 * a, 0.01 * a * a]]
    with monkeypatch.context() as budget:
        budget.setattr(tsolve, "SEQ_LOOP_MAX_PASSES", 1)
        with pytest.raises(ConvergenceError, match="in 1 passes"):
            tsolve.solve_three_sequence(case9, [2], s_pcc)
    with pytest.raises(SingularNetworkError, match=re.escape(
            "zero-sequence injection at bus index [1] has no path to ground")):
        tsolve.solve_three_sequence(case9, [2], s_pcc)
