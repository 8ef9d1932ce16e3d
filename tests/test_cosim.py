import numpy as np
import pytest

from tdcosim import cosim, dsolve, ed, tsolve
from tdcosim.errors import ConvergenceError, TdcosimError, VoltageCollapseError
from tdcosim.netmodel import to_per_unit


def dispatch_for(case, feeders):
    return ed.dispatch(case.generators, cosim.forecast_demand_mw(case, feeders))


@pytest.fixture(scope="module")
def sys1_state(system1, ckt_feeder):
    feeders = {6: ckt_feeder}
    disp = dispatch_for(system1, feeders)
    state, trace = cosim.couple_step(system1, feeders, dispatch=disp, eps=1e-4)
    return state, trace


# -- couple_step --------------------------------------------------------------


def test_system1_balanced_converges_quickly(sys1_state):
    _, trace = sys1_state
    assert trace.overall_iterations <= 4  # paper reports 3
    assert trace.iterations_to_converge[6] == trace.overall_iterations


def test_final_round_mismatch_below_eps(sys1_state):
    _, trace = sys1_state
    last = [r for r in trace.rows if r.iteration == trace.overall_iterations]
    assert all(r.mismatch < 1e-4 for r in last)


def test_both_sides_agree_at_final_iteration(sys1_state):
    state, trace = sys1_state
    for row in trace.rows:
        if row.iteration == trace.overall_iterations:
            assert np.allclose(row.v_trans_mag, row.v_dist_mag, atol=1e-4)
    # the feeder solutions are one exchange behind the final transmission
    # iterate, so their head voltage agrees with the PCC voltage within eps
    for bus, fsol in state.feeder_solutions.items():
        assert np.allclose(
            np.abs(fsol.v[0]),
            state.pcc_voltages[bus].magnitudes(),
            atol=1e-4,
        )


def test_converged_transmission_consumed_head_powers_verbatim(sys1_state):
    state, _ = sys1_state
    head = state.feeder_solutions[6].head_power
    assert state.pcc_powers[6].as_array() == pytest.approx(head.as_array(), abs=0)


def test_balanced_phases_agree(sys1_state):
    state, trace = sys1_state
    mags = state.pcc_voltages[6].magnitudes()
    assert mags.max() - mags.min() < 1e-6


def test_inner_failure_names_the_pcc(system1):
    # modest boundary power, but the line impedance collapses the feeder
    z = np.full((3, 3), 15.0 + 30.0j, dtype=complex)
    np.fill_diagonal(z, 60.0 + 120.0j)
    sick = dsolve.Feeder(
        34.5, 100.0, "head",
        (dsolve.FeederLine("head", "n1", "abc", z),),
        (dsolve.PhaseLoad("n1", {p: (10.0 + 2.0j) / 3 for p in "abc"}),),
        name="sick",
    )
    with pytest.raises(TdcosimError) as err:
        cosim.couple_step(system1, {6: sick}, eps=1e-4)
    assert "PCC bus 6" in str(err.value)


def test_zero_load_feeder_two_rounds(system1, ckt_feeder):
    empty = ckt_feeder.with_loads(())
    state, trace = cosim.couple_step(system1, {6: empty}, eps=1e-4)
    assert trace.overall_iterations == 2
    # PCC voltage equals the no-load transmission solution
    pu = to_per_unit(system1)
    sol = tsolve.solve_three_sequence(pu)
    expected = abs(sol.v1[sol.bus_index[6]])
    assert state.pcc_voltages[6].magnitudes() == pytest.approx(expected, abs=1e-9)
    assert state.pcc_powers[6].total() == 0


def test_multi_feeder_overall_is_max(system2, feeders3):
    disp = dispatch_for(system2, feeders3)
    shifted = {b: dsolve.apply_unbalance(f, 0.15) for b, f in feeders3.items()}
    _, trace = cosim.couple_step(system2, shifted, dispatch=disp, eps=1e-4)
    assert trace.overall_iterations == max(trace.iterations_to_converge.values())
    assert set(trace.iterations_to_converge) == {5, 6, 8}


def test_couple_step_requires_attachment(case9, ckt_feeder):
    with pytest.raises(ValueError):
        cosim.couple_step(case9, {6: ckt_feeder})  # bus 6 is a lumped load here


@pytest.mark.parametrize(
    "budget",
    [{"eps": float("nan")}, {"eps": float("inf")}, {"eps": 0.0}, {"max_rounds": 0}],
)
def test_couple_step_rejects_unworkable_budget(system1, ckt_feeder, budget):
    with pytest.raises(ValueError):
        cosim.couple_step(system1, {6: ckt_feeder}, **budget)


def test_missing_feeder_for_attachment(system1):
    with pytest.raises(ValueError):
        cosim.couple_step(system1, {})


def test_nonconvergence_carries_trace(system1, ckt_feeder):
    with pytest.raises(ConvergenceError) as err:
        cosim.couple_step(system1, {6: ckt_feeder}, eps=1e-12, max_rounds=3)
    assert err.value.trace.overall_iterations == 3
    assert len(err.value.trace.rows) == 3


def test_feeder_collapse_is_unconverged_with_trace(system1, ckt_feeder):
    heavy = dsolve.scale_loads(ckt_feeder, 4.0)
    with pytest.raises(ConvergenceError) as err:
        cosim.couple_step(system1, {6: heavy}, eps=1e-4)
    assert isinstance(err.value, VoltageCollapseError)
    assert err.value.pcc_bus == 6
    assert err.value.history
    trace = err.value.trace
    k = trace.overall_iterations
    assert [r.iteration for r in trace.rows] == list(range(1, k + 1))


def test_determinism_across_jobs(system2, feeders3):
    # the feeder round is serial in PCC order: the result must not depend on
    # the order in which the feeders are given
    disp = dispatch_for(system2, feeders3)
    reordered = {bus: feeders3[bus] for bus in sorted(feeders3, reverse=True)}
    state1, trace1 = cosim.couple_step(system2, feeders3, dispatch=disp)
    state2, trace2 = cosim.couple_step(system2, reordered, dispatch=disp)
    assert trace1.overall_iterations == trace2.overall_iterations
    assert len(trace1.rows) == len(trace2.rows)
    for r1, r2 in zip(trace1.rows, trace2.rows):
        assert r1.pcc_bus == r2.pcc_bus and r1.iteration == r2.iteration
        assert r1.v_trans_mag == r2.v_trans_mag
    for bus in feeders3:
        assert np.array_equal(
            state1.feeder_solutions[bus].v, state2.feeder_solutions[bus].v
        )


def test_sweep_row_for_collapse_did_not_converge(system1, ckt_feeder):
    heavy = dsolve.scale_loads(ckt_feeder, 4.0)
    sweep = cosim.sweep_unbalance(system1, {6: heavy}, [0.0])
    assert not sweep.rows[0].converged
    assert "collapsed" in sweep.rows[0].error


# -- time series --------------------------------------------------------------


def test_flat_loadshape_time_invariance(system1, ckt_feeder, flat_shape):
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": flat_shape}, start_min=0, horizon_min=10
    )
    assert len(res.steps) == 10
    ref = res.steps[0].state.pcc_voltages[6].magnitudes()
    for step in res.steps[1:]:
        assert np.allclose(step.state.pcc_voltages[6].magnitudes(), ref, atol=1e-9)


def test_ed_cadence_counts(system1, ckt_feeder, day_shape):
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": day_shape}, start_min=100, horizon_min=23
    )
    assert len(res.steps) == 23
    assert sum(1 for s in res.steps if s.dispatched) == 5  # ceil(23 / 5)
    assert res.steps[0].dispatched


def test_run_partitions_and_factorises_y0_y2_once(
    system1, ckt_feeder, day_shape, monkeypatch
):
    partitioned, factorised = [], []
    partition, splu = tsolve._grounded_partition, tsolve.spla.splu
    monkeypatch.setattr(
        tsolve, "_grounded_partition", lambda y: partitioned.append(y) or partition(y)
    )
    monkeypatch.setattr(tsolve.spla, "splu", lambda a: factorised.append(a) or splu(a))
    tsolve._sequence_network.cache_clear()
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": day_shape}, start_min=600, horizon_min=60
    )
    assert len(res.steps) == 60 and all(s.converged for s in res.steps)
    assert len(partitioned) == 2  # Y0 and Y2
    assert len(factorised) == 2


def test_window_must_be_covered(system1, ckt_feeder, day_shape):
    with pytest.raises(ValueError):
        cosim.run_timeseries(
            system1, {6: ckt_feeder}, {"day": day_shape},
            start_min=1430, horizon_min=30,
        )


def test_interval_divisibility_enforced(system1, ckt_feeder, flat_shape):
    with pytest.raises(ValueError):
        cosim.run_timeseries(
            system1, {6: ckt_feeder}, {"day": flat_shape},
            start_min=0, horizon_min=10, ed_interval_min=5, pf_interval_min=3,
        )


def test_abort_policy_stops_at_failure(system1, ckt_feeder, flat_shape):
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": flat_shape},
        start_min=0, horizon_min=10, eps=1e-13, max_rounds=2, on_fail="abort",
    )
    assert res.aborted_at == 0
    assert len(res.steps) == 1
    assert not res.steps[0].converged


def test_continue_policy_records_failures(system1, ckt_feeder, flat_shape):
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": flat_shape},
        start_min=0, horizon_min=3, eps=1e-13, max_rounds=2, on_fail="continue",
    )
    assert res.aborted_at is None
    assert len(res.steps) == 3
    assert all(not s.converged for s in res.steps)


# -- decoupled baseline -------------------------------------------------------


def test_decoupled_baseline_differs_for_lossy_feeder(system1, ckt_feeder, day_shape):
    shapes = {"day": day_shape}
    coupled = cosim.run_timeseries(
        system1, {6: ckt_feeder}, shapes, start_min=1245, horizon_min=20
    )
    baseline = cosim.run_decoupled_baseline(
        system1, {6: ckt_feeder}, shapes, start_min=1245, horizon_min=20
    )
    assert len(baseline.steps) == 4  # every 5 minutes
    by_t = {s.t_min: s for s in baseline.steps}
    diffs = []
    for step in coupled.steps:
        if step.t_min in by_t:
            vc = step.state.pcc_voltages[6].magnitudes()
            vd = by_t[step.t_min].state.pcc_voltages[6].magnitudes()
            diffs.append(np.max(np.abs(vc - vd)))
    assert max(diffs) > 0  # the losses the decoupled model cannot see


def test_decoupled_baseline_equals_coupled_for_zero_load(system1, ckt_feeder, flat_shape):
    empty = ckt_feeder.with_loads(())
    shapes = {"day": flat_shape}
    coupled = cosim.run_timeseries(
        system1, {6: empty}, shapes, start_min=0, horizon_min=5
    )
    baseline = cosim.run_decoupled_baseline(
        system1, {6: empty}, shapes, start_min=0, horizon_min=5
    )
    vc = coupled.steps[0].state.pcc_voltages[6].magnitudes()
    vd = baseline.steps[0].state.pcc_voltages[6].magnitudes()
    assert np.max(np.abs(vc - vd)) < 1e-4


def test_baseline_cadence_counting(system1, ckt_feeder, flat_shape):
    shapes = {"day": flat_shape}
    coupled = cosim.run_timeseries(
        system1, {6: ckt_feeder}, shapes, start_min=0, horizon_min=60
    )
    baseline = cosim.run_decoupled_baseline(
        system1, {6: ckt_feeder}, shapes, start_min=0, horizon_min=60
    )
    assert len(coupled.steps) == 60
    assert sum(1 for s in coupled.steps if s.dispatched) == 12
    assert len(baseline.steps) == 12


@pytest.mark.parametrize("interval", [-5, 0])
def test_baseline_rejects_non_positive_interval(system1, ckt_feeder, flat_shape, interval):
    with pytest.raises(ValueError, match="intervals must be positive"):
        cosim.run_decoupled_baseline(
            system1, {6: ckt_feeder}, {"day": flat_shape},
            start_min=0, horizon_min=10, ed_interval_min=interval,
        )


def test_baseline_trace_and_aggregate_powers(system1, ckt_feeder, day_shape):
    res = cosim.run_decoupled_baseline(
        system1, {6: ckt_feeder}, {"day": day_shape}, start_min=1245, horizon_min=30
    )
    assert [s.t_min for s in res.steps] == list(range(1245, 1275, 5))
    assert res.aborted_at is None
    agg = dsolve.aggregate_load(ckt_feeder)
    for step in res.steps:
        assert step.converged and step.dispatched
        trace = step.trace
        assert trace.overall_iterations == 1
        assert trace.iterations_to_converge == {6: 1}
        (row,) = trace.rows
        assert (row.pcc_bus, row.iteration, row.mismatch) == (6, 1, 0.0)
        assert row.v_dist_mag == row.v_trans_mag
        assert row.v_trans_mag == tuple(step.state.pcc_voltages[6].magnitudes())
        assert step.state.feeder_solutions == {}
        assert step.state.pcc_powers[6] == agg.scaled(day_shape.multiplier(step.t_min))


def test_baseline_stops_at_unconverged_step(system1, ckt_feeder, day_shape):
    # seven times the feeder's load: the transmission solve fails once the
    # evening ramp is high enough, and the clock does not advance past it
    heavy = {6: dsolve.scale_loads(ckt_feeder, 7.0)}
    res = cosim.run_decoupled_baseline(
        system1, heavy, {"day": day_shape}, start_min=900, horizon_min=300
    )
    assert res.aborted_at == res.steps[-1].t_min > 900
    assert not res.steps[-1].converged
    assert res.steps[-1].state is None
    assert all(s.converged for s in res.steps[:-1])


# -- unbalance sweep ----------------------------------------------------------


def test_sweep_shape_and_trend_system1(system1, ckt_feeder):
    feeders = {6: ckt_feeder}
    disp = dispatch_for(system1, feeders)
    sweep = cosim.sweep_unbalance(
        system1, feeders, [0.0, 0.05, 0.10, 0.15], dispatch=disp
    )
    assert sweep.pcc_buses == (6,)
    assert [r.alpha for r in sweep.rows] == [0.0, 0.05, 0.10, 0.15]
    ns = [r.n_per_pcc[6] for r in sweep.rows]
    assert all(b >= a for a, b in zip(ns, ns[1:]))  # non-decreasing


def test_single_alpha_row_matches_snapshot(system1, ckt_feeder, sys1_state):
    _, trace = sys1_state
    feeders = {6: ckt_feeder}
    disp = dispatch_for(system1, feeders)
    sweep = cosim.sweep_unbalance(system1, feeders, [0.0], dispatch=disp)
    assert len(sweep.rows) == 1
    assert sweep.rows[0].overall_n == trace.overall_iterations


def test_sweep_records_failures(system1, ckt_feeder):
    sweep = cosim.sweep_unbalance(
        system1, {6: ckt_feeder}, [0.0], eps=1e-13, max_rounds=2
    )
    assert not sweep.rows[0].converged
    assert sweep.rows[0].error
