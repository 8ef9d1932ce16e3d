import re
from dataclasses import replace

import numpy as np
import pytest

from tdcosim import cosim, dsolve, ed, tsolve
from tdcosim.cli import main
from tdcosim.errors import ConvergenceError, TdcosimError, VoltageCollapseError
from tdcosim.seqxform import ALPHA, FORTESCUE

from oracles import feeder_records


def dispatch_for(case, feeders):
    return ed.dispatch(case.generators, cosim.forecast_demand_mw(case, feeders))


def assert_same_trace(a, b):
    """The two traces hold the same rounds, bit for bit, and the same counts."""
    assert (a.pcc_buses, a.iterations_to_converge, a.overall_iterations) == (
        b.pcc_buses, b.iterations_to_converge, b.overall_iterations)
    for name in ("v_trans", "v_dist", "mismatch"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


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
    last = trace.mismatch[trace.overall_iterations - 1]
    assert (last < 1e-4).all()


def test_both_sides_agree_at_final_iteration(sys1_state):
    state, trace = sys1_state
    final = trace.overall_iterations - 1
    assert np.allclose(trace.v_trans[final], trace.v_dist[final], atol=1e-4)
    # the feeder solutions are one exchange behind the final transmission
    # iterate, so their head voltage agrees with the PCC voltage within eps
    for bus, v in zip(state.pcc_buses, state.v_pcc, strict=True):
        assert np.allclose(
            np.abs(state.feeder_solutions[bus].v[0]),
            np.abs(v),
            atol=1e-4,
        )


@pytest.fixture(scope="module")
def sys2_state(system2, feeders3):
    # three PCCs whose powers and voltages differ, so a transposed (k, 3)
    # exchange or a PCC-order slip shows
    shifted = {b: dsolve.apply_unbalance(f, 0.1) for b, f in feeders3.items()}
    return cosim.couple_step(system2, shifted, dispatch=dispatch_for(system2, feeders3), eps=1e-4)


@pytest.mark.parametrize("states", ["sys1_state", "sys2_state"])
def test_converged_transmission_consumed_head_powers_verbatim(states, request):
    state, trace = request.getfixturevalue(states)
    buses = state.pcc_buses
    assert buses == trace.pcc_buses == tuple(sorted(state.feeder_solutions))
    assert state.v_pcc.shape == state.s_pcc.shape == trace.v_trans[-1].shape == (len(buses), 3)
    assert trace.mismatch[-1].shape == (len(buses),)
    for row, bus in enumerate(buses):
        assert np.array_equal(state.s_pcc[row], state.feeder_solutions[bus].s_head)
        i = state.seq.bus_index[bus]
        v012 = np.array([state.seq.v0[i], state.seq.v1[i], state.seq.v2[i]])
        v_abc = FORTESCUE @ v012
        assert np.array_equal(state.v_pcc[row], v_abc)
        assert np.array_equal(trace.v_trans[-1][row], np.abs(v_abc))


def test_pcc_voltages_view_reads_the_arrays(sys2_state):
    state, _ = sys2_state
    view = state.pcc_voltages
    assert tuple(view) == state.pcc_buses
    for v, row in zip(view.values(), state.v_pcc, strict=True):
        assert np.array_equal(v.as_array(), row)


def test_balanced_phases_agree(sys1_state):
    state, trace = sys1_state
    (mags,) = np.abs(state.v_pcc)  # the one PCC, bus 6
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
    # a sweep's failure names its round, as a transmission solve's does
    assert str(err.value).startswith("round 1: PCC bus 6: feeder 'sick': ")
    assert err.value.trace.overall_iterations == 1


def test_zero_load_feeder_two_rounds(system1, ckt_feeder):
    empty = dsolve.Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
                         feeder_records(ckt_feeder)[0], ())
    state, trace = cosim.couple_step(system1, {6: empty}, eps=1e-4)
    assert trace.overall_iterations == 2
    # PCC voltage equals the no-load transmission solution
    sol = tsolve.solve_three_sequence(system1)
    expected = abs(sol.v1[sol.bus_index[6]])
    assert np.abs(state.v_pcc[0]) == pytest.approx(expected, abs=1e-9)
    assert state.s_pcc.sum() == 0


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


def test_a_case_without_feeders_is_one_transmission_solve(case9):
    state, trace = cosim.couple_step(case9, {})
    assert trace.overall_iterations == 1 and trace.pcc_buses == ()
    assert state.feeder_solutions == {} and state.v_pcc.shape == (0, 3)
    alone = tsolve.solve_three_sequence(case9)
    for seq in ("v0", "v1", "v2"):
        assert np.array_equal(getattr(state.seq, seq), getattr(alone, seq))


@pytest.mark.parametrize("run", [cosim.run_timeseries, cosim.run_decoupled_baseline])
@pytest.mark.parametrize("buses, message", [
    ((), r"case expects feeders at buses \[6\]"),
    ((5, 6), "bus 5 has a feeder bound but no Feeder attachment in the case"),
])
def test_runs_check_the_feeder_binding(system1, ckt_feeder, day_shape, run, buses, message):
    feeders = {bus: ckt_feeder for bus in buses}
    with pytest.raises(ValueError, match=message):
        run(system1, feeders, {"day": day_shape}, start_min=0, horizon_min=5)


def test_nonconvergence_carries_trace(system1, ckt_feeder):
    with pytest.raises(ConvergenceError) as err:
        cosim.couple_step(system1, {6: ckt_feeder}, eps=1e-12, max_rounds=3)
    trace = err.value.trace
    assert trace.overall_iterations == 3
    assert len(trace.v_trans) == len(trace.v_dist) == len(trace.mismatch) == 3


def test_feeder_collapse_is_unconverged_with_trace(system1, ckt_feeder):
    heavy = dsolve.scale_loads(ckt_feeder, 4.0)
    with pytest.raises(ConvergenceError) as err:
        cosim.couple_step(system1, {6: heavy}, eps=1e-4)
    assert isinstance(err.value, VoltageCollapseError)
    assert err.value.pcc_bus == 6
    assert err.value.history
    trace = err.value.trace
    k = trace.overall_iterations
    assert len(trace.v_trans) == len(trace.mismatch) == k  # rounds 1 to k


def test_determinism_across_jobs(system2, feeders3):
    # the feeder round is serial in PCC order: the result must not depend on
    # the order in which the feeders are given
    disp = dispatch_for(system2, feeders3)
    reordered = {bus: feeders3[bus] for bus in sorted(feeders3, reverse=True)}
    state1, trace1 = cosim.couple_step(system2, feeders3, dispatch=disp)
    state2, trace2 = cosim.couple_step(system2, reordered, dispatch=disp)
    assert trace1.overall_iterations == trace2.overall_iterations
    assert trace1.pcc_buses == trace2.pcc_buses
    assert len(trace1.v_trans) == len(trace2.v_trans)
    np.testing.assert_array_equal(trace1.v_trans, trace2.v_trans)
    for bus in feeders3:
        assert np.array_equal(
            state1.feeder_solutions[bus].v, state2.feeder_solutions[bus].v
        )


def _record_sweeps(monkeypatch):
    """Record every feeder sweep's commanded head voltage and its solution."""
    sweeps = []
    sweep_solve = dsolve.sweep_solve

    def spy(feeder, head_v, **kwargs):
        sol = sweep_solve(feeder, head_v, **kwargs)
        sweeps.append((np.array(head_v), sol))
        return sol

    monkeypatch.setattr(dsolve, "sweep_solve", spy)
    return sweeps


@pytest.mark.parametrize("run", ["snapshot", "collapse", "warm series"])
def test_the_sweeps_measure_the_round_befores_transmission_side(
    system2, feeders3, ckt_feeder, day_shape, monkeypatch, run
):
    sweeps = _record_sweeps(monkeypatch)
    if run == "snapshot":
        traces = [cosim.couple_step(system2, feeders3,
                                    dispatch=dispatch_for(system2, feeders3))[1]]
    elif run == "collapse":
        # ckt24_synth at 3x load and alpha 0.1 at buses 5, 6 and 8: the feeder
        # at bus 5 collapses in the sweeps of round 21
        triple = dsolve.apply_unbalance(dsolve.scale_loads(ckt_feeder, 3.0), 0.1)
        feeders = dict.fromkeys((5, 6, 8), triple)
        with pytest.raises(VoltageCollapseError) as err:
            cosim.couple_step(system2, feeders, dispatch=dispatch_for(system2, feeders))
        assert err.value.pcc_bus == 5 and err.value.trace.overall_iterations == 21
        traces = [err.value.trace]
    else:
        res = cosim.run_timeseries(system2, feeders3, {"day": day_shape}, start_min=1020,
                                   horizon_min=10)
        assert [s.trace.overall_iterations for s in res.steps] == [3] + [2] * 9
        traces = [s.trace for s in res.steps]
    for trace in traces:
        k, rounds = len(trace.pcc_buses), len(trace.v_trans)
        # every round but the last sweeps each PCC's feeder once, in PCC order
        step, sweeps = sweeps[:k * (rounds - 1)], sweeps[k * (rounds - 1):]
        assert len(step) == k * (rounds - 1)
        for head, sol in step:
            assert sol.v[0].tobytes() == head.tobytes()  # the head is held bit for bit
        heads = np.abs([sol.v[0] for _, sol in step]).reshape(rounds - 1, k, 3)
        # round r's distribution side is the head |V| of round r - 1's sweeps,
        # which is round r - 1's transmission side; round 1 has no sweep before it
        np.testing.assert_array_equal(heads, trace.v_trans[:-1])
        np.testing.assert_array_equal(trace.v_dist, trace.v_trans[:1] + list(heads))
        # each PCC converged where its last streak of mismatches below eps began
        streak = np.zeros(k, dtype=int)
        for mismatch in trace.mismatch:
            streak = np.where(mismatch < cosim.COUPLING_EPS, streak + 1, 0)
        expected = dict(zip(trace.pcc_buses, (rounds + 1 - streak).tolist()))
        assert trace.iterations_to_converge == ({} if run == "collapse" else expected)
    assert sweeps == []


def test_each_pcc_converges_after_its_last_round_at_or_above_eps(
    system2, feeders3, monkeypatch
):
    # Scripted transmission |V| per round, balanced: the bus-5 mismatch dips
    # below eps in round 2 and rises above it in round 3.
    script = iter(np.outer(m, [1.0, ALPHA**2, ALPHA]) for m in (
        [1.0, 1.0, 1.0], [1.00005, 1.01, 1.01], [1.001, 1.01001, 1.01], [1.00101, 1.01002, 1.01],
    ))

    class Scripted:
        def __init__(self):
            self.v_pcc = next(script)

        def phase_voltages(self, buses):
            return self.v_pcc

    monkeypatch.setattr(tsolve, "solve_three_sequence", lambda *args, **kwargs: Scripted())
    _, trace = cosim.couple_step(system2, feeders3, eps=1e-4)
    assert [(m < 1e-4).tolist() for m in trace.mismatch] == [
        [False] * 3, [True, False, False], [False, True, True], [True] * 3]
    assert trace.overall_iterations == 4
    assert trace.iterations_to_converge == {5: 4, 6: 3, 8: 3}


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
    ref = np.abs(res.steps[0].state.v_pcc[0])
    for step in res.steps[1:]:
        assert np.allclose(np.abs(step.state.v_pcc[0]), ref, atol=1e-9)


def test_ed_cadence_counts(system1, ckt_feeder, day_shape):
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": day_shape}, start_min=100, horizon_min=23
    )
    assert len(res.steps) == 23
    assert sum(1 for s in res.steps if s.dispatched) == 5  # ceil(23 / 5)
    assert res.steps[0].dispatched


def test_setpoints_change_only_on_dispatch_minutes(system1, ckt_feeder, day_shape, monkeypatch):
    applied = []
    with_dispatch = cosim.with_dispatch
    monkeypatch.setattr(
        cosim, "with_dispatch", lambda case, p: applied.append(p) or with_dispatch(case, p)
    )
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": day_shape}, start_min=1245, horizon_min=12
    )
    dispatched = [s.dispatch.p_set for s in res.steps if s.dispatched]
    assert applied == dispatched and len(dispatched) == 3
    # each dispatch serves the demand of its own scaled step
    for step in res.steps[::5]:
        m = day_shape.multiplier(step.t_min)
        feeder = dsolve.aggregate_load(dsolve.scale_loads(ckt_feeder, m)).total().real
        lumped = sum(ld.p * m for ld in system1.loads if not ld.is_feeder)
        assert sum(step.dispatch.p_set) == pytest.approx(lumped + feeder, abs=1e-9)


def test_run_partitions_and_factorises_y0_y2_once(
    system1, ckt_feeder, day_shape, monkeypatch
):
    partitioned, inverted = [], []
    partition, inv = tsolve._grounded_partition, np.linalg.inv
    monkeypatch.setattr(
        tsolve, "_grounded_partition", lambda y: partitioned.append(y) or partition(y)
    )
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    res = cosim.run_timeseries(  # a fresh holder: the session's case may hold its network
        replace(system1, _network=[]), {6: ckt_feeder}, {"day": day_shape},
        start_min=600, horizon_min=60,
    )
    assert len(res.steps) == 60 and all(s.converged for s in res.steps)
    assert len(partitioned) == 2  # Y0 and Y2
    assert len(inverted) == 2  # their ground-tied blocks, into Z0 and Z2


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
    assert all(s.error.startswith("PCC coupling did not converge") for s in res.steps)


def test_each_sweep_starts_from_the_last_solution(system1, ckt_feeder, flat_shape, monkeypatch):
    sweeps = []  # (start, solution) of every sweep, in call order
    sweep_solve = dsolve.sweep_solve

    def spy(feeder, head_v, start=None):
        sol = sweep_solve(feeder, head_v, start=start)
        sweeps.append((start, sol))
        return sol

    monkeypatch.setattr(dsolve, "sweep_solve", spy)
    res = cosim.run_timeseries(system1, {6: ckt_feeder}, {"day": flat_shape}, horizon_min=3)
    assert sum(s.trace.overall_iterations - 1 for s in res.steps) == len(sweeps)
    assert sweeps[0][0] is None
    # round to round and minute to minute, one PCC: each start is the sweep before
    for (start, _), (_, before) in zip(sweeps[1:], sweeps):
        assert start is before.v
    cold = sweeps[0][1].iterations
    assert all(sol.iterations < cold for _, sol in sweeps[1:])
    # a warm minute still reports the transmission magnitudes in round 1
    assert all(np.array_equal(s.trace.v_dist[0], s.trace.v_trans[0]) for s in res.steps)
    # alpha rows of an unbalance sweep stay independent
    sweeps.clear()
    sweep = cosim.sweep_unbalance(system1, {6: ckt_feeder}, [0.0, 0.1])
    flat = [i for i, (start, _) in enumerate(sweeps) if start is None]
    assert flat == [0, sweep.rows[0].overall_n - 1]


def test_timeseries_is_repeatable_and_free_of_feeder_order(system2, feeders3, day_shape):
    def run(feeders):
        return cosim.run_timeseries(
            system2, feeders, {"day": day_shape}, start_min=600, horizon_min=6
        )

    first = run(feeders3)
    reordered = {bus: feeders3[bus] for bus in sorted(feeders3, reverse=True)}
    for other in (run(feeders3), run(reordered)):
        for a, b in zip(first.steps, other.steps, strict=True):
            assert a.converged
            assert_same_trace(a.trace, b.trace)
            for bus in feeders3:
                fa, fb = a.state.feeder_solutions[bus], b.state.feeder_solutions[bus]
                assert fa.iterations == fb.iterations
                assert np.array_equal(fa.v, fb.v)


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
            vc = np.abs(step.state.v_pcc[0])
            vd = np.abs(by_t[step.t_min].state.v_pcc[0])
            diffs.append(np.max(np.abs(vc - vd)))
    assert max(diffs) > 0  # the losses the decoupled model cannot see


def test_decoupled_baseline_equals_coupled_for_zero_load(system1, ckt_feeder, flat_shape):
    empty = dsolve.Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
                         feeder_records(ckt_feeder)[0], ())
    shapes = {"day": flat_shape}
    coupled = cosim.run_timeseries(
        system1, {6: empty}, shapes, start_min=0, horizon_min=5
    )
    baseline = cosim.run_decoupled_baseline(
        system1, {6: empty}, shapes, start_min=0, horizon_min=5
    )
    vc = np.abs(coupled.steps[0].state.v_pcc[0])
    vd = np.abs(baseline.steps[0].state.v_pcc[0])
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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-4])
def test_baseline_rejects_unusable_eps(system1, ckt_feeder, flat_shape, eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        cosim.run_decoupled_baseline(
            system1, {6: ckt_feeder}, {"day": flat_shape},
            start_min=0, horizon_min=10, eps=eps,
        )


def test_baseline_trace_and_aggregate_powers(system1, ckt_feeder, day_shape):
    res = cosim.run_decoupled_baseline(
        system1, {6: ckt_feeder}, {"day": day_shape}, start_min=1245, horizon_min=30
    )
    assert [s.t_min for s in res.steps] == list(range(1245, 1275, 5))
    assert res.aborted_at is None
    for step in res.steps:
        assert step.converged and step.dispatched
        trace = step.trace
        assert trace.overall_iterations == 1
        assert trace.iterations_to_converge == {6: 1}
        assert trace.pcc_buses == step.state.pcc_buses == (6,)
        (v_trans,), (v_dist,), (mismatch,) = trace.v_trans, trace.v_dist, trace.mismatch
        assert mismatch.tolist() == [0.0]
        assert np.array_equal(v_dist, v_trans)
        assert np.array_equal(v_trans, np.abs(step.state.v_pcc))
        assert step.state.feeder_solutions == {}
        scaled = dsolve.scale_loads(ckt_feeder, day_shape.multiplier(step.t_min))
        assert np.array_equal(step.state.s_pcc, [dsolve.aggregate_load(scaled).as_array()])


def test_baseline_stops_at_unconverged_step(system1, ckt_feeder, day_shape):
    # ten times the feeder's load: the positive-sequence NR diverges once the
    # evening ramp is high enough, and the clock does not advance past it
    heavy = {6: dsolve.scale_loads(ckt_feeder, 10.0)}
    res = cosim.run_decoupled_baseline(
        system1, heavy, {"day": day_shape}, start_min=900, horizon_min=300
    )
    assert res.aborted_at == res.steps[-1].t_min > 900
    assert not res.steps[-1].converged
    assert res.steps[-1].state is None
    assert all(s.converged and s.error is None for s in res.steps[:-1])
    # the failed step says why and carries its one round, with no arrays
    reason = re.fullmatch(
        r"positive-sequence NR did not reach 1e-08 pu in 30 iterations \(last mismatch (\S+)\)",
        res.steps[-1].error,
    )
    assert reason and float(reason[1]) > tsolve.NR_TOL
    assert res.steps[-1].trace.overall_iterations == 1
    trace = res.steps[-1].trace
    assert trace.v_trans == trace.v_dist == trace.mismatch == []


def test_transmission_failure_after_round_one_names_its_round(system1, ckt_feeder, monkeypatch):
    # heavy loads collapse a feeder before any solve after round 1 fails, so
    # the second solve is made to fail: the error names its round and
    # carries the arrays of the round before
    solve, calls = tsolve.solve_three_sequence, []

    def second_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ConvergenceError("sequence loop did not settle", [1.0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(tsolve, "solve_three_sequence", second_fails)
    with pytest.raises(ConvergenceError, match="^round 2: sequence loop did not settle$") as err:
        cosim.couple_step(system1, {6: ckt_feeder})
    assert err.value.history == [1.0]
    assert err.value.trace.overall_iterations == 2
    assert len(err.value.trace.v_trans) == len(err.value.trace.mismatch) == 1


def test_baseline_runs_the_whole_window_at_seven_times_the_load(system1, ckt_feeder, day_shape):
    # the sequence loop mixes through the passes whose change grows at this
    # load, so no step of the evening ramp runs out of passes
    heavy = {6: dsolve.scale_loads(ckt_feeder, 7.0)}
    res = cosim.run_decoupled_baseline(
        system1, heavy, {"day": day_shape}, start_min=900, horizon_min=300
    )
    assert res.aborted_at is None
    assert len(res.steps) == 60
    assert all(s.converged and s.error is None for s in res.steps)


def test_solves_that_settle_by_pass_two_are_the_plain_loops(
    system1, ckt_feeder, day_shape, monkeypatch
):
    # An evening hour of the day run with 1 % load noise, coupled and
    # decoupled: every transmission solve settles by its second pass, before
    # the sequence loop mixes, so it returns exactly what the plain loop does.
    # 133 solves: 3 rounds at the cold first minute, 2 at each of the 59 warm
    # ones, and one decoupled solve per dispatch minute (12).
    rng = np.random.default_rng(31)
    noise = 1.0 + 0.01 * rng.standard_normal(len(day_shape.multipliers))
    shapes = {"day": replace(day_shape, multipliers=tuple(day_shape.multipliers * noise))}
    solves = []
    solve = tsolve.solve_three_sequence

    def record(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solves.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(tsolve, "solve_three_sequence", record)
    for run in (cosim.run_timeseries, cosim.run_decoupled_baseline):
        res = run(system1, {6: ckt_feeder}, shapes, start_min=1020, horizon_min=60)
        assert all(step.converged for step in res.steps)
    monkeypatch.setattr(tsolve, "SEQ_LOOP_MEMORY", 0)
    assert len(solves) == 133
    for args, kwargs, mixed in solves:
        assert mixed.passes <= 2
        plain = solve(*args, **kwargs)
        assert (plain.passes, plain.iterations) == (mixed.passes, mixed.iterations)
        for v_plain, v_mixed in ((plain.v0, mixed.v0), (plain.v1, mixed.v1), (plain.v2, mixed.v2)):
            assert np.array_equal(v_plain, v_mixed)


# -- warm-started exchange ------------------------------------------------------


@pytest.fixture(scope="module")
def noisy_day(day_shape):
    """The day shape with 1 % load noise at seed 31, as the `day` bench uses."""
    rng = np.random.default_rng(31)
    noise = 1.0 + 0.01 * rng.standard_normal(len(day_shape.multipliers))
    return {"day": replace(day_shape, multipliers=tuple(day_shape.multipliers * noise))}


def _record_s_pcc(monkeypatch):
    """Record the PCC powers that every transmission solve consumes."""
    seen = []
    solve = tsolve.solve_three_sequence

    def record(case, buses=(), s_pcc=None, **kwargs):
        seen.append(None if s_pcc is None else np.array(s_pcc))
        return solve(case, buses, s_pcc, **kwargs)

    monkeypatch.setattr(tsolve, "solve_three_sequence", record)
    return seen


def _aggregates(feeders):
    return np.array([feeders[b].load_s.sum(axis=0) for b in sorted(feeders)])


@pytest.mark.parametrize("buses", [(6,), (5, 6, 8)])
def test_warm_steps_take_two_rounds_near_the_tight_exchange(
    system1, system2, ckt_feeder, noisy_day, buses
):
    # The evening hour of the `day` run: the first minute is cold (3 rounds),
    # every later one starts from a prediction of its head powers (2 rounds).
    # A tight exchange (eps 1e-10) stands in for the coupled fixed point; the
    # 3-round exchange this replaced was 2.9e-8 (1 PCC) and 8.2e-8 (3 PCCs)
    # from it at most, 1.8e-8 and 5.3e-8 in the median.
    case = system1 if buses == (6,) else system2
    feeders = {b: ckt_feeder for b in buses}
    window = dict(start_min=1020, horizon_min=60)
    res = cosim.run_timeseries(case, feeders, noisy_day, **window)
    tight = cosim.run_timeseries(
        case, feeders, noisy_day, eps=1e-10, max_rounds=200, **window
    )
    assert [s.trace.overall_iterations for s in res.steps] == [3] + [2] * 59
    gap = np.array([
        np.abs(s.state.v_pcc - t.state.v_pcc).max()
        for s, t in zip(res.steps, tight.steps, strict=True)
    ])
    # measured: 4.2e-8 and 7.8e-9 (1 PCC), 6.9e-8 and 1.4e-8 (3 PCCs)
    max_gap, median_gap = {(6,): (5e-8, 1e-8), (5, 6, 8): (8e-8, 2e-8)}[buses]
    assert gap.max() < max_gap
    assert np.median(gap) < median_gap


def test_warm_start_predicts_the_head_powers(system1, ckt_feeder, monkeypatch):
    feeders = {6: ckt_feeder}
    warm, _ = cosim.couple_step(system1, feeders)
    grown = {6: dsolve.scale_loads(ckt_feeder, 1.1)}
    seen = _record_s_pcc(monkeypatch)
    _, trace = cosim.couple_step(system1, grown, warm=warm)
    assert trace.overall_iterations == 2
    # the warm losses grow with the square of the load
    agg_w = ckt_feeder.load_s.sum(axis=0)
    losses = warm.feeder_solutions[6].s_head - agg_w
    assert seen[0][0] == pytest.approx(1.1 * agg_w + 1.21 * losses, rel=1e-12)


@pytest.mark.parametrize("which", ["decoupled", "another feeder", "other PCCs",
                                   "zero multiplier", "zero warm aggregate"])
def test_warm_start_falls_back_to_the_aggregate(
    system1, system2, ckt_feeder, flat_shape, monkeypatch, which
):
    feeders = {6: ckt_feeder}
    idle = {6: dsolve.scale_loads(ckt_feeder, 0.0)}
    if which == "decoupled":  # no feeder solutions
        run = cosim.run_decoupled_baseline(system1, feeders, {"day": flat_shape}, horizon_min=1)
        warm = run.steps[0].state
    elif which == "another feeder":  # solved on another topology
        rebuilt = dsolve.Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
                                *feeder_records(ckt_feeder))
        warm = cosim.couple_step(system1, {6: rebuilt})[0]
    elif which == "other PCCs":  # bus 6 solved on this topology, beside buses 5 and 8
        warm = cosim.couple_step(system2, dict.fromkeys((5, 6, 8), ckt_feeder))[0]
    elif which == "zero multiplier":  # this step has no load
        warm, feeders = cosim.couple_step(system1, feeders)[0], idle
    else:  # the warm step had none
        warm = cosim.couple_step(system1, idle)[0]
    seen = _record_s_pcc(monkeypatch)
    _, trace = cosim.couple_step(system1, feeders, warm=warm)
    assert np.array_equal(seen[0], _aggregates(feeders))
    assert trace.overall_iterations >= 2


def test_warm_start_falls_back_per_phase(system1, monkeypatch):
    # A three-phase load with nothing on phase c: the warm step's phase-c
    # aggregate is zero, so phase c starts from this step's aggregate while
    # phases a and b are predicted.
    z = np.full((3, 3), 0.1 + 0.3j, dtype=complex)
    np.fill_diagonal(z, 0.4 + 1.2j)
    lopsided = dsolve.Feeder(
        34.5, 100.0, "head",
        (dsolve.FeederLine("head", "n1", "abc", z),),
        (dsolve.PhaseLoad("n1", {"a": 8.0 + 2.0j, "b": 8.0 + 2.0j, "c": 0j}),),
        name="lopsided",
    )
    warm, _ = cosim.couple_step(system1, {6: lopsided})
    assert warm.agg[0][2] == 0
    even = {6: dsolve.apply_unbalance(lopsided, 0.0)}
    seen = _record_s_pcc(monkeypatch)
    _, trace = cosim.couple_step(system1, even, warm=warm)
    agg = _aggregates(even)[0]
    assert agg[2] != 0 and seen[0][0][2] == agg[2]
    assert np.all(seen[0][0][:2] != agg[:2])
    assert trace.overall_iterations >= 2


def test_snapshots_and_sweeps_start_cold(system2, feeders3, data_dir, monkeypatch):
    # Only the time loop hands couple_step a warm state: a snapshot and every
    # row of an unbalance sweep equal a warm=None call bit for bit.
    calls = []
    couple = cosim.couple_step

    def spy(*args, **kwargs):
        out = couple(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(cosim, "couple_step", spy)
    cosim.sweep_unbalance(system2, feeders3, [0.0, 0.1])
    assert main(["snapshot", "--case", str(data_dir / "case9.td"),
                 "--feeder", f"{data_dir / 'ckt24_synth.td'}@6"]) == 0
    assert len(calls) == 3
    for args, kwargs, (state, trace) in calls:
        assert kwargs.get("warm") is None
        cold_state, cold_trace = couple(*args, **{**kwargs, "warm": None})
        assert_same_trace(cold_trace, trace)
        assert state.pcc_buses == cold_state.pcc_buses
        assert np.array_equal(state.v_pcc, cold_state.v_pcc)
        assert np.array_equal(state.s_pcc, cold_state.s_pcc)


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
