"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and bounds are pinned here and nowhere else.
"""
import time

import numpy as np
import pytest

from tdcosim import cosim, dsolve, ed, io, tsolve
from tdcosim.errors import ParseError
from tdcosim.netmodel import CostCurve, Generator
from tdcosim.seqxform import FORTESCUE, FORTESCUE_INV, PhaseVoltages

from oracles import (
    coupled_sequence_direct_2bus,
    feeder_nodal_newton_oracle,
    feeder_records,
    nr_oracle,
)


def _dispatch(case, feeders):
    return ed.dispatch(case.generators, cosim.forecast_demand_mw(case, feeders))


def test_criterion_1_balanced_coupling_convergence(system1, ckt_feeder):
    feeders = {6: ckt_feeder}
    disp = _dispatch(system1, feeders)
    began = time.perf_counter()
    _, trace = cosim.couple_step(system1, feeders, dispatch=disp, eps=1e-4)
    wall = time.perf_counter() - began
    assert trace.overall_iterations <= 4, trace.overall_iterations
    assert wall < 2.0, wall
    print(
        f"ACCEPTANCE 1 PASS - balanced test system-1 converged in "
        f"{trace.overall_iterations} iterations (<= 4, paper: 3) in {wall:.2f} s"
    )


def test_criterion_2_unbalance_trend(system1, system2, ckt_feeder, feeders3):
    began = time.perf_counter()
    alphas = [0.0, 0.05, 0.10, 0.15]
    sweep2 = cosim.sweep_unbalance(
        system2, feeders3, alphas, dispatch=_dispatch(system2, feeders3), eps=1e-4
    )
    wall = time.perf_counter() - began
    sweep1 = cosim.sweep_unbalance(
        system1, {6: ckt_feeder}, alphas,
        dispatch=_dispatch(system1, {6: ckt_feeder}), eps=1e-4,
    )

    for sweep in (sweep1, sweep2):
        assert all(r.converged for r in sweep.rows)
        for bus in sweep.pcc_buses:
            ns = [r.n_per_pcc[bus] for r in sweep.rows]
            assert all(b >= a for a, b in zip(ns, ns[1:])), (bus, ns)
        for r in sweep.rows:
            assert r.overall_n == max(r.n_per_pcc.values())
    worst = sweep2.rows[-1]
    assert worst.alpha == 0.15
    assert worst.overall_n <= 12, worst.overall_n
    assert wall < 10.0, wall
    table = {r.alpha: (r.n_per_pcc, r.overall_n) for r in sweep2.rows}
    print(
        f"ACCEPTANCE 2 PASS - N non-decreasing over alpha, multi-feeder "
        f"alpha=15% overall N = {worst.overall_n} (<= 12, paper: 8), sweep "
        f"{wall:.2f} s; table: {table}"
    )


def test_criterion_3_table1_structure(system1, ckt_feeder):
    feeders = {6: ckt_feeder}
    eps = 1e-4
    state, trace = cosim.couple_step(
        system1, feeders, dispatch=_dispatch(system1, feeders), eps=eps
    )
    final = trace.overall_iterations - 1
    both = np.abs(trace.v_trans[final] - trace.v_dist[final])
    assert np.max(both) < eps
    (mags,) = np.abs(state.v_pcc)  # the one PCC, bus 6
    assert mags.max() - mags.min() < 1e-6
    print(
        f"ACCEPTANCE 3 PASS - both-side PCC voltages agree within eps at the "
        f"final iteration; balanced phases span {mags.max() - mags.min():.2e} pu "
        f"(< 1e-6); |V| = {mags[0]:.4f} pu"
    )


def test_criterion_4_transmission_oracle(case9):
    sol = tsolve.solve_three_sequence(case9)
    oracle = nr_oracle(case9)
    err = np.max(np.abs(sol.v1 - oracle))
    assert err < 1e-8, err
    assert np.max(np.abs(sol.v0)) < 1e-10
    assert np.max(np.abs(sol.v2)) < 1e-10
    print(
        f"ACCEPTANCE 4 PASS - balanced 9-bus three-sequence solve matches the "
        f"independent NR oracle to {err:.2e} (< 1e-8); |v0|,|v2| < 1e-10"
    )


def test_criterion_5_compensation_oracle():
    from test_tsolve import COUPLING, untransposed_case

    case = untransposed_case()
    br = case.branches[0]
    yb = tsolve.build_sequence_ybus(case)
    inj = np.array(
        [
            [0.01 - 0.004j, -0.02 + 0.01j, 0.005 + 0.002j],
            [0.03 + 0.01j, -0.05 - 0.02j, 0.01 - 0.006j],
        ],
        dtype=complex,
    )
    z_full = np.diag([br.z0_eff, br.z1, br.z2_eff]) + COUPLING
    direct = coupled_sequence_direct_2bus(z_full, br.b0_shunt, br.b1_shunt, inj)

    mats = [yb.y0, yb.y1, yb.y2]
    v = np.zeros((2, 3), dtype=complex)
    for _ in range(300):
        corr = tsolve.compensation_currents(yb, v.T)
        v_new = np.column_stack(
            [np.linalg.solve(mats[s], inj[:, s] + corr[s]) for s in range(3)]
        )
        if np.max(np.abs(v_new - v)) < 1e-15:
            v = v_new
            break
        v = v_new
    err = np.max(np.abs(v - direct))
    assert err < 1e-8, err
    print(
        f"ACCEPTANCE 5 PASS - decoupled-with-compensation fixed point matches "
        f"the direct coupled 6x6 solve to {err:.2e} (< 1e-8)"
    )


def test_criterion_6_distribution_oracle(small_feeders):
    worst_v = 0.0
    worst_kcl = 0.0
    for feeder in small_feeders:
        assert len(feeder.nodes()) <= 10
        head = PhaseVoltages.balanced(1.01, -0.02)
        sol = dsolve.sweep_solve(feeder, head, tol=1e-12, max_iter=300)
        oracle = feeder_nodal_newton_oracle(feeder, head)
        worst_v = max(worst_v, float(np.max(np.abs(sol.v - oracle))))
        worst_kcl = max(worst_kcl, float(np.max(np.abs(sol.kcl_residuals()))))
    assert worst_v < 1e-8, worst_v
    assert worst_kcl < 1e-9, worst_kcl
    print(
        f"ACCEPTANCE 6 PASS - sweep matches dense nodal Newton oracle to "
        f"{worst_v:.2e} (< 1e-8) on {len(small_feeders)} corpus feeders; "
        f"worst KCL residual {worst_kcl:.2e} (< 1e-9)"
    )


def test_criterion_7_ed_optimality():
    gens = [
        Generator(1, 0.0, 1000.0, -500.0, 500.0, CostCurve(0.01, 10.0, 0.0)),
        Generator(2, 0.0, 1000.0, -500.0, 500.0, CostCurve(0.02, 10.0, 0.0)),
    ]
    res = ed.dispatch(gens, 300.0)
    assert res.p_set[0] == pytest.approx(200.0, abs=1e-6)
    assert res.p_set[1] == pytest.approx(100.0, abs=1e-6)
    assert res.lam == pytest.approx(14.0, abs=1e-6)

    bound = [
        Generator(1, 0.0, 50.0, -500.0, 500.0, CostCurve(0.001, 5.0, 0.0)),
        Generator(2, 20.0, 1000.0, -500.0, 500.0, CostCurve(0.02, 10.0, 0.0)),
        Generator(3, 30.0, 1000.0, -500.0, 500.0, CostCurve(0.01, 60.0, 0.0)),
    ]
    res_b = ed.dispatch(bound, 200.0)
    lam = res_b.lam
    assert res_b.p_set[0] == pytest.approx(50.0, abs=1e-9)  # at p_max
    assert 2 * 0.001 * 50.0 + 5.0 <= lam + 1e-6
    assert res_b.p_set[2] == pytest.approx(30.0, abs=1e-9)  # at p_min
    assert 2 * 0.01 * 30.0 + 60.0 >= lam - 1e-6
    assert sum(res_b.p_set) == pytest.approx(200.0, abs=1e-6)
    print(
        "ACCEPTANCE 7 PASS - equal-lambda dispatch reproduces the hand-derived "
        "(200, 100) MW / lambda = 14 optimum to 1e-6 and satisfies the KKT "
        "sign conditions at binding limits"
    )


def test_criterion_8_timeseries_cadence(system1, flat_shape):
    tiny = dsolve.synth_feeder(
        nodes=2, total_p_mw=52.1, total_q_mvar=11.7, base_kv=34.5, seed=3
    )
    began = time.perf_counter()
    res = cosim.run_timeseries(
        system1, {6: tiny}, {"day": flat_shape}, start_min=0, horizon_min=1440
    )
    wall = time.perf_counter() - began
    assert len(res.steps) == 1440
    assert all(s.converged for s in res.steps)
    assert sum(1 for s in res.steps if s.dispatched) == 288

    # time never advances past an unconverged step
    res_fail = cosim.run_timeseries(
        system1, {6: tiny}, {"day": flat_shape},
        start_min=0, horizon_min=10, eps=1e-13, max_rounds=2,
    )
    assert res_fail.aborted_at == 0
    assert len(res_fail.steps) == 1

    print(
        f"ACCEPTANCE 8a PASS - 1440-min run: 1440 coupled solves, 288 dispatches "
        f"({wall:.1f} s total); clock halts on an unconverged step"
    )


def test_criterion_8_mean_step_time(system2):
    big = {
        bus: dsolve.synth_feeder(
            nodes=1000, total_p_mw=52.1, total_q_mvar=11.7, base_kv=34.5,
            seed=seed, name=f"ckt24_{bus}",
        )
        for bus, seed in ((5, 50), (6, 60), (8, 80))
    }
    disp = _dispatch(system2, big)
    walls = []
    state = None
    for _ in range(3):
        began = time.perf_counter()
        state, trace = cosim.couple_step(system2, big, dispatch=disp, eps=1e-4)
        walls.append(time.perf_counter() - began)
    mean_wall = sum(walls) / len(walls)
    assert mean_wall < 1.0, walls
    assert state is not None
    print(
        f"ACCEPTANCE 8b PASS - mean coupled-step wall time "
        f"{mean_wall * 1e3:.0f} ms (< 1 s) for 9-bus + three 1000-node feeders"
    )


def test_criterion_9_decoupled_baseline(system1, ckt_feeder, day_shape):
    shapes = {"day": day_shape}
    coupled = cosim.run_timeseries(
        system1, {6: ckt_feeder}, shapes, start_min=1245, horizon_min=30
    )
    baseline = cosim.run_decoupled_baseline(
        system1, {6: ckt_feeder}, shapes, start_min=1245, horizon_min=30
    )
    by_t = {s.t_min: s for s in baseline.steps}
    diffs = [
        np.max(
            np.abs(
                np.abs(step.state.v_pcc[0])
                - np.abs(by_t[step.t_min].state.v_pcc[0])
            )
        )
        for step in coupled.steps
        if step.t_min in by_t
    ]
    max_diff = max(diffs)
    assert max_diff > 0.0

    empty = dsolve.Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
                         feeder_records(ckt_feeder)[0], ())
    c0 = cosim.run_timeseries(system1, {6: empty}, shapes, start_min=1245, horizon_min=5)
    b0 = cosim.run_decoupled_baseline(
        system1, {6: empty}, shapes, start_min=1245, horizon_min=5
    )
    gap = np.max(
        np.abs(
            np.abs(c0.steps[0].state.v_pcc[0])
            - np.abs(b0.steps[0].state.v_pcc[0])
        )
    )
    assert gap < 1e-4
    print(
        f"ACCEPTANCE 9 PASS - lossy feeder: coupled vs decoupled max |d|V|| = "
        f"{max_diff:.2e} > 0; zero-load feeders coincide within eps "
        f"({gap:.2e} < 1e-4)"
    )


def test_criterion_10_transform_parse_properties(
    system1, ckt_feeder, flat_shape, tmp_path, data_dir
):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        back = FORTESCUE_INV @ (FORTESCUE @ v)
        worst = max(worst, float(np.max(np.abs(back - v))))
        rt = FORTESCUE @ (FORTESCUE_INV @ v)
        worst = max(worst, float(np.max(np.abs(rt - v))))
    assert worst < 1e-12, worst

    # deterministic quick fuzz over mutated case files
    base = (data_dir / "case9.td").read_text()
    crashes = 0
    for k in range(300):
        cut = int(rng.integers(0, len(base)))
        mutated = base[:cut] + chr(int(rng.integers(1, 128))) + base[cut + 1:]
        if rng.integers(0, 2):
            mutated = mutated[: int(rng.integers(0, len(mutated)))]
        try:
            io.parse_case(mutated)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0

    outs = []
    for sub in ("a", "b"):
        res = cosim.run_timeseries(
            system1, {6: ckt_feeder}, {"day": flat_shape}, start_min=0, horizon_min=3
        )
        out = tmp_path / sub
        io.write_results(res, out)
        outs.append(out)
    for name in ("pcc_voltages.csv", "coupling_trace.csv", "dispatch.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(
        f"ACCEPTANCE 10 PASS - transform round trip to {worst:.2e} (< 1e-12); "
        f"300 mutated parses without a crash; repeated runs byte-identical"
    )
