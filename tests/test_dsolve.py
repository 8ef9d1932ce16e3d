import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcosim import dsolve
from tdcosim.dsolve import (
    Feeder,
    FeederLine,
    PhaseLoad,
    aggregate_load,
    apply_unbalance,
    scale_loads,
    sweep_solve,
    synth_feeder,
    validate_feeder,
)
from tdcosim.errors import ConvergenceError, VoltageCollapseError
from tdcosim.seqxform import PhaseVoltages

from oracles import feeder_nodal_newton_oracle


def z3(self_z, mutual=0.0):
    z = np.full((3, 3), mutual, dtype=complex)
    np.fill_diagonal(z, self_z)
    return z


def simple_feeder(load=None):
    loads = () if load is None else (PhaseLoad("n1", load),)
    return Feeder(
        12.47, 100.0, "head",
        (FeederLine("head", "n1", "abc", z3(0.5 + 1.0j, 0.1 + 0.2j)),),
        loads,
    )


# -- structural validation ----------------------------------------------------


def test_cycle_is_rejected():
    f = Feeder(
        12.47, 100.0, "head",
        (
            FeederLine("head", "a", "abc", z3(1.0j)),
            FeederLine("a", "b", "abc", z3(1.0j)),
            FeederLine("b", "head", "abc", z3(1.0j)),
        ),
        (),
    )
    problems = validate_feeder(f)
    assert any("not radial" in p for p in problems)


def test_unreachable_node_is_rejected():
    f = Feeder(
        12.47, 100.0, "head",
        (
            FeederLine("head", "a", "abc", z3(1.0j)),
            FeederLine("x", "y", "abc", z3(1.0j)),
        ),
        (),
    )
    assert any("not reachable" in p for p in validate_feeder(f))


def test_child_phases_must_be_subset_of_parent():
    f = Feeder(
        12.47, 100.0, "head",
        (
            FeederLine("head", "a", "ab", np.array([[1.0j, 0], [0, 1.0j]])),
            FeederLine("a", "b", "c", np.array([[1.0j]])),
        ),
        (),
    )
    assert any("not all present on" in p for p in validate_feeder(f))


def test_load_on_absent_phase_is_rejected():
    f = Feeder(
        12.47, 100.0, "head",
        (FeederLine("head", "a", "ab", np.array([[1.0j, 0], [0, 1.0j]])),),
        (PhaseLoad("a", {"c": 1.0 + 0j}),),
    )
    assert any("phase c not present" in p for p in validate_feeder(f))


def test_asymmetric_impedance_is_rejected():
    z = z3(1.0j)
    z[0, 1] = 0.5j
    f = Feeder(12.47, 100.0, "head", (FeederLine("head", "a", "abc", z),), ())
    assert any("not symmetric" in p for p in validate_feeder(f))


def test_malformed_lines_are_reported_not_raised():
    bad_phases = Feeder(
        12.47, 100.0, "head", (FeederLine("head", "n1", "abd", z3(1.0j)),), ()
    )
    assert validate_feeder(bad_phases) == ["line head-n1: invalid phase set 'abd'"]
    bad_shape = Feeder(
        12.47, 100.0, "head", (FeederLine("head", "n1", "abc", np.eye(2) * 1j),), ()
    )
    assert validate_feeder(bad_shape) == [
        "line head-n1: impedance matrix shape (2, 2) does not match phases 'abc'"
    ]


def test_line_checks_report_in_topology_order():
    lopsided = z3(1.0j)
    lopsided[0, 1] = 0.5j
    lopsided[2, 2] = 0.0
    f = Feeder(
        12.47, 100.0, "head",
        (
            FeederLine("n1", "n2", "c", np.array([[1.0j]])),
            FeederLine("head", "n1", "ab", np.array([[1.0j, 0], [0, 0]])),
            FeederLine("head", "n3", "abc", lopsided),
        ),
        (),
    )
    assert validate_feeder(f) == [
        "line head-n1: zero self-impedance on a present phase",
        "line head-n3: impedance matrix is not symmetric",
        "line head-n3: zero self-impedance on a present phase",
        "line n1-n2: phases 'c' not all present on parent path",
    ]


# -- sweep solve --------------------------------------------------------------


def test_zero_load_equals_head_everywhere():
    f = simple_feeder()
    head = PhaseVoltages.balanced(1.02, 0.1)
    sol = sweep_solve(f, head)
    assert np.array_equal(sol.v[1], head.as_array())
    assert sol.head_power.total() == 0
    assert sol.iterations == 1


def test_two_node_matches_scalar_fixed_point():
    # balanced positive-sequence currents collapse the matrix drop to one
    # scalar equation per phase: v = v_head - (z_self - z_mut) * conj(s / v)
    s_pu = (1.0 + 0.2j) / (100.0 / 3.0)
    z_base = 12.47**2 / 100.0
    z_eff = ((0.5 + 1.0j) - (0.1 + 0.2j)) / z_base
    v = 1.0 + 0j
    for _ in range(300):
        v = 1.0 - z_eff * np.conj(s_pu / v)
    f = simple_feeder({"a": 1.0 + 0.2j, "b": 1.0 + 0.2j, "c": 1.0 + 0.2j})
    sol = sweep_solve(f, PhaseVoltages.balanced(1.0), tol=1e-12)
    assert abs(sol.v[1, 0] - v) < 1e-10
    rot = np.exp(-2j * np.pi / 3)
    assert abs(sol.v[1, 1] - v * rot) < 1e-10


def test_small_corpus_matches_dense_newton_oracle(small_feeders):
    for f in small_feeders:
        assert validate_feeder(f) == []
        head = PhaseVoltages.balanced(1.01, -0.02)
        sol = sweep_solve(f, head, tol=1e-12, max_iter=300)
        oracle = feeder_nodal_newton_oracle(f, head)
        err = np.max(np.abs(sol.v - oracle))
        assert err < 1e-8, f"{f.name}: {err}"
        assert np.max(np.abs(sol.kcl_residuals())) < 1e-9, f.name


def test_kcl_holds_at_default_tolerance(small_feeders):
    for f in small_feeders:
        sol = sweep_solve(f, PhaseVoltages.balanced(1.0))  # default 1e-6 tol
        assert np.max(np.abs(sol.kcl_residuals())) < 1e-9, f.name


def test_nonconvergence_raises():
    f = simple_feeder({"a": 40.0 + 10.0j, "b": 40.0 + 10.0j, "c": 40.0 + 10.0j})
    with pytest.raises((ConvergenceError, VoltageCollapseError)):
        sweep_solve(f, PhaseVoltages.balanced(1.0))


@pytest.mark.parametrize(
    "budget",
    [{"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"max_iter": 0}],
)
def test_unworkable_sweep_budget_rejected(budget):
    with pytest.raises(ValueError):
        sweep_solve(simple_feeder(), PhaseVoltages.balanced(1.0), **budget)


def test_head_only_feeder_sweeps_once():
    load = {"a": 1.0 + 0.2j, "b": 0.5j, "c": 2.0}
    f = Feeder(12.47, 100.0, "head", (), (PhaseLoad("head", load),))
    head = PhaseVoltages.balanced(1.02, 0.1)
    sol = sweep_solve(f, head)
    assert sol.iterations == 1
    assert np.array_equal(sol.v, head.as_array()[None, :])
    assert sol.head_power.as_array() == pytest.approx([load[p] for p in "abc"], abs=1e-12)
    assert sol.i_line.shape == (0, 3)
    assert sol.line_names == ()


def test_head_voltage_band_enforced():
    f = simple_feeder()
    with pytest.raises(ValueError):
        sweep_solve(f, PhaseVoltages.balanced(0.4))
    with pytest.raises(ValueError):
        sweep_solve(f, PhaseVoltages.balanced(1.6))


def test_monotone_drop_along_uniform_path():
    lines = []
    loads = []
    prev = "head"
    for k in range(1, 7):
        lines.append(FeederLine(prev, f"n{k}", "abc", z3(0.4 + 0.8j, 0.1 + 0.2j)))
        loads.append(PhaseLoad(f"n{k}", {p: 0.5 + 0.1j for p in "abc"}))
        prev = f"n{k}"
    f = Feeder(12.47, 100.0, "head", tuple(lines), tuple(loads))
    sol = sweep_solve(f, PhaseVoltages.balanced(1.0), tol=1e-10)
    mags = np.abs(sol.v)
    for k in range(1, len(sol.node_order)):
        assert np.all(mags[k] <= mags[k - 1] + 1e-12)


# -- head power ---------------------------------------------------------------


def test_lossless_head_power_equals_load_sum():
    # vanishing impedance: head power approaches the 52.1 MW / 11.7 MVAr total
    f = Feeder(
        34.5, 100.0, "head",
        (FeederLine("head", "n1", "abc", z3(1e-9 + 1e-9j)),),
        (PhaseLoad("n1", {p: (52.1 + 11.7j) / 3 for p in "abc"}),),
    )
    sol = sweep_solve(f, PhaseVoltages.balanced(1.0), tol=1e-12)
    assert sol.head_power.total() == pytest.approx(52.1 + 11.7j, abs=1e-6)


def test_lossy_head_power_is_load_plus_i2r(small_feeders):
    f = small_feeders[3]  # ten-node feeder with laterals
    sol = sweep_solve(f, PhaseVoltages.balanced(1.0), tol=1e-12, max_iter=300)
    z_base = f.base_kv**2 / f.base_mva
    per_phase_base = f.base_mva / 3.0

    loads_pu = aggregate_load(f).total() / per_phase_base
    lines_by_pair = {frozenset((ln.from_node, ln.to_node)): ln for ln in f.lines}
    loss = 0j
    for (a, b), i_line in zip(sol.line_names, sol.i_line):
        ln = lines_by_pair[frozenset((a, b))]
        idx = [dsolve.PHASE_INDEX[p] for p in ln.phases]
        i_vec = i_line[idx]
        z = np.asarray(ln.z_abc) / z_base
        dv = z @ i_vec
        loss += np.sum(dv * np.conj(i_vec))
    head_pu = sol.head_power.total() / per_phase_base
    assert head_pu.real > loads_pu.real
    assert head_pu == pytest.approx(loads_pu + loss, abs=1e-8)


# -- unbalance ----------------------------------------------------------------


def test_alpha_zero_is_identity():
    f = simple_feeder({"a": 1.0 + 0.3j, "b": 1.0 + 0.3j, "c": 1.0 + 0.3j})
    g = apply_unbalance(f, 0.0)
    assert g.loads[0].s == f.loads[0].s


def test_alpha_15_percent_reshape():
    f = simple_feeder({"a": 0.003 + 0j, "b": 0.003 + 0j, "c": 0.003 + 0j})
    g = apply_unbalance(f, 0.15)
    s = g.loads[0].s
    assert s["a"] == pytest.approx(0.00345, abs=1e-15)
    assert s["b"] == pytest.approx(0.002775, abs=1e-15)
    assert s["c"] == pytest.approx(0.002775, abs=1e-15)


def test_single_phase_loads_untouched():
    f = Feeder(
        12.47, 100.0, "head",
        (FeederLine("head", "n1", "abc", z3(0.5 + 1.0j)),),
        (PhaseLoad("n1", {"b": 0.7 + 0.2j}),),
    )
    g = apply_unbalance(f, 0.2)
    assert g.loads[0].s == {"b": 0.7 + 0.2j}


def test_alpha_out_of_range():
    f = simple_feeder()
    with pytest.raises(ValueError):
        apply_unbalance(f, -0.01)
    with pytest.raises(ValueError):
        apply_unbalance(f, 0.51)


@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 5.0), st.floats(-1.0, 1.0),
            st.floats(0.01, 5.0), st.floats(-1.0, 1.0),
            st.floats(0.01, 5.0), st.floats(-1.0, 1.0),
        ),
        min_size=1,
        max_size=5,
    ),
    st.floats(0.0, 0.5),
)
@settings(max_examples=100, deadline=None)
def test_unbalance_preserves_totals(raw, alpha):
    lines = [FeederLine("head", "n1", "abc", z3(0.5 + 1.0j))]
    loads = [
        PhaseLoad("n1", {"a": complex(pa, qa), "b": complex(pb, qb), "c": complex(pc, qc)})
        for pa, qa, pb, qb, pc, qc in raw
    ]
    f = Feeder(12.47, 100.0, "head", tuple(lines), tuple(loads))
    g = apply_unbalance(f, alpha)
    for before, after in zip(f.loads, g.loads):
        assert after.total() == pytest.approx(before.total(), abs=1e-12)
    assert aggregate_load(g).total() == pytest.approx(
        aggregate_load(f).total(), abs=1e-12
    )


# -- synthetic feeder ---------------------------------------------------------


def test_smallest_synthetic_feeder():
    f = synth_feeder(nodes=2, total_p_mw=1.0, total_q_mvar=0.2, base_kv=12.47, seed=1)
    assert len(f.lines) == 1
    assert len(f.loads) == 1
    assert aggregate_load(f).total() == pytest.approx(1.0 + 0.2j, abs=1e-12)


def test_ckt24_scale_aggregates_and_drop(ckt_feeder):
    agg = aggregate_load(ckt_feeder)
    assert agg.total().real == pytest.approx(52.1, abs=1e-9)
    assert agg.total().imag == pytest.approx(11.7, abs=1e-9)
    sol = sweep_solve(ckt_feeder, PhaseVoltages.balanced(1.0))
    drop = 1.0 - np.min(np.abs(sol.v[sol.mask]))
    assert 0.02 <= drop <= 0.06
    # solved head power within 5 percent of the load spec (difference = losses)
    assert abs(sol.head_power.total() - (52.1 + 11.7j)) / abs(52.1 + 11.7j) < 0.05


def test_same_seed_same_feeder():
    a = synth_feeder(nodes=120, total_p_mw=10.0, total_q_mvar=3.0, base_kv=12.47, seed=9)
    b = synth_feeder(nodes=120, total_p_mw=10.0, total_q_mvar=3.0, base_kv=12.47, seed=9)
    assert len(a.lines) == len(b.lines)
    for la, lb in zip(a.lines, b.lines):
        assert la.from_node == lb.from_node and la.to_node == lb.to_node
        assert la.phases == lb.phases
        assert np.array_equal(la.z_abc, lb.z_abc)
    assert all(x.node == y.node and x.s == y.s for x, y in zip(a.loads, b.loads))


def test_synthetic_feeder_is_balanced_before_unbalance(ckt_feeder):
    per_phase = aggregate_load(ckt_feeder).as_array()
    assert np.max(np.abs(per_phase - per_phase[0])) < 1e-9
    sol = sweep_solve(ckt_feeder, PhaseVoltages.balanced(1.0), tol=1e-10)
    head = np.asarray(sol.head_power.as_array())
    assert np.max(np.abs(head - head[0])) < 1e-6


def test_synthetic_feeder_bad_specs_rejected():
    with pytest.raises(ValueError):
        synth_feeder(nodes=1, total_p_mw=1.0, total_q_mvar=0.0, base_kv=12.47)
    with pytest.raises(ValueError):
        synth_feeder(nodes=10, total_p_mw=0.0, total_q_mvar=0.0, base_kv=12.47)
    with pytest.raises(ValueError):
        synth_feeder(nodes=10, total_p_mw=1.0, total_q_mvar=0.0, base_kv=12.47,
                     phase_mix=(-0.1, 0.5, 0.6))


def test_value_copies_share_topology(ckt_feeder):
    f = Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
               ckt_feeder.lines, ckt_feeder.loads)
    scaled = scale_loads(f, 0.5)
    shifted = apply_unbalance(f, 0.1)
    assert scaled.topology() is f.topology()
    assert shifted.topology() is f.topology()
    assert scaled.load_index() is f.load_index() is shifted.load_index()
    assert f.load_s is not scaled.load_s


def test_load_array_folds_repeated_and_zero_phase_loads():
    f = Feeder(
        12.47, 100.0, "head",
        (FeederLine("head", "n1", "abc", z3(0.5 + 1.0j)),),
        (PhaseLoad("n1", {"a": 0.3 + 0.1j, "b": 0j, "c": 0.2j}),
         PhaseLoad("n1", {"b": 0.6 + 0j}),
         PhaseLoad("head", {"c": 0.9 + 0.3j})),
    )
    assert aggregate_load(f).as_array() == pytest.approx([0.3 + 0.1j, 0.6, 0.9 + 0.5j])
    s = dsolve._load_array(f, f.topology())
    assert s[f.topology().node_index["n1"]] == pytest.approx(
        np.array([0.3 + 0.1j, 0.6, 0.2j]) * 3 / 100.0)
    # the named zero phase keeps the load three-phase, so alpha reshapes it
    g = apply_unbalance(f, 0.3)
    assert set(g.loads[0].s) == {"a", "b", "c"}
    assert g.loads[0].s["b"] == pytest.approx(0.85 * f.loads[0].total() / 3)
    assert g.loads[0].total() == pytest.approx(f.loads[0].total())
    assert g.loads[1].s == f.loads[1].s


def test_scale_loads():
    f = simple_feeder({"a": 1.0 + 0.2j, "b": 1.0 + 0.2j, "c": 1.0 + 0.2j})
    g = scale_loads(f, 0.5)
    assert aggregate_load(g).total() == pytest.approx(0.5 * aggregate_load(f).total())
    with pytest.raises(ValueError):
        scale_loads(f, -1.0)
