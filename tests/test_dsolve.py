import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcosim import dsolve
from tdcosim.dsolve import (
    Feeder,
    FeederLine,
    PhaseLoad,
    aggregate_load,
    apply_unbalance,
    scale_loads,
    feeder_problems,
    sweep_solve,
    synth_feeder,
)
from tdcosim.errors import ConvergenceError, VoltageCollapseError
from tdcosim.seqxform import PhaseVoltages

from oracles import feeder_nodal_newton_oracle, feeder_records


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


def validate(feeder):
    return [str(problem) for problem in feeder_problems(feeder)]


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
    problems = validate(f)
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
    assert any("not reachable" in p for p in validate(f))


def test_child_phases_must_be_subset_of_parent():
    f = Feeder(
        12.47, 100.0, "head",
        (
            FeederLine("head", "a", "ab", np.array([[1.0j, 0], [0, 1.0j]])),
            FeederLine("a", "b", "c", np.array([[1.0j]])),
        ),
        (),
    )
    assert any("not all present on" in p for p in validate(f))


def test_load_on_absent_phase_is_rejected():
    f = Feeder(
        12.47, 100.0, "head",
        (FeederLine("head", "a", "ab", np.array([[1.0j, 0], [0, 1.0j]])),),
        (PhaseLoad("a", {"c": 1.0 + 0j}),),
    )
    assert any("phase c not present" in p for p in validate(f))


def test_asymmetric_impedance_is_rejected():
    z = z3(1.0j)
    z[0, 1] = 0.5j
    f = Feeder(12.47, 100.0, "head", (FeederLine("head", "a", "abc", z),), ())
    assert any("not symmetric" in p for p in validate(f))


def test_malformed_lines_raise_at_construction():
    with pytest.raises(ValueError) as err:
        Feeder(12.47, 100.0, "head", (FeederLine("head", "n1", "abd", z3(1.0j)),), ())
    assert str(err.value) == "line head-n1: invalid phase set 'abd'"
    with pytest.raises(ValueError) as err:
        Feeder(12.47, 100.0, "head", (FeederLine("head", "n1", "abc", np.eye(2) * 1j),), ())
    assert str(err.value) == (
        "line head-n1: impedance matrix shape (2, 2) does not match phases 'abc'"
    )


@pytest.mark.parametrize("load, message", [
    (PhaseLoad("zz", {"a": 1.0 + 0j}), "load at unknown node 'zz'"),
    (PhaseLoad("n1", {"b": 1.0 + 0j}), "load at n1: phase b not present there"),
])
def test_sweep_rejects_a_load_off_the_lines(load, message):
    f = Feeder(12.47, 100.0, "head",
               (FeederLine("head", "n1", "a", np.array([[0.5 + 1.0j]])),), (load,))
    assert validate(f) == [message]
    with pytest.raises(ValueError) as err:
        sweep_solve(f, PhaseVoltages.balanced(1.0))
    assert str(err.value) == f"feeder 'feeder': {message}"


def _zero_b(z):
    z[1, 1] = 0.0
    return z


def _lopsided(z):
    z[0, 1] = 0.1j
    return z


@pytest.mark.parametrize("lines, message", [
    ((FeederLine("head", "n1", "a", np.array([[0.5 + 1.0j]])),
      FeederLine("n1", "n2", "abc", z3(0.5 + 1.0j))),
     "line n1-n2: phases 'abc' not all present on parent path"),
    ((FeederLine("head", "n1", "abc", _zero_b(z3(0.5 + 1.0j))),),
     "line head-n1: zero self-impedance on a present phase"),
    ((FeederLine("head", "n1", "abc", _lopsided(z3(0.5 + 1.0j))),),
     "line head-n1: impedance matrix is not symmetric"),
], ids=["uncovered phase", "zero self-impedance", "asymmetric pad"])
def test_sweep_rejects_a_line_the_checks_reject(lines, message):
    # A feeder built from records is checked at its first sweep, not only
    # when it is parsed: 1 MVA per phase at the end of the lines.
    load = PhaseLoad(lines[-1].to_node, dict.fromkeys("abc", 1.0 + 0j))
    f = Feeder(12.47, 100.0, "head", lines, (load,))
    assert validate(f) == [message]
    with pytest.raises(ValueError) as err:
        sweep_solve(f, PhaseVoltages.balanced(1.0))
    assert str(err.value) == f"feeder 'feeder': {message}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("base", ["base_kv", "base_mva"])
def test_feeder_bases_must_be_finite_and_positive(base, value):
    f = simple_feeder(dict.fromkeys("abc", 1.0 + 0j))
    bases = {"base_kv": f.base_kv, "base_mva": f.base_mva, base: value}
    g = Feeder.from_arrays(bases["base_kv"], bases["base_mva"], f.head, f.line_from,
                           f.line_to, f.line_phases, f.line_z, f.load_nodes, f.load_phases,
                           f.load_s, name="bad")
    message = f"{base} must be finite and positive, got {value}"
    assert validate(g) == [message]
    with pytest.raises(ValueError) as err:
        sweep_solve(g, PhaseVoltages.balanced(1.0))
    assert str(err.value) == f"feeder 'bad': {message}"


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
    assert validate(f) == [  # depth-first: head-n1, n1-n2, head-n3
        "line head-n1: zero self-impedance on a present phase",
        "line n1-n2: phases 'c' not all present on parent path",
        "line head-n3: impedance matrix is not symmetric",
        "line head-n3: zero self-impedance on a present phase",
    ]


# -- sweep solve --------------------------------------------------------------


def test_zero_load_equals_head_everywhere():
    f = simple_feeder()
    head = PhaseVoltages.balanced(1.02, 0.1)
    sol = sweep_solve(f, head)
    assert np.array_equal(sol.v[1], head.as_array())
    assert sol.s_head.sum() == 0
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
        assert validate(f) == []
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
    assert sol.s_head == pytest.approx([load[p] for p in "abc"], abs=1e-12)
    assert sol.i_line.shape == (0, 3)
    assert sol.line_names == ()


def test_head_voltage_band_enforced():
    f = simple_feeder()
    with pytest.raises(ValueError):
        sweep_solve(f, PhaseVoltages.balanced(0.4))
    with pytest.raises(ValueError):
        sweep_solve(f, PhaseVoltages.balanced(1.6))
    with pytest.raises(ValueError):
        sweep_solve(f, PhaseVoltages(1.0, complex("nan+nanj"), 1.0))


@pytest.mark.parametrize("scale, alpha", [(0.95, 0.0), (0.9, 0.1), (1.0, 0.0)])
def test_warm_sweep_matches_the_cold_sweep(ckt_feeder, scale, alpha):
    # the start is solved at another head voltage and load level
    nearby = apply_unbalance(scale_loads(ckt_feeder, scale), alpha)
    start = sweep_solve(nearby, PhaseVoltages.balanced(1.0)).v
    head = PhaseVoltages.balanced(1.02, -0.05)
    cold = sweep_solve(ckt_feeder, head)
    warm = sweep_solve(ckt_feeder, head, start=start)
    assert np.max(np.abs(warm.v - cold.v)) < 1e-6
    assert np.max(np.abs(warm.kcl_residuals())) < 1e-15
    assert warm.iterations <= cold.iterations
    assert np.array_equal(warm.v[0], head.as_array())


def test_absent_phases_are_exactly_zero_cold_and_warm():
    f = synth_feeder(nodes=400, total_p_mw=5.0, total_q_mvar=1.5, base_kv=12.47, seed=3)
    mask = f.topology().mask
    assert {int(k) for k in mask.sum(axis=1)} == {1, 2, 3}  # laterals of every width
    head = PhaseVoltages.balanced(1.01, -0.03)
    cold = sweep_solve(f, head)
    # Warm from its own solution it stops at once: absent phases jump from
    # the head's voltage to their ancestor's, which is not a change.
    own = sweep_solve(f, head, start=cold.v)
    assert cold.iterations > 1 and own.iterations == 1
    assert np.max(np.abs(own.v - cold.v)) < dsolve.SWEEP_TOL
    # a start with garbage on absent phases, and the cold solution, zero there
    garbage = np.where(mask, cold.v, 7.0 - 3.0j)
    for sol in (cold, own, sweep_solve(f, head, start=garbage),
                sweep_solve(scale_loads(f, 1.2), head, start=cold.v)):
        assert np.all(sol.v[~mask] == 0)
        assert np.all(sol.i_line[~mask[1:]] == 0)
        assert np.all(np.abs(sol.v[mask]) > 0.9)
        assert np.max(np.abs(sol.kcl_residuals())) < 1e-15
    assert np.max(np.abs(sweep_solve(f, head, start=garbage).v - cold.v)) < 1e-6


def test_warm_start_is_rescaled_to_the_head():
    f = simple_feeder({"a": 1.0 + 0.3j, "b": 0.8 + 0.2j, "c": 1.2 + 0.1j})
    head = PhaseVoltages.balanced(1.01, 0.2)
    sol = sweep_solve(f, head, tol=1e-12)
    # the same solution at a head rotated and scaled per phase converges at once
    start = sol.v * np.array([0.9, 1.1j, -1.05])
    warm = sweep_solve(f, head, start=start)
    assert warm.iterations == 1
    assert np.max(np.abs(warm.v - sol.v)) < 1e-12
    # a start of another dtype or layout is read as complex
    for other in (start.tolist(), np.asfortranarray(start), start.astype(np.complex64)):
        assert np.max(np.abs(sweep_solve(f, head, start=other).v - sol.v)) < 1e-6
    assert _same_bits(sweep_solve(f, head, start=np.ones((2, 3))).v, sweep_solve(f, head).v)


def test_bad_warm_start_rejected(ckt_feeder):
    head = PhaseVoltages.balanced(1.0)
    v = sweep_solve(ckt_feeder, head).v
    with pytest.raises(ValueError, match="shape"):
        sweep_solve(ckt_feeder, head, start=v[1:])
    zero_head = v.copy()
    zero_head[0, 1] = 0.0
    with pytest.raises(ValueError, match="zero head"):
        sweep_solve(ckt_feeder, head, start=zero_head)


def test_non_finite_start_rejected(ckt_feeder):
    head = PhaseVoltages.balanced(1.0)
    v = sweep_solve(ckt_feeder, head).v
    for at, bad in (((7, 0), complex("nan")), ((0, 2), complex("inf")),
                    ((~ckt_feeder.topology().mask).nonzero(), complex(0.0, -np.inf))):
        start = v.copy()
        start[at] = bad  # on a present phase, at the head, on absent phases
        with pytest.raises(ValueError, match="not finite"):
            sweep_solve(ckt_feeder, head, start=start)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, -np.inf)])
def test_non_finite_load_stops_at_the_first_iteration(ckt_feeder, bad):
    f = ckt_feeder
    load_s = f.load_s.copy()
    load_s[3, np.flatnonzero(f.load_phases[3])[0]] = bad
    g = Feeder.from_arrays(f.base_kv, f.base_mva, f.head, f.line_from, f.line_to,
                           f.line_phases, f.line_z, f.load_nodes, f.load_phases, load_s,
                           name="bad")
    for start in (None, sweep_solve(f, PhaseVoltages.balanced(1.0)).v):
        # NumPy warns of the NaN it makes; the error is what is tested here.
        with pytest.raises(ConvergenceError, match=r"not finite \(nan\) at iteration 1$") as info, \
                np.errstate(invalid="ignore"):
            sweep_solve(g, PhaseVoltages.balanced(1.0), start=start)
        assert type(info.value) is ConvergenceError
        assert len(info.value.history) == 1


def test_start_only_from_the_same_topology(ckt_feeder):
    sol = sweep_solve(ckt_feeder, PhaseVoltages.balanced(1.0))
    assert sol.start_for(scale_loads(ckt_feeder, 1.1)) is sol.v
    rebuilt = Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
                     *feeder_records(ckt_feeder))
    assert sol.start_for(rebuilt) is None


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
    assert sol.s_head.sum() == pytest.approx(52.1 + 11.7j, abs=1e-6)


def test_lossy_head_power_is_load_plus_i2r(small_feeders):
    f = small_feeders[3]  # ten-node feeder with laterals
    sol = sweep_solve(f, PhaseVoltages.balanced(1.0), tol=1e-12, max_iter=300)
    z_base = f.base_kv**2 / f.base_mva
    per_phase_base = f.base_mva / 3.0

    loads_pu = aggregate_load(f).total() / per_phase_base
    lines_by_pair = {frozenset((ln.from_node, ln.to_node)): ln for ln in feeder_records(f)[0]}
    loss = 0j
    for (a, b), i_line in zip(sol.line_names, sol.i_line):
        ln = lines_by_pair[frozenset((a, b))]
        idx = [dsolve.PHASE_INDEX[p] for p in ln.phases]
        i_vec = i_line[idx]
        z = np.asarray(ln.z_abc) / z_base
        dv = z @ i_vec
        loss += np.sum(dv * np.conj(i_vec))
    head_pu = sol.s_head.sum() / per_phase_base
    assert head_pu.real > loads_pu.real
    assert head_pu == pytest.approx(loads_pu + loss, abs=1e-8)


# -- unbalance ----------------------------------------------------------------


def test_alpha_zero_is_identity():
    f = simple_feeder({"a": 1.0 + 0.3j, "b": 1.0 + 0.3j, "c": 1.0 + 0.3j})
    g = apply_unbalance(f, 0.0)
    assert feeder_records(g)[1][0].s == feeder_records(f)[1][0].s


def test_alpha_15_percent_reshape():
    f = simple_feeder({"a": 0.003 + 0j, "b": 0.003 + 0j, "c": 0.003 + 0j})
    g = apply_unbalance(f, 0.15)
    s = feeder_records(g)[1][0].s
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
    assert feeder_records(g)[1][0].s == {"b": 0.7 + 0.2j}


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
    for before, after in zip(feeder_records(f)[1], feeder_records(g)[1]):
        assert sum(after.s.values()) == pytest.approx(sum(before.s.values()), abs=1e-12)
    assert aggregate_load(g).total() == pytest.approx(
        aggregate_load(f).total(), abs=1e-12
    )


# -- synthetic feeder ---------------------------------------------------------


def test_smallest_synthetic_feeder():
    f = synth_feeder(nodes=2, total_p_mw=1.0, total_q_mvar=0.2, base_kv=12.47, seed=1)
    assert len(f.line_from) == 1
    assert len(f.load_nodes) == 1
    assert aggregate_load(f).total() == pytest.approx(1.0 + 0.2j, abs=1e-12)


def test_ckt24_scale_aggregates_and_drop(ckt_feeder):
    agg = aggregate_load(ckt_feeder)
    assert agg.total().real == pytest.approx(52.1, abs=1e-9)
    assert agg.total().imag == pytest.approx(11.7, abs=1e-9)
    sol = sweep_solve(ckt_feeder, PhaseVoltages.balanced(1.0))
    drop = 1.0 - np.min(np.abs(sol.v[sol.mask]))
    assert 0.02 <= drop <= 0.06
    # solved head power within 5 percent of the load spec (difference = losses)
    assert abs(sol.s_head.sum() - (52.1 + 11.7j)) / abs(52.1 + 11.7j) < 0.05


def test_same_seed_same_feeder():
    a = synth_feeder(nodes=120, total_p_mw=10.0, total_q_mvar=3.0, base_kv=12.47, seed=9)
    b = synth_feeder(nodes=120, total_p_mw=10.0, total_q_mvar=3.0, base_kv=12.47, seed=9)
    (a_lines, a_loads), (b_lines, b_loads) = feeder_records(a), feeder_records(b)
    assert len(a_lines) == len(b_lines)
    for la, lb in zip(a_lines, b_lines):
        assert la.from_node == lb.from_node and la.to_node == lb.to_node
        assert la.phases == lb.phases
        assert np.array_equal(la.z_abc, lb.z_abc)
    assert all(x.node == y.node and x.s == y.s for x, y in zip(a_loads, b_loads))


def test_synthetic_feeder_is_balanced_before_unbalance(ckt_feeder):
    per_phase = aggregate_load(ckt_feeder).as_array()
    assert np.max(np.abs(per_phase - per_phase[0])) < 1e-9
    sol = sweep_solve(ckt_feeder, PhaseVoltages.balanced(1.0), tol=1e-10)
    head = sol.s_head
    assert np.max(np.abs(head - head[0])) < 1e-6


def test_synthetic_feeder_bad_specs_rejected():
    with pytest.raises(ValueError):
        synth_feeder(nodes=1, total_p_mw=1.0, total_q_mvar=0.0, base_kv=12.47)
    with pytest.raises(ValueError):
        synth_feeder(nodes=10, total_p_mw=0.0, total_q_mvar=0.0, base_kv=12.47)
    with pytest.raises(ValueError):
        synth_feeder(nodes=10, total_p_mw=1.0, total_q_mvar=0.0, base_kv=12.47,
                     phase_mix=(-0.1, 0.5, 0.6))


@pytest.mark.parametrize("nodes, q", [(50, -200.0), (50, -30.0)])
def test_a_demand_it_cannot_calibrate_is_refused(monkeypatch, nodes, q):
    # a leading demand lifts the nodes to the head's voltage or above, so the
    # drop the rescale aims from is about zero and the next sweeps fail
    failed = []
    sweep = dsolve.sweep_solve

    def counted(*args, **kwargs):
        try:
            return sweep(*args, **kwargs)
        except ConvergenceError:
            failed.append(None)
            raise

    monkeypatch.setattr(dsolve, "sweep_solve", counted)
    with pytest.raises(ValueError, match=re.escape(
            f"cannot calibrate a feeder for 52.1 MW and {q} MVAr: no full-load voltage "
            f"drop in 2.5-5.5 % after 6 tries")):
        synth_feeder(nodes=nodes, total_p_mw=52.1, total_q_mvar=q, base_kv=34.5)
    assert failed  # a failed sweep was retried at a quarter of the impedances


@given(st.integers(2, 300), st.floats(0.5, 60.0), st.floats(-0.6, 0.6), st.integers(0, 99))
@settings(max_examples=25, deadline=None)
def test_a_synthetic_feeder_is_returned_only_calibrated(nodes, p, q_ratio, seed):
    try:
        f = synth_feeder(nodes=nodes, total_p_mw=p, total_q_mvar=q_ratio * p, base_kv=12.47,
                         seed=seed)
    except ValueError as exc:
        assert str(exc).startswith("cannot calibrate a feeder for ")
        return
    sol = sweep_solve(f, PhaseVoltages.balanced(1.0), tol=1e-8, max_iter=200)
    assert 0.025 <= 1.0 - np.min(np.abs(sol.v[sol.mask])) <= 0.055


def test_value_copies_share_topology(ckt_feeder):
    f = Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head,
               *feeder_records(ckt_feeder))
    scaled = scale_loads(f, 0.5)
    shifted = apply_unbalance(f, 0.1)
    assert scaled.topology() is f.topology()
    assert shifted.topology() is f.topology()
    assert scaled.sweep_plan() is f.sweep_plan() is shifted.sweep_plan()
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
    s = dsolve._load_array(f)
    assert s[f.topology().node_index["n1"]] == pytest.approx(
        np.array([0.3 + 0.1j, 0.6, 0.2j]) * 3 / 100.0)
    # the named zero phase keeps the load three-phase, so alpha reshapes it
    g = apply_unbalance(f, 0.3)
    before, after = feeder_records(f)[1], feeder_records(g)[1]
    assert set(after[0].s) == {"a", "b", "c"}
    assert after[0].s["b"] == pytest.approx(0.85 * sum(before[0].s.values()) / 3)
    assert sum(after[0].s.values()) == pytest.approx(sum(before[0].s.values()))
    assert after[1].s == before[1].s


def _same_bits(a, b):
    a, b = np.asarray(a).view(float), np.asarray(b).view(float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _solution_bits(sol):
    return sol.v, sol.i_line, sol.s_head


def test_value_copies_sweep_as_a_rebuilt_feeder(ckt_feeder):
    lines, loads = feeder_records(ckt_feeder)
    f = Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head, lines, loads)
    head = PhaseVoltages.balanced(1.01, -0.03)
    sweep_solve(f, head)  # builds the plan the copies share
    for g in (scale_loads(f, 0.97), apply_unbalance(scale_loads(f, 0.97), 0.15)):
        assert g.sweep_plan() is f.sweep_plan()
        rebuilt = Feeder(f.base_kv, f.base_mva, f.head, lines, feeder_records(g)[1])
        assert rebuilt.sweep_plan() is not f.sweep_plan()
        a, b = sweep_solve(g, head), sweep_solve(rebuilt, head)
        assert a.iterations == b.iterations
        assert all(map(_same_bits, _solution_bits(a), _solution_bits(b)))


def test_value_copies_never_reuse_their_parents_load_fold(ckt_feeder):
    lines, loads = feeder_records(ckt_feeder)
    f = Feeder(ckt_feeder.base_kv, ckt_feeder.base_mva, ckt_feeder.head, lines, loads)
    fold, s = dsolve._load_fold(f), dsolve._load_array(f)
    assert dsolve._load_fold(f) is fold  # folded once while it is the copy swept
    assert not fold.flags.writeable
    copies = (scale_loads(f, 1.0), scale_loads(f, 1.7), apply_unbalance(f, 0.0),
              apply_unbalance(f, 0.3), apply_unbalance(scale_loads(f, 1.7), 0.3))
    for g in copies:
        rebuilt = Feeder(f.base_kv, f.base_mva, f.head, lines, feeder_records(g)[1])
        folded = dsolve._load_fold(g)
        assert folded is not fold
        assert dsolve._load_fold(g) is folded
        assert _same_bits(folded, dsolve._load_fold(rebuilt))
        assert _same_bits(dsolve._load_array(g), dsolve._load_array(rebuilt))
        # and back to the parent's loads
        assert _same_bits(dsolve._load_fold(f), fold)
        assert _same_bits(dsolve._load_array(f), s)
    # the fold follows the feeder's load array, not the feeder object
    f.load_s = 2.0 * f.load_s
    assert _same_bits(dsolve._load_fold(f), 2.0 * fold)
    assert _same_bits(dsolve._load_array(f), 2.0 * s)


def test_array_head_gives_the_bits_of_a_record_head(ckt_feeder):
    record = PhaseVoltages(1.01 + 0.02j, -0.49 - 0.87j, -0.52 + 0.86j)
    f = apply_unbalance(ckt_feeder, 0.2)
    cold = [sweep_solve(f, head) for head in (record, record.as_array())]
    start = cold[0].v
    warm = [sweep_solve(scale_loads(f, 1.1), head, start=start)
            for head in (record, list(record.as_array()))]
    for a, b in (cold, warm):
        assert a.iterations == b.iterations
        assert all(map(_same_bits, _solution_bits(a), _solution_bits(b)))
    with pytest.raises(ValueError, match="shape"):
        sweep_solve(f, record.as_array()[:2])


def _full_layout_sweep(feeder, head, start=None, max_iter=dsolve.SWEEP_MAX_ITER):
    """The ladder method over the feeder's line and load arrays, every node
    with all three phases, and the smallest present |V| taken at every
    iteration.

    Nodes are numbered by ``_depth_first_walk``.  A line's current is its
    subtree's sum of load currents, a difference of suffix sums, and a
    node's voltage the sum of the head voltage and the drops along its path,
    a prefix sum less the terms of subtrees already closed.  An absent phase
    carries no load and no drop, so it holds its nearest ancestor's voltage
    (the head's at the start), and a warm start's first change is taken
    over present phases.  Returns the outcome, one of ``"converged"``,
    ``"collapse"``, ``"not finite"`` or ``"budget"``, with ``(v, i_line,
    s_head, iterations)``, the collapse message or None, and the change
    history.
    """
    names, parents, ends, vias = zip(*_depth_first_walk(feeder_records(feeder)[0], feeder.head))
    n = len(names)
    end = np.array(ends)
    by_end = np.argsort(end, kind="stable")
    n_ended = np.searchsorted(end[by_end], np.arange(n), "right")
    mask = np.ones((n, 3), dtype=bool)
    mask[1:] = [[ph in feeder.line_phases[j] for ph in "abc"] for j in vias[1:]]
    neg_z = -(feeder.line_z[list(vias[1:])] / (feeder.base_kv**2 / feeder.base_mva))
    s = np.zeros((n, 3), dtype=complex)
    terms = (np.ascontiguousarray(feeder.load_s).view(float) / (feeder.base_mva / 3.0))
    np.add.at(s, [names.index(node) for node in feeder.load_nodes], terms.view(complex))

    def line_currents(cur):
        suffix = np.zeros((n + 1, 3), dtype=complex)
        suffix[:n] = cur[::-1].cumsum(axis=0)[::-1]
        return suffix[:n] - suffix[end]

    if start is None:
        v = np.empty((n, 3), dtype=complex)
        v[:] = head
    else:
        v = np.where(mask, start * (head / start[0]), head)
    history = []
    for iterations in range(1, max_iter + 1):
        acc = line_currents(np.conjugate(s / v))
        b = np.empty((n, 3), dtype=complex)
        b[0] = head
        b[1:] = np.einsum("lij,lj->li", neg_z, acc[1:])
        ended = np.zeros((n + 1, 3), dtype=complex)
        ended[1:] = b[by_end].cumsum(axis=0)
        v_new = b.cumsum(axis=0) - ended[n_ended]
        change = v_new - v
        if iterations == 1 and start is not None:
            change = change * mask
        history.append(float(np.abs(change).max()))
        if not history[-1] < np.inf:
            return "not finite", None, history
        v = v_new
        worst = float(np.abs(v)[mask].min())
        if worst < dsolve.COLLAPSE_FLOOR:
            return "collapse", (f"feeder {feeder.name!r}: voltage collapsed to {worst!r} "
                                f"pu during sweep {iterations}"), history
        if history[-1] < dsolve.SWEEP_TOL:
            break
    else:
        return "budget", None, history
    acc = line_currents(np.conjugate(np.where(mask, s / v, 0.0)))
    s_head = v[0] * np.conj(acc[0]) * (feeder.base_mva / 3.0)
    return "converged", (names, v, acc[1:], s_head, iterations), history


def _assert_sweep_matches_full_layout(feeder, head, start=None, max_iter=dsolve.SWEEP_MAX_ITER):
    """Run ``sweep_solve`` and ``_full_layout_sweep`` and require the same
    outcome, the same bits on present phases and exact +0.0 on absent ones;
    returns the outcome.  Only the sign of an exact zero current may differ:
    the full layout adds the absent phases' +0.0 terms, which turn a -0.0
    sum into +0.0."""
    kind, result, history = _full_layout_sweep(feeder, head, start, max_iter)
    try:
        sol = sweep_solve(feeder, head, start=start, max_iter=max_iter)
    except VoltageCollapseError as exc:
        assert (kind, str(exc)) == ("collapse", result)
        assert _same_bits(exc.history, history)
        return kind
    except ConvergenceError as exc:
        assert kind == ("not finite" if "not finite" in str(exc) else "budget")
        assert _same_bits(exc.history, history)
        return kind
    names, v, i_line, s_head, iterations = result
    assert kind == "converged" and sol.node_order == names
    assert sol.iterations == iterations
    mask = sol.mask
    assert _same_bits(sol.v[mask], v[mask])
    assert np.array_equal(sol.i_line[mask[1:]], i_line[mask[1:]])
    assert np.array_equal(sol.s_head, s_head)
    absent = np.concatenate([sol.v[~mask], sol.i_line[~mask[1:]]])
    assert _same_bits(absent, np.zeros_like(absent))
    return kind


def test_ckt24_near_collapse_raises_where_every_iteration_is_checked(ckt_feeder):
    head = PhaseVoltages.balanced(1.0, 0.05).as_array()
    start = sweep_solve(scale_loads(ckt_feeder, 4.0), head).v
    kinds = []
    for m in np.arange(5.0, 9.01, 0.125):  # collapse sets in between 5.5 and 5.75
        g = scale_loads(ckt_feeder, m)
        kinds.append(_assert_sweep_matches_full_layout(g, head))
        kinds.append(_assert_sweep_matches_full_layout(g, 0.98 * head, start))
    assert kinds.count("converged") >= 8 and kinds.count("collapse") >= 40


@given(st.lists(
    st.tuples(
        st.sampled_from(["head", "n1", "n2", "n3"]),
        st.sampled_from(dsolve.PHASE_SETS),
        st.lists(st.complex_numbers(max_magnitude=50.0), min_size=3, max_size=3),
    ),
    max_size=12,
))
@settings(max_examples=100, deadline=None)
def test_load_fold_equals_a_loop_over_the_loads(records):
    lines = (FeederLine("head", "n1", "abc", z3(0.5 + 1.0j)),
             FeederLine("n1", "n2", "abc", z3(0.5 + 1.0j)),
             FeederLine("head", "n3", "abc", z3(0.5 + 1.0j)))
    loads = [PhaseLoad(node, dict(zip(ps, vals))) for node, ps, vals in records]
    loads.append(PhaseLoad("n2", {"a": 0j, "b": 0.4 + 0.1j, "c": -0.2j}))
    loads.append(PhaseLoad("n2", {"b": 0.3 - 0.7j}))  # repeated on one node
    loads.append(PhaseLoad("head", {"c": 0.9 + 0.3j}))
    f = Feeder(12.47, 90.0, "head", lines, loads)
    index = f.topology().node_index
    s = np.zeros((len(index), 3), dtype=complex)
    for ld in loads:
        for ph, val in ld.s.items():
            s[index[ld.node], dsolve.PHASE_INDEX[ph]] += val / (f.base_mva / 3.0)
    assert _same_bits(dsolve._load_array(f), s)


def test_scale_loads():
    f = simple_feeder({"a": 1.0 + 0.2j, "b": 1.0 + 0.2j, "c": 1.0 + 0.2j})
    g = scale_loads(f, 0.5)
    assert aggregate_load(g).total() == pytest.approx(0.5 * aggregate_load(f).total())
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            scale_loads(f, bad)


# -- random radial trees and cancellation pins ---------------------------------


@st.composite
def radial_trees(draw):
    """Lines, loads and a line permutation of a random radial tree headed at n0.

    Each node's phase set is drawn from its parent's subsets, and each line is
    written in either orientation.
    """
    n = draw(st.integers(2, 12))
    node_phases = ["abc"]
    lines = []
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        ps = draw(st.sampled_from(
            [s for s in dsolve.PHASE_SETS if set(s) <= set(node_phases[p])]
        ))
        node_phases.append(ps)
        z_self = complex(draw(st.floats(0.01, 0.05)), draw(st.floats(0.02, 0.1)))
        z = np.full((len(ps), len(ps)), draw(st.floats(0.0, 0.4)) * z_self)
        np.fill_diagonal(z, z_self)
        ends = (f"n{p}", f"n{i}") if draw(st.booleans()) else (f"n{i}", f"n{p}")
        lines.append(FeederLine(*ends, ps, z))
    loads = [
        PhaseLoad(f"n{i}", {
            ph: complex(draw(st.floats(0.0, 0.3)), draw(st.floats(-0.1, 0.2)))
            for ph in ps
        })
        for i, ps in enumerate(node_phases)
        if draw(st.booleans())
    ]
    return lines, loads, draw(st.permutations(range(n - 1)))


_NEARLY_UNLOADED = (  # hybr reports no progress here at a 4e-15 residual
    [FeederLine(a, b, "a", np.array([[0.03125 + x * 0.03125j]]))
     for a, b, x in [("n1", "n0", 1), ("n2", "n0", 2), ("n3", "n0", 2), ("n4", "n1", 2),
                     ("n5", "n4", 1), ("n6", "n2", 2), ("n7", "n2", 2), ("n8", "n2", 2)]],
    [PhaseLoad("n4", {"a": 0.25 + 0.125j}), PhaseLoad("n5", {"a": 0.125 + 0.0625j})],
    list(range(8)),
)


@given(radial_trees())
@example(_NEARLY_UNLOADED)
@settings(max_examples=60, deadline=None)
def test_random_radial_trees_match_oracle_and_line_order(tree):
    lines, loads, order = tree
    f = Feeder(12.47, 100.0, "n0", tuple(lines), tuple(loads))
    shuffled = Feeder(12.47, 100.0, "n0", tuple(lines[k] for k in order), tuple(loads))
    assert validate(f) == []
    head = PhaseVoltages.balanced(1.02, 0.1)
    sol = sweep_solve(f, head, tol=1e-12, max_iter=300)
    oracle = feeder_nodal_newton_oracle(f, head)
    assert np.max(np.abs(sol.v - oracle)) < 1e-8
    assert np.max(np.abs(sol.kcl_residuals())) < 1e-9
    other = sweep_solve(shuffled, head, tol=1e-12, max_iter=300)
    at = [other.node_order.index(node) for node in sol.node_order]
    assert np.max(np.abs(other.v[at] - sol.v)) <= 1e-12


@given(radial_trees(), st.floats(2.0, 4.5))
@settings(max_examples=80, deadline=None)
def test_random_trees_near_collapse_raise_where_every_iteration_is_checked(tree, log_m):
    lines, loads, _ = tree
    f = Feeder(12.47, 100.0, "n0", tuple(lines), tuple(loads), name="tree")
    head = PhaseVoltages.balanced(1.0, 0.05).as_array()
    g = scale_loads(f, 10.0**log_m)
    _assert_sweep_matches_full_layout(g, head)
    _assert_sweep_matches_full_layout(g, head, start=sweep_solve(f, head).v)


@given(radial_trees(), st.floats(0.0, 4.5), st.booleans())
@settings(max_examples=80, deadline=None)
def test_random_trees_sweep_as_the_full_layout_ladder(tree, log_m, warm):
    lines, loads, _ = tree
    f = Feeder(12.47, 100.0, "n0", tuple(lines), tuple(loads), name="tree")
    head = PhaseVoltages.balanced(1.0, 0.05).as_array()
    start = sweep_solve(f, head).v if warm else None
    g = scale_loads(f, 10.0**log_m)
    _assert_sweep_matches_full_layout(g, 1.01 * head, start)
    _assert_sweep_matches_full_layout(g, head, start, max_iter=2)


def _chain_and_wide_pads(shape):
    """An all-three-phase chain, or a feeder whose phase a reaches 120 more
    nodes than phases b and c, so most of the sweep's b and c rows are pads."""
    z = z3(0.02 + 0.04j, 0.005 + 0.01j)
    if shape == "chain":
        lines = [FeederLine(f"n{k}", f"n{k + 1}", "abc", z) for k in range(150)]
    else:
        lines = [FeederLine("n0", "n1", "abc", z), FeederLine("n1", "n2", "abc", z),
                 FeederLine("n2", "b1", "b", z[:1, :1]), FeederLine("b1", "b2", "b", z[:1, :1]),
                 FeederLine("n0", "c1", "bc", z[:2, :2]), FeederLine("c1", "c2", "c", z[:1, :1]),
                 FeederLine("x1", "n2", "ac", z[:2, :2])]
        lines += [FeederLine(f"a{k}", f"a{k + 1}", "a", z[:1, :1]) for k in range(120)]
        lines.insert(3, FeederLine("n1", "a0", "a", z[:1, :1]))
    loads = [PhaseLoad(ln.to_node, {ph: (0.02 + 0.01j) * (1 + k % 3) for ph in ln.phases})
             for k, ln in enumerate(lines) if k % 4]
    return Feeder(12.47, 100.0, "n0", tuple(lines), tuple(loads), name=shape)


@pytest.mark.parametrize("shape", ["chain", "wide pads"])
def test_chain_and_wide_pads_sweep_as_the_full_layout_ladder(shape):
    f = _chain_and_wide_pads(shape)
    assert validate(f) == []
    widths = f.topology().mask.sum(axis=0)
    assert widths.tolist() == ([151] * 3 if shape == "chain" else [125, 6, 6])
    head = PhaseVoltages.balanced(1.0, 0.05).as_array()
    start = sweep_solve(f, head).v
    kinds = []
    for m in 2.0 ** np.arange(-2, 5, 0.5):
        g = scale_loads(f, m)
        for warm in (None, start):
            kinds.append(_assert_sweep_matches_full_layout(g, 0.99 * head, warm))
            kinds.append(_assert_sweep_matches_full_layout(g, head, warm, max_iter=2))
    assert set(kinds) == {"converged", "collapse", "budget"}


def _depth_first_walk(lines, head):
    """A recursive depth-first walk from ``head``, children in line order: per
    node in visit order its name, parent number, subtree end and the index
    of the line it was reached by."""
    walk = []

    def visit(node, parent, via):
        k = len(walk)
        walk.append([node, parent, None, via])
        for j, ln in enumerate(lines):
            ends = (ln.from_node, ln.to_node)
            if node in ends and j != via:
                visit(ends[ends[0] == node], k, j)
        walk[k][2] = len(walk)

    visit(head, -1, -1)
    return walk


@given(radial_trees())
@settings(max_examples=60, deadline=None)
def test_nodes_are_numbered_depth_first_in_line_order(tree):
    lines, _, order = tree
    lines = [lines[k] for k in order]  # shuffled; radial_trees also reverses some
    feeder = Feeder(12.47, 100.0, "n0", tuple(lines), ())
    topo = feeder.topology()
    names, parents, ends, vias = zip(*_depth_first_walk(lines, "n0"))
    assert topo.node_order == names
    assert topo.node_index == {name: k for k, name in enumerate(names)}
    assert topo.parent.tolist() == list(parents[1:])
    assert topo.end.tolist() == list(ends)
    assert topo.line_index.tolist() == list(vias[1:])
    sol = sweep_solve(feeder, PhaseVoltages.balanced(1.0))
    assert sol.line_names == tuple((names[p], b) for p, b in zip(parents[1:], names[1:]))
    assert topo.mask.tolist() == [[True] * 3] + [
        [ph in lines[j].phases for ph in "abc"] for j in vias[1:]
    ]


def _closes_a_loop(lines) -> bool:
    """Whether the last of ``lines`` joins two nodes the others already join."""
    *rest, last = lines
    reached, frontier = {last.from_node}, [last.from_node]
    while frontier:
        node = frontier.pop()
        for ln in rest:
            for a, b in ((ln.from_node, ln.to_node), (ln.to_node, ln.from_node)):
                if a == node and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return last.to_node in reached


@given(radial_trees(), st.sampled_from(["parallel", "back edge", "detached"]), st.data())
@settings(max_examples=60, deadline=None)
def test_lines_that_are_not_a_tree_are_rejected(tree, fault, data):
    """A parallel line, a line back to an ancestor (to itself next to the
    head) or a detached component, anywhere in the file, is named: a loop at
    the first line that closes one with the lines before it, detached nodes
    all at once."""
    lines, _, order = tree
    lines = [lines[k] for k in order]
    names, parents, _, _ = zip(*_depth_first_walk(lines, "n0"))
    z = np.array([[1.0j]])
    if fault == "parallel":
        ln = data.draw(st.sampled_from(lines))
        extra = [FeederLine(ln.to_node, ln.from_node, "a", z)]
    elif fault == "back edge":
        k = data.draw(st.integers(1, len(names) - 1))
        ancestors = [k]
        while parents[ancestors[-1]] >= 0:
            ancestors.append(parents[ancestors[-1]])
        extra = [FeederLine(names[k], names[data.draw(st.sampled_from(ancestors[2:] or [k]))],
                            "a", z)]
    else:
        extra = [FeederLine("x0", "x1", "a", z), FeederLine("x2", "x1", "a", z)]
    for ln in extra:
        lines.insert(data.draw(st.integers(0, len(lines))), ln)
    problems = validate(Feeder(12.47, 100.0, "n0", tuple(lines), ()))
    if fault == "detached":
        assert problems == ["nodes not reachable from head 'n0': ['x0', 'x1', 'x2']"]
    else:
        j = next(j for j in range(len(lines)) if _closes_a_loop(lines[: j + 1]))
        assert problems == [f"feeder is not radial: line {lines[j].from_node}-"
                            f"{lines[j].to_node} closes a loop"]


def _line_by_line_sweep(feeder, head_v, tol):
    """The ladder method one line at a time; lines listed parent before child."""
    head = head_v.as_array()
    z_base = feeder.base_kv**2 / feeder.base_mva
    lines, loads = feeder_records(feeder)
    nodes = [feeder.head] + [ln.to_node for ln in lines]
    s = {node: np.zeros(3, dtype=complex) for node in nodes}
    for ld in loads:
        for ph, val in ld.s.items():
            s[ld.node][dsolve.PHASE_INDEX[ph]] += val / (feeder.base_mva / 3.0)
    v = {node: head for node in nodes}
    for iterations in range(1, dsolve.SWEEP_MAX_ITER + 1):
        acc = {node: np.conj(s[node] / v[node]) for node in nodes}
        for ln in reversed(lines):
            acc[ln.from_node] = acc[ln.from_node] + acc[ln.to_node]
        new = {feeder.head: head}
        for ln in lines:
            new[ln.to_node] = new[ln.from_node] - (ln.z_abc / z_base) @ acc[ln.to_node]
        delta = max(np.max(np.abs(new[node] - v[node])) for node in nodes)
        v = new
        if delta < tol:
            break
    return np.array([v[node] for node in nodes]), iterations



@pytest.mark.parametrize("shape", ["chain-2000", "star-3000"])
def test_long_chain_and_wide_star_match_line_by_line_sweep(shape):
    kind, size = shape.split("-")
    size = int(size)
    if kind == "chain":  # every subtree sum runs to the tail
        z, s = z3(0.002 + 0.004j, 0.0005 + 0.001j), 0.0003 + 0.0001j
        ends = [(f"n{k}", f"n{k + 1}") for k in range(size)]
    else:  # every path sum cancels the terms of all earlier siblings
        z, s = z3(0.5 + 1.0j, 0.1 + 0.2j), 0.01 + 0.003j
        ends = [("n0", f"n{k + 1}") for k in range(size)]
    f = Feeder(
        12.47, 100.0, "n0",
        tuple(FeederLine(a, b, "abc", z) for a, b in ends),
        tuple(PhaseLoad(f"n{k}", {p: s * (1 + 0.1 * (k % 7)) for p in "abc"})
              for k in range(1, size + 1)),
    )
    head = PhaseVoltages.balanced(1.0)
    sol = sweep_solve(f, head)
    v_ref, iterations = _line_by_line_sweep(f, head, dsolve.SWEEP_TOL)
    assert sol.node_order == tuple(["n0"] + [b for _, b in ends])
    assert sol.iterations == iterations
    assert np.max(np.abs(sol.v - v_ref)) < 1e-12
