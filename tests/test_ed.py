import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcosim.ed import dispatch
from tdcosim.errors import DispatchError
from tdcosim.netmodel import CostCurve, Generator


def gen(a, b, p_min=0.0, p_max=1000.0, bus=1):
    return Generator(bus, p_min, p_max, -500.0, 500.0, CostCurve(a, b, 0.0))


def marginal(g, p):
    return 2.0 * g.cost.a * p + g.cost.b


def test_two_generator_equal_lambda_case():
    # hand-derived KKT point: 10 + 0.02 P1 = 10 + 0.04 P2, P1 + P2 = 300
    gens = [gen(0.01, 10.0), gen(0.02, 10.0)]
    res = dispatch(gens, 300.0)
    assert res.p_set[0] == pytest.approx(200.0, abs=1e-6)
    assert res.p_set[1] == pytest.approx(100.0, abs=1e-6)
    assert res.lam == pytest.approx(14.0, abs=1e-6)
    assert res.binding == frozenset()


def test_demand_at_total_capacity_pins_everything():
    gens = [gen(0.01, 10.0, p_max=120.0), gen(0.02, 12.0, p_max=80.0)]
    res = dispatch(gens, 200.0)
    assert res.p_set == pytest.approx((120.0, 80.0), abs=1e-9)
    assert res.binding == frozenset({0, 1})


def test_single_generator_takes_demand():
    res = dispatch([gen(0.05, 7.0)], 123.456)
    assert res.p_set[0] == pytest.approx(123.456, abs=1e-9)
    assert res.lam == pytest.approx(7.0 + 2 * 0.05 * 123.456, rel=1e-9)


def test_binding_limit_kkt_signs():
    # cheap unit saturates; expensive unit covers the rest at higher lambda
    gens = [gen(0.001, 5.0, p_max=50.0), gen(0.02, 10.0)]
    res = dispatch(gens, 200.0)
    assert res.p_set[0] == pytest.approx(50.0, abs=1e-9)
    assert res.p_set[1] == pytest.approx(150.0, abs=1e-6)
    assert 0 in res.binding
    # at p_max the marginal cost must not exceed lambda
    assert marginal(gens[0], res.p_set[0]) <= res.lam + 1e-6
    assert marginal(gens[1], res.p_set[1]) == pytest.approx(res.lam, abs=1e-6)


def test_min_limit_kkt_sign():
    # expensive unit forced on at its minimum
    gens = [gen(0.01, 5.0), gen(0.01, 50.0, p_min=20.0)]
    res = dispatch(gens, 100.0)
    assert res.p_set[1] == pytest.approx(20.0, abs=1e-9)
    assert marginal(gens[1], res.p_set[1]) >= res.lam - 1e-6


def test_infeasible_demand_reports_range():
    gens = [gen(0.01, 10.0, p_min=10.0, p_max=100.0)]
    with pytest.raises(DispatchError) as err:
        dispatch(gens, 500.0)
    assert err.value.feasible_range == (10.0, 100.0)
    with pytest.raises(DispatchError):
        dispatch(gens, 5.0)


def test_shipped_nine_bus_fleet_balances(case9):
    res = dispatch(case9.generators, 315.0)
    assert sum(res.p_set) == pytest.approx(315.0, abs=1e-6)
    for g, p in zip(case9.generators, res.p_set):
        if g.p_min + 1e-9 < p < g.p_max - 1e-9:
            assert marginal(g, p) == pytest.approx(res.lam, abs=1e-6)


def test_identical_linear_units_fill_in_order():
    res = dispatch([gen(0.0, 10.0, p_max=100.0), gen(0.0, 10.0, p_max=100.0)], 150.0)
    assert res.p_set == (100.0, 50.0)
    assert res.lam == 10.0
    assert res.binding == frozenset({0})


def test_linear_step_shares_lambda_with_a_quadratic_unit():
    # lambda = 10: the b = 5 linear unit runs flat out, the quadratic unit sits
    # at 10 = 5 + 0.04 P, and the two b = 10 units fill the rest in file order
    gens = [
        gen(0.0, 10.0, 30.0, 100.0),
        gen(0.0, 10.0, 10.0, 130.0),
        gen(0.02, 5.0, 5.0, 190.0),
        gen(0.0, 5.0, 20.0, 200.0),
    ]
    res = dispatch(gens, 460.0)
    assert res.p_set == pytest.approx((100.0, 35.0, 125.0, 200.0), abs=1e-9)
    assert res.lam == pytest.approx(10.0, abs=1e-12)
    assert res.binding == frozenset({0, 3})


gen_strategy = st.builds(
    gen,
    a=st.one_of(st.just(0.0), st.floats(0.001, 0.5)),
    b=st.one_of(st.sampled_from((5.0, 10.0)), st.floats(1.0, 50.0)),
    p_min=st.floats(0.0, 50.0),
    p_max=st.floats(60.0, 500.0),
)


@given(st.lists(gen_strategy, min_size=1, max_size=6), st.floats(0.01, 0.99))
@settings(max_examples=150, deadline=None)
def test_kkt_and_feasibility_properties(gens, frac):
    p_lo = sum(g.p_min for g in gens)
    p_hi = sum(g.p_max for g in gens)
    demand = p_lo + frac * (p_hi - p_lo)
    res = dispatch(gens, demand)
    assert sum(res.p_set) == pytest.approx(demand, abs=1e-6)
    for g, p in zip(gens, res.p_set):
        assert g.p_min - 1e-9 <= p <= g.p_max + 1e-9
        mc = marginal(g, p)
        if p <= g.p_min + 1e-7:
            assert mc >= res.lam - 1e-5
        elif p >= g.p_max - 1e-7:
            assert mc <= res.lam + 1e-5
        else:
            assert mc == pytest.approx(res.lam, abs=1e-5)


@given(
    st.lists(gen_strategy, min_size=2, max_size=5),
    st.floats(0.1, 0.45),
    st.floats(0.05, 0.4),
)
@settings(max_examples=100, deadline=None)
def test_lambda_monotone_in_demand(gens, frac, bump):
    p_lo = sum(g.p_min for g in gens)
    p_hi = sum(g.p_max for g in gens)
    d1 = p_lo + frac * (p_hi - p_lo)
    d2 = d1 + bump * (p_hi - d1)
    r1 = dispatch(gens, d1)
    r2 = dispatch(gens, d2)
    assert r2.lam >= r1.lam - 1e-9
