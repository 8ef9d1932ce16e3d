import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcosim import cosim, dsolve, io
from tdcosim.errors import ParseError
from tdcosim.netmodel import BusKind, ZeroSeqPath


# -- case parsing -------------------------------------------------------------


def test_shipped_case_shape(case9_doc):
    case = case9_doc.case
    assert case9_doc.schema_version == "1"
    assert len(case.buses) == 9
    assert len(case.generators) == 3
    assert len([ld for ld in case.loads if not ld.is_feeder]) == 3
    assert {ld.bus for ld in case.loads} == {5, 6, 8}
    assert case.bus_by_id(1).kind is BusKind.SLACK
    assert case.branches[0].zero_seq_path is ZeroSeqPath.GROUNDED


def test_empty_input_errors_at_1_1():
    with pytest.raises(ParseError) as err:
        io.parse_case("")
    assert (err.value.line, err.value.col) == (1, 1)


def test_duplicate_bus_id_names_the_id():
    text = (
        "tdcase 1\nbase_mva 100.0\n"
        "bus 1 slack base_kv=230.0 v=1.0 angle=0.0\n"
        "bus 1 pq base_kv=230.0\n"
    )
    with pytest.raises(ParseError) as err:
        io.parse_case(text)
    assert "duplicate bus id 1" in str(err.value)
    assert err.value.line == 4


def test_unknown_directive_and_key_locations():
    with pytest.raises(ParseError) as err:
        io.parse_case("tdcase 1\nbase_mva 100.0\nfrobnicate 1\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        io.parse_case(
            "tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=230.0 v=1.0 angle=0.0 zap=2\n"
        )
    assert "unknown key 'zap'" in str(err.value)


def test_dangling_branch_reference_located():
    text = (
        "tdcase 1\nbase_mva 100.0\n"
        "bus 1 slack base_kv=230.0 v=1.0 angle=0.0\n"
        "branch 1 99 x1=0.1\n"
    )
    with pytest.raises(ParseError) as err:
        io.parse_case(text)
    assert "unknown bus 99" in str(err.value)
    assert err.value.line == 4


def test_case_round_trip(case9_doc):
    text = io.serialize_case(case9_doc)
    doc2 = io.parse_case(text)
    c1, c2 = case9_doc.case, doc2.case
    assert c2.buses == c1.buses
    assert c2.generators == c1.generators
    assert c2.loads == c1.loads
    assert c2.base_mva == c1.base_mva
    for a, b in zip(c1.branches, c2.branches):
        for field in (
            "from_bus", "to_bus", "z1", "z2", "z0", "b1_shunt", "b0_shunt",
            "tap", "zero_seq_path", "untransposed",
        ):
            assert getattr(a, field) == getattr(b, field), field
    assert io.serialize_case(doc2) == text


def test_case_round_trip_with_coupling():
    text = (
        "tdcase 1\nbase_mva 100.0\n"
        "bus 1 slack base_kv=230.0 v=1.0 angle=0.0\n"
        "bus 2 pq base_kv=230.0\n"
        "branch 1 2 r1=0.02 x1=0.1 r0=0.05 x0=0.3 b1=0.3 "
        "c01=0.004+0.012j c12=0.002+0.01j c20=-0.003+0.008j\n"
        "gen 1 pmin=0.0 pmax=100.0 qmin=-50.0 qmax=50.0 cost_a=0.1 cost_b=5.0 cost_c=0.0\n"
        "load 2 p=10.0 q=2.0\n"
    )
    doc = io.parse_case(text)
    br = doc.case.branches[0]
    assert br.untransposed
    assert br.coupling[0, 1] == 0.004 + 0.012j
    assert br.coupling[2, 0] == -0.003 + 0.008j
    text2 = io.serialize_case(doc)
    doc2 = io.parse_case(text2)
    assert np.array_equal(doc2.case.branches[0].coupling, br.coupling)


def test_feeder_attachment_parsed():
    text = (
        "tdcase 1\nbase_mva 100.0\n"
        "bus 1 slack base_kv=230.0 v=1.0 angle=0.0\n"
        "bus 2 pq base_kv=230.0\n"
        "branch 1 2 x1=0.1\n"
        "gen 1 pmin=0.0 pmax=100.0 qmin=-50.0 qmax=50.0 cost_a=0.1 cost_b=5.0 cost_c=0.0\n"
        "feeder 2 id=ckt24 shape=day\n"
    )
    doc = io.parse_case(text)
    assert doc.feeder_attachments == {2: "ckt24"}
    assert doc.case.pcc_buses() == [2]


# -- feeder parsing -----------------------------------------------------------


FEEDER_2NODE = (
    "tdfeeder 1\nname tiny\nbase_kv 12.47\nbase_mva 100.0\nhead src\n"
    "line src n1 phases=abc zaa=0.5+1.0j zbb=0.5+1.0j zcc=0.5+1.0j "
    "zab=0.1+0.2j zac=0.1+0.2j zbc=0.1+0.2j\n"
    "load n1 sa=1.0+0.2j sb=1.0+0.2j sc=1.0+0.2j\n"
)


def test_two_node_feeder_file():
    f = io.parse_feeder(FEEDER_2NODE)
    assert len(f.lines) == 1
    assert f.head == "src"
    assert f.lines[0].z_abc[0, 1] == 0.1 + 0.2j
    assert dsolve.aggregate_load(f).total() == pytest.approx(3.0 + 0.6j)


def test_cyclic_feeder_names_loop():
    text = (
        "tdfeeder 1\nbase_kv 12.47\nbase_mva 100.0\nhead h\n"
        "line h a phases=a zaa=1.0j\n"
        "line a b phases=a zaa=1.0j\n"
        "line b h phases=a zaa=1.0j\n"
    )
    with pytest.raises(ParseError) as err:
        io.parse_feeder(text)
    assert "not radial" in str(err.value)


def test_shipped_synthetic_totals(ckt_feeder):
    total = dsolve.aggregate_load(ckt_feeder).total()
    assert total.real == pytest.approx(52.1, abs=1e-9)
    assert total.imag == pytest.approx(11.7, abs=1e-9)


def test_feeder_round_trip(ckt_feeder):
    text = io.serialize_feeder(ckt_feeder)
    again = io.parse_feeder(text)
    assert io.serialize_feeder(again) == text
    assert [ln.phases for ln in again.lines] == [ln.phases for ln in ckt_feeder.lines]
    for a, b in zip(again.lines, ckt_feeder.lines):
        assert np.array_equal(a.z_abc, b.z_abc)


# -- loadshape parsing --------------------------------------------------------


def test_flat_shape(flat_shape):
    assert len(flat_shape.multipliers) == 1440
    assert set(flat_shape.multipliers) == {1.0}
    assert flat_shape.covers(0, 1440)
    assert not flat_shape.covers(0, 1441)


def test_daily_shape_has_1440_samples(day_shape):
    assert len(day_shape.multipliers) == 1440
    assert day_shape.start_min == 0
    assert day_shape.multiplier(1245) > day_shape.multiplier(120)


def test_gap_rejected():
    rows = ["minute,multiplier"] + [f"{m},1.0" for m in range(200) if m != 100]
    with pytest.raises(ParseError) as err:
        io.parse_loadshape("\n".join(rows))
    assert "contiguous" in str(err.value)
    assert "expected 100" in str(err.value)


def test_negative_multiplier_rejected():
    with pytest.raises(ParseError):
        io.parse_loadshape("0,1.0\n1,-0.5\n")


def test_header_optional():
    a = io.parse_loadshape("0,1.0\n1,2.0\n")
    b = io.parse_loadshape("minute,multiplier\n0,1.0\n1,2.0\n")
    assert a.multipliers == b.multipliers == (1.0, 2.0)


# -- fuzzing ------------------------------------------------------------------


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_case_parser_never_crashes(text):
    try:
        io.parse_case(text)
    except ParseError:
        pass


@given(st.text(max_size=300))
@example("tdfeeder 1\nbase_kv\n")
@example("tdfeeder 1\nbase_mva\n")
@settings(max_examples=300, deadline=None)
def test_feeder_parser_never_crashes(text):
    try:
        io.parse_feeder(text)
    except ParseError:
        pass


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_loadshape_parser_never_crashes(text):
    try:
        io.parse_loadshape(text)
    except ParseError:
        pass


# -- result writers -----------------------------------------------------------


def _tiny_run(system1, ckt_feeder, flat_shape, tmp_path, sub):
    res = cosim.run_timeseries(
        system1, {6: ckt_feeder}, {"day": flat_shape},
        start_min=0, horizon_min=3,
    )
    out = tmp_path / sub
    io.write_results(res, out)
    return res, out


def test_written_files_and_shapes(system1, ckt_feeder, flat_shape, tmp_path):
    res, out = _tiny_run(system1, ckt_feeder, flat_shape, tmp_path, "a")
    trace_rows = sum(len(s.trace.rows) for s in res.steps)
    lines = (out / "coupling_trace.csv").read_text().splitlines()
    assert len(lines) == trace_rows + 1  # header + one row per PCC iteration
    v_lines = (out / "pcc_voltages.csv").read_text().splitlines()
    assert len(v_lines) == 3 * len(res.steps) + 1  # 3 phases x 1 PCC per step
    d_lines = (out / "dispatch.csv").read_text().splitlines()
    assert len(d_lines) == 3 * 1 + 1  # one dispatch, three generators


def test_identical_runs_byte_identical(system1, ckt_feeder, flat_shape, tmp_path):
    _, out_a = _tiny_run(system1, ckt_feeder, flat_shape, tmp_path, "a")
    _, out_b = _tiny_run(system1, ckt_feeder, flat_shape, tmp_path, "b")
    for name in ("pcc_voltages.csv", "coupling_trace.csv", "dispatch.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_convergence_table_shape(system2, feeders3, tmp_path):
    sweep = cosim.sweep_unbalance(
        system2, feeders3, [0.0, 0.05, 0.10, 0.15], eps=1e-4
    )
    path = io.write_convergence_table(sweep, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,n_bus5,n_bus6,n_bus8,overall_n"
    assert len(lines) == 5  # header + 4 alphas
    assert all(len(line.split(",")) == 5 for line in lines)
