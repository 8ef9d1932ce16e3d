import csv
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcosim import cosim, dsolve, io
from tdcosim.errors import ParseError
from tdcosim.netmodel import BusKind, ZeroSeqPath

from test_dsolve import _same_bits, radial_trees


# -- case parsing -------------------------------------------------------------


def test_shipped_case_shape(case9_doc):
    case = case9_doc.case
    assert case9_doc.schema_version == "1"
    assert len(case.buses) == 9
    assert len(case.generators) == 3
    assert len([ld for ld in case.loads if not ld.is_feeder]) == 3
    assert {ld.bus for ld in case.loads} == {5, 6, 8}
    assert case.buses[0].id == 1 and case.buses[0].kind is BusKind.SLACK
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


def test_case_coupling_parsed():
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
    assert br.coupling is not None
    assert br.coupling[0, 1] == 0.004 + 0.012j
    assert br.coupling[2, 0] == -0.003 + 0.008j


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
    assert [(ld.bus, ld.feeder_id, ld.loadshape_id) for ld in doc.case.loads] == [
        (2, "ckt24", "day")
    ]
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
    assert len(f.line_from) == 1
    assert f.head == "src"
    assert f.line_z[0, 0, 1] == 0.1 + 0.2j
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


_HEAD = "tdfeeder 1\nbase_kv 12.47\nbase_mva 100.0\nhead h\n"
_LINE = "line h n1 phases=abc zaa=1j zbb=1j zcc=1j\n"

# One input per place a ParseError is raised: (text, line, column, message).
FEEDER_ERRORS = {
    "empty": ("", 1, 1, "empty input; expected 'tdfeeder <version>' header"),
    "comment only": ("# nothing\n  \n", 1, 1,
                     "empty input; expected 'tdfeeder <version>' header"),
    "wrong header": ("tdcase 1\n", 1, 1, "expected 'tdfeeder <version>' header"),
    "header arity": ("tdfeeder 1 2\n", 1, 1, "expected 'tdfeeder <version>' header"),
    "version": ("  tdfeeder\t2  # new\n", 1, 12, "unsupported feeder schema version '2'"),
    "arity": ("tdfeeder 1\nname a b\n", 2, 1, "name takes a single value"),
    "not a number": ("tdfeeder 1\nbase_kv\tabc\n", 2, 9,
                     "expected a number for base_kv, got 'abc'"),
    "not finite": ("tdfeeder 1\nbase_mva inf\n", 2, 10, "base_mva must be finite, got 'inf'"),
    "line positional": (_HEAD + "line h\n", 5, 1, "'line' needs 2 positional argument(s)"),
    "not key=value": (_HEAD + "line h n1 phases=a\tzaa\n", 5, 20,
                      "expected key=value, got 'zaa'"),
    "empty value": (_HEAD + "line h n1 phases=a zaa=\n", 5, 20,
                    "malformed key=value pair 'zaa='"),
    "empty key": (_HEAD + "line h n1 phases=a =1j\n", 5, 20,
                  "malformed key=value pair '=1j'"),
    "duplicate key": (_HEAD + "load n1 sa=1 sa=1  # sa=1\n", 5, 14, "duplicate key 'sa'"),
    "same tokens": (_HEAD + "load a=a a=a a=a\n", 5, 14, "duplicate key 'a'"),
    "unknown key": (_HEAD + "line h n1 phases=a zaa=x zdd=1\n", 5, 26,
                    "unknown key 'zdd' for 'line'"),
    "needs phases": (_HEAD + "line h n1 zaa=1j\n", 5, 1, "line needs phases="),
    "phase order": (_HEAD + "line h n1 phases=ba zaa=1j\n", 5, 11,
                    "phases must be an ordered subset of 'abc', got 'ba'"),
    "phase not on line": (_HEAD + "line h n1 phases=a zaa=1j zbb=1j\n", 5, 27,
                          "zbb refers to a phase not in 'a'"),
    "two bad values": (_HEAD + "line h n1 phases=ab zaa=1+ zbb=2+\n", 5, 21,
                       "expected a complex literal for zaa, got '1+'"),
    "nan impedance": (_HEAD + "line  h n1 phases=a   zaa=nanj\n", 5, 23,
                      "zaa must be finite, got 'nanj'"),
    "no self impedance": (_HEAD + "line h n1 phases=ab zaa=1j zab=0.1j\n", 5, 1,
                          "line needs zbb= (self impedance)"),
    "zero self impedance": (_HEAD + "line h n1 phases=a zaa=0\n", 5, 1,
                            "line needs zaa= (self impedance)"),
    "load positional": (_HEAD + "load\n", 5, 1, "'load' needs 1 positional argument(s)"),
    "load key": (_HEAD + "load n1 sd=1\n", 5, 9, "unknown key 'sd' for 'load'"),
    "load empty": (_HEAD + "load n1\n", 5, 1, "load needs at least one s<phase>="),
    "load value": (_HEAD + "load n1 sa=1 sb=x\n", 5, 14,
                   "expected a complex literal for sb, got 'x'"),
    "load inf": (_HEAD + "load n1 sa=infj\n", 5, 9, "sa must be finite, got 'infj'"),
    "no-break space": (_HEAD + "load n1\u00a0sa=x\n", 5, 9,
                       "expected a complex literal for sa, got 'x'"),
    "directive": (_HEAD + "bus 1\n", 5, 1, "unknown directive 'bus'"),
    "missing head": ("tdfeeder 1\nbase_kv 12.47\nbase_mva 100.0\n", 1, 1,
                     "feeder file needs base_kv, base_mva and head directives"),
    "two bad lines": (_HEAD + "line h n1 phases=a zaa=x\nline n1 n2 phases=a zaa=y\n", 5, 20,
                      "expected a complex literal for zaa, got 'x'"),
    "duplicate directive": (_HEAD + "head n1\n", 5, 1,
                            "duplicate directive 'head' (first on line 4)"),
    "loop": (_HEAD + "line h a phases=a zaa=1j\nline a b phases=a zaa=1j\n"
             "line b h phases=a zaa=1j\n", 7, 1,
             "feeder is not radial: line b-h closes a loop"),
    "unreachable": (_HEAD + _LINE + "line x y phases=a zaa=1j\n", 6, 6,
                    "nodes not reachable from head 'h': ['x', 'y']"),
    "uncovered phase": (_HEAD + "line h n1 phases=a zaa=1j\nline n1 n2 zbb=1j phases=b\n",
                        6, 19, "line n1-n2: phases 'b' not all present on parent path"),
    "load node": (_HEAD + _LINE + "load zz sa=1\n", 6, 6, "load at unknown node 'zz'"),
    "load phase": (_HEAD + "line h n1 phases=a zaa=1j\nload n1 sa=1 sb=1\n", 6, 14,
                   "load at n1: phase b not present there"),
    "bases": ("tdfeeder 1\nbase_kv -1\nbase_mva 0\nhead h\n" + _LINE, 2, 9,
              "base_kv must be finite and positive, got -1.0; "
              "base_mva must be finite and positive, got 0.0"),
    "base_mva": ("tdfeeder 1\nbase_kv 12.47\nbase_mva 0\nhead h\n" + _LINE, 3, 10,
                 "base_mva must be finite and positive, got 0.0"),
    # Several structural errors are raised together, in file order, at the first.
    "structure": ("tdfeeder 1\nhead h\nload zz sa=1\nbase_kv 12.47\n" + _LINE
                  + "load yy sa=1\nbase_mva 0\n", 3, 6,
                  "load at unknown node 'zz'; load at unknown node 'yy'; "
                  "base_mva must be finite and positive, got 0.0"),
}

CASE_ERRORS = {
    "bus kind": ("tdcase 1\nbase_mva 100.0\n\tbus 1 slack\tbase_kv=230 # c\n"
                 "bus 2 xx base_kv=230\n", 4, 7, "bus kind must be slack/pv/pq, got 'xx'"),
    "duplicate bus": ("tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=1\nbus  1 pq base_kv=1\n",
                      4, 6, "duplicate bus id 1 (first defined on line 3)"),
    "branch bus": ("tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=1\n"
                   "branch 1 99 x1=0.1  # to 99\n", 4, 10, "branch references unknown bus 99"),
    "base arity": ("tdcase 1\nbase_mva 100.0 2\n", 2, 1, "base_mva takes a single value"),
    "gen key": ("tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=1\ngen 1 pmin=0\n", 4, 1,
                "gen at bus 1 needs pmax="),
    "coupling": ("tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=1\nbus 2 pq base_kv=1\n"
                 "branch 1 2 x1=0.1 c01=1+\n", 5, 19,
                 "expected a complex literal for c01, got '1+'"),
    "header": ("tdcase 1 x\n", 1, 1, "header must be exactly 'tdcase <version>'"),
    "version": ("# v\ntdcase 2\n", 2, 8, "unsupported case schema version '2'"),
    "no base": ("tdcase 1\n", 1, 1, "case is missing the base_mva directive"),
    "duplicate base": ("tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=1\nbase_mva 10\n", 4, 1,
                       "duplicate directive 'base_mva' (first on line 2)"),
    "zero base": ("tdcase 1\nbase_mva 0\n", 2, 10, "base_mva must be finite and positive, got 0.0"),
    "negative base": ("tdcase 1\nbase_mva  -5\n", 2, 11,
                      "base_mva must be finite and positive, got -5.0"),
    # the number parser refuses a non-finite base before its sign is tested
    "nan base": ("tdcase 1\nbase_mva nan\n", 2, 10, "base_mva must be finite, got 'nan'"),
    "feeder id": ("tdcase 1\nbase_mva 100.0\nbus 1 slack base_kv=1\nfeeder 1 shape=day\n", 4, 1,
                  "feeder at bus 1 needs id="),
}


@pytest.mark.parametrize(
    "parse, text, line, col, message",
    [pytest.param(io.parse_feeder, *row, id=f"feeder-{key}") for key, row in FEEDER_ERRORS.items()]
    + [pytest.param(io.parse_case, *row, id=f"case-{key}") for key, row in CASE_ERRORS.items()],
)
def test_parse_errors_are_located(parse, text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


def test_shipped_synthetic_totals(ckt_feeder):
    total = dsolve.aggregate_load(ckt_feeder).total()
    assert total.real == pytest.approx(52.1, abs=1e-9)
    assert total.imag == pytest.approx(11.7, abs=1e-9)


def test_feeder_round_trip(ckt_feeder):
    text = io.serialize_feeder(ckt_feeder)
    again = io.parse_feeder(text)
    assert io.serialize_feeder(again) == text
    assert again.line_phases == ckt_feeder.line_phases
    assert np.array_equal(again.line_z, ckt_feeder.line_z)


@pytest.mark.parametrize("kind, bad, head, node, load_node", [
    ("name", "two words", "h", "n1", "n1"),
    ("head", "", "", "n1", "n1"),
    ("head", "h#1", "h#1", "n1", "n1"),
    ("node", "n\xa01", "h", "n\xa01", "h"),
    ("node", "n1 ", "h", "n1 ", "h"),
    ("node", "x\ny", "h", "n1", "x\ny"),
])
def test_serialize_refuses_a_token_that_would_not_read_back(kind, bad, head, node, load_node):
    """A name, head or node that is empty or holds whitespace or '#' would
    parse back as another token, or as none."""
    name = bad if kind == "name" else "f"
    f = dsolve.Feeder(12.47, 100.0, head, [dsolve.FeederLine(head, node, "a", np.array([[1j]]))],
                      [dsolve.PhaseLoad(load_node, {"a": 0.1 + 0j})], name=name)
    with pytest.raises(ValueError) as err:
        io.serialize_feeder(f)
    assert str(err.value) == f"feeder {kind} {bad!r} would not read back as one token"


_SPACES = [" ", "\t", "   ", " \t "]
_COMMENTS = ["  # note", "#x=1 y", "\t# line n0 n1 phases=a"]
_NEGATIVE_ZERO_IMAG = (  # a -0.0 imaginary part reads back only if written "-0.0j"
    [dsolve.FeederLine("n0", "n1", "ab", np.array([[0.02 + 0.04j, 0.01j], [0.01j, 0.02j]]))],
    [dsolve.PhaseLoad("n1", {"a": complex(0.1, -0.0), "b": complex(-0.0, 0.05)})],
    [0],
)


@given(radial_trees(), st.randoms(use_true_random=False))
@example(_NEGATIVE_ZERO_IMAG, random.Random(0))
@settings(max_examples=100, deadline=None)
def test_feeder_text_round_trips_bit_for_bit(tree, rnd):
    """Written, spaced and commented at random, with options shuffled, a feeder
    parses back to the same arrays, bit for bit."""
    lines, loads, _ = tree
    f = dsolve.Feeder(12.47, 100.0, "n0", lines, loads, name="tree")
    noisy = [rnd.choice(["", "# tree"])]
    for row in io.serialize_feeder(f).splitlines():
        toks = row.split()
        n_fixed = {"line": 3, "load": 2}.get(toks[0], len(toks))
        options = toks[n_fixed:]
        rnd.shuffle(options)
        noisy.append("".join(rnd.choice(_SPACES) + tok for tok in toks[:n_fixed] + options))
        if rnd.random() < 0.3:
            noisy[-1] += rnd.choice(_COMMENTS)
        if rnd.random() < 0.2:
            noisy.append(rnd.choice(["", " \t", "# comment"]))
    g = io.parse_feeder("\n".join(noisy))
    assert (g.line_from, g.line_to, g.line_phases) == (f.line_from, f.line_to, f.line_phases)
    assert _same_bits(g.line_z, f.line_z)
    assert g.load_nodes == f.load_nodes
    assert np.array_equal(g.load_phases, f.load_phases)
    assert _same_bits(g.load_s, f.load_s)


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


LOADSHAPE_ERRORS = {  # text, line, column, message; blank lines count
    "minute": ("minute,multiplier\n\n\n0,1\nx,2\n", 5, 1, "bad minute value 'x'"),
    "multiplier": ("0,1\n\n1, abc\n", 3, 3, "bad multiplier value ' abc'"),
    "negative": ("minute,multiplier\n0,1.0\n 1,-0.5\n", 3, 4,
                 "multiplier must be finite and >= 0, got -0.5"),
    "gap": ("0,1\n\n\n3,1\n", 4, 1, "loadshape minutes must be contiguous; expected 1, got 3"),
    # a first row whose multiplier reads as a number is a sample, not a header
    "float minute": ("0.0,1.0\n1,1.0", 1, 1, "bad minute value '0.0'"),
    "letter minute": ("O,1.0\n1,1.0\n2,0.9", 1, 1, "bad minute value 'O'"),
    "quoted comma": ('0,1\n"1","a,b"\n', 2, 5, "bad multiplier value 'a,b'"),
    "two-line row": ('0,1\n"1\n",x\n', 3, 3, "bad multiplier value 'x'"),
    "csv error": ("0,1\n\n1," + "x" * (csv.field_size_limit() + 1) + "\n", 3, 1,
                  f"malformed CSV: field larger than field limit ({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("name", list(LOADSHAPE_ERRORS))
def test_loadshape_errors_name_their_file_line_and_column(name):
    text, line, col, message = LOADSHAPE_ERRORS[name]
    with pytest.raises(ParseError) as err:
        io.parse_loadshape(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("minute", [-1, 1440])
def test_a_minute_without_a_sample_is_named(flat_shape, minute):
    with pytest.raises(KeyError, match=f"^\"loadshape 'day' has no sample for minute {minute}\"$"):
        flat_shape.multiplier(minute)


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


_OPTION_KEYS = ["phases", "zaa", "zab", "zbb", "zcc", "sa", "sb", "", "zba"]
_OPTION_VALUES = ["a", "ab", "ba", "1j", "0", "-0j", "2e3-1j", "x", "", "inf"]
_option_tokens = st.one_of(
    st.builds("{}={}".format, st.sampled_from(_OPTION_KEYS), st.sampled_from(_OPTION_VALUES)),
    st.sampled_from(_OPTION_KEYS + _OPTION_VALUES + ["zaa=1j=1j"]),
)


@given(st.sampled_from(["line", "load"]), st.lists(_option_tokens, max_size=8))
@example("line", ["phases=ab", "zaa=1j", "zbb=1j", "zab=0"])
@example("line", ["phases=bc", "zbb=1j", "zcc=-0j"])
@example("line", ["phases=a", "zaa=1j", "zaa=2j"])
@example("load", ["sa=1j", "sc=-0j"])
@example("load", ["sa=1j", "sa=1j"])
@settings(max_examples=400, deadline=None)
def test_whole_row_checks_agree_with_token_reading(directive, options):
    """The whole-row checks take exactly the rows that the token-by-token
    reading takes, with the same bits."""
    toks = [directive, "n1", "n2"][: 3 if directive == "line" else 2] + options
    quick = (io._line_values if directive == "line" else io._load_values)(toks, {})
    try:
        read = (io._line_row if directive == "line" else io._load_row)(
            io._Lines(" ".join(toks)), 1, toks)
    except ParseError:
        read = None
    assert repr(quick) == repr(read)


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
    trace_rows = sum(m.size for s in res.steps for m in s.trace.mismatch)
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


def _old_write_csv(path, header, rows):
    """The writer's reference: a truncating ``open`` and ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


ROWS = [[0, 6, "a", repr(0.1 + 0.2), ""], [1, 6, "b", "x,y", 'say "hi"'], [2, 6, "c", "\n", -0.0]]


def test_write_csv_gives_the_reference_bytes(tmp_path):
    io.write_csv(tmp_path / "new.csv", ["t", "bus", "phase", "v", "note"], ROWS)
    _old_write_csv(tmp_path / "ref.csv", ["t", "bus", "phase", "v", "note"], ROWS)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n" in (tmp_path / "new.csv").read_bytes()


@pytest.mark.parametrize("before", [ROWS * 40, ROWS[:1], []], ids=["longer", "shorter", "empty"])
def test_an_overwritten_csv_reads_as_a_fresh_one(tmp_path, before):
    # an existing file is written over in place, so a longer one must lose its tail
    over = tmp_path / "over.csv"
    _old_write_csv(over, ["t"] * 5, before)
    io.write_csv(over, ["t", "bus", "phase", "v", "note"], ROWS)
    io.write_csv(tmp_path / "fresh.csv", ["t", "bus", "phase", "v", "note"], ROWS)
    assert over.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_file_gets_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        io.write_text(tmp_path / "new.td", "tdfeeder 1\n")
        with open(tmp_path / "ref.td", "w"):
            pass
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "new.td").st_mode == os.stat(tmp_path / "ref.td").st_mode
