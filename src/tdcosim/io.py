"""Parsers and writers for case files, feeder files, loadshapes and results.

The text formats are line-oriented: one directive per line, positional
arguments first, ``key=value`` options after, ``#`` starts a comment.  Every
parse error carries a 1-based line:column location, a feeder's structural
errors (a loop, an unreachable node, a load off the lines) included.  The
full schemas are documented in ``docs/formats.md``; the header line pins the
schema version.

The feeder parser takes each ``line`` and ``load`` row that passes its
whole-row checks from them, converting each distinct value token once per
file.  A row that fails them is read token by token, which raises its
located error; so the checks only ever speed up rows that the token-by-token
reading accepts, with the same values.

CSV outputs use Python's shortest round-trip float representation so
repeated runs produce byte-identical files.
"""
from __future__ import annotations

import cmath
import csv
import math
import os
from dataclasses import dataclass
from functools import partial
from io import StringIO
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError
from .netmodel import (
    Branch,
    Bus,
    BusKind,
    CostCurve,
    Generator,
    LoadAttachment,
    TransmissionCase,
    ZeroSeqPath,
)
from .dsolve import PHASE_INDEX, PHASE_SETS, Feeder, FeederProblem, feeder_problems

CASE_SCHEMA = "1"
FEEDER_SCHEMA = "1"


@dataclass(frozen=True)
class CaseDocument:
    schema_version: str
    case: TransmissionCase


@dataclass(frozen=True)
class LoadshapeSeries:
    """Minute-indexed multipliers at 1-minute resolution, contiguous."""

    id: str
    start_min: int
    multipliers: tuple[float, ...]

    def covers(self, start_min: int, horizon_min: int) -> bool:
        return (
            self.start_min <= start_min
            and start_min + horizon_min <= self.start_min + len(self.multipliers)
        )

    def multiplier(self, minute: int) -> float:
        idx = minute - self.start_min
        if not 0 <= idx < len(self.multipliers):
            raise KeyError(f"loadshape {self.id!r} has no sample for minute {minute}")
        return self.multipliers[idx]


class _Lines:
    """A text's non-blank lines split on whitespace, ``#`` comments stripped.

    Iterating yields ``(lineno, tokens)`` with 1-based line numbers.  A token's
    column is worked out only for an error, from the line's text.
    """

    def __init__(self, text: str):
        self.raw = text.splitlines()

    def __iter__(self):
        for lineno, line in enumerate(self.raw, start=1):
            toks = line.partition("#")[0].split()
            if toks:
                yield lineno, toks

    def position(self, lineno: int, k: int) -> tuple[int, int]:
        """The line and 1-based column of token ``k`` of line ``lineno``."""
        line = self.raw[lineno - 1].partition("#")[0]
        end = 0
        for tok in line.split()[: k + 1]:
            start = line.index(tok, end)
            end = start + len(tok)
        return lineno, start + 1

    def error(self, lineno: int, k: int, message: str) -> ParseError:
        """A ParseError located at token ``k`` of line ``lineno``."""
        return ParseError(*self.position(lineno, k), message)


# What each number parser expects, and its finiteness test.
_NUMBERS = {
    float: ("a number", math.isfinite),
    complex: ("a complex literal", cmath.isfinite),
    int: ("an integer", None),
}


def _parse_number(kind: type, tok: str, lines: _Lines, lineno: int, k: int, what: str):
    """``kind(tok)`` for token ``k`` of line ``lineno``; a float or complex must be finite."""
    expected, finite = _NUMBERS[kind]
    try:
        v = kind(tok)
    except ValueError:
        raise lines.error(lineno, k, f"expected {expected} for {what}, got {tok!r}") from None
    if finite is not None and not finite(v):
        raise lines.error(lineno, k, f"{what} must be finite, got {tok!r}")
    return v


_parse_float = partial(_parse_number, float)
_parse_complex = partial(_parse_number, complex)
_parse_int = partial(_parse_number, int)


def _options(lines: _Lines, lineno: int, toks: list[str], n_positional: int,
             directive: str, allowed) -> dict[str, tuple[str, int]]:
    """The ``key=value`` options after the positional arguments, as
    key -> (value, token index); every key must be in ``allowed``."""
    if len(toks) <= n_positional:
        raise lines.error(
            lineno, 0, f"{directive!r} needs {n_positional} positional argument(s)"
        )
    kv: dict[str, tuple[str, int]] = {}
    for k in range(1 + n_positional, len(toks)):
        key, eq, val = toks[k].partition("=")
        if not eq:
            raise lines.error(lineno, k, f"expected key=value, got {toks[k]!r}")
        if not key or not val:
            raise lines.error(lineno, k, f"malformed key=value pair {toks[k]!r}")
        if key in kv:
            raise lines.error(lineno, k, f"duplicate key {key!r}")
        kv[key] = (val, k)
    if not kv.keys() <= allowed:
        key = next(key for key in kv if key not in allowed)
        raise lines.error(lineno, kv[key][1], f"unknown key {key!r} for {directive!r}")
    return kv


# ---------------------------------------------------------------------------
# Case files
# ---------------------------------------------------------------------------

_BUS_KEYS = {"base_kv", "v", "angle"}
_BRANCH_KEYS = {
    "r1", "x1", "r2", "x2", "r0", "x0", "b1", "b0", "tap", "zero_seq",
    "c01", "c02", "c10", "c12", "c20", "c21",
}
_GEN_KEYS = {"pmin", "pmax", "qmin", "qmax", "cost_a", "cost_b", "cost_c", "p", "q"}
_LOAD_KEYS = {"p", "q", "shape"}
_FEEDER_KEYS = {"id", "shape"}
_BUS_REFS = {"branch": (1, 2), "gen": (1,), "load": (1,), "feeder": (1,)}  # token indices


def parse_case(text: str) -> CaseDocument:
    """Parse a transmission case document (physical units)."""
    lines = _Lines(text)
    rows = list(lines)
    if not rows:
        raise ParseError(1, 1, "empty input; expected 'tdcase <version>' header")
    lineno, toks = rows[0]
    if toks[0] != "tdcase":
        raise lines.error(lineno, 0, "expected 'tdcase <version>' header")
    if len(toks) != 2:
        raise lines.error(lineno, 0, "header must be exactly 'tdcase <version>'")
    if toks[1] != CASE_SCHEMA:
        raise lines.error(lineno, 1, f"unsupported case schema version {toks[1]!r}")

    base_mva: float | None = None
    base_mva_line = 0
    buses: list[Bus] = []
    branches: list[Branch] = []
    gens: list[Generator] = []
    loads: list[LoadAttachment] = []
    seen_bus: dict[int, int] = {}

    kv: dict[str, tuple[str, int]] = {}

    def num(key: str, default: float | None = None) -> float | None:
        """Option ``key`` of the current line as a number, ``default`` if absent."""
        if key not in kv:
            return default
        return _parse_float(kv[key][0], lines, lineno, kv[key][1], key)

    for lineno, toks in rows[1:]:
        directive = toks[0]
        if directive == "base_mva":
            if base_mva_line:
                raise lines.error(lineno, 0, f"duplicate directive 'base_mva' "
                                             f"(first on line {base_mva_line})")
            if len(toks) != 2:
                raise lines.error(lineno, 0, "base_mva takes a single value")
            base_mva = _parse_float(toks[1], lines, lineno, 1, "base_mva")
            if base_mva <= 0:
                raise lines.error(lineno, 1,
                                  f"base_mva must be finite and positive, got {base_mva}")
            base_mva_line = lineno
        elif directive == "bus":
            kv = _options(lines, lineno, toks, 2, "bus", _BUS_KEYS)
            bus_id = _parse_int(toks[1], lines, lineno, 1, "bus id")
            try:
                kind = BusKind(toks[2])
            except ValueError:
                raise lines.error(
                    lineno, 2, f"bus kind must be slack/pv/pq, got {toks[2]!r}"
                ) from None
            if bus_id in seen_bus:
                raise lines.error(
                    lineno, 1,
                    f"duplicate bus id {bus_id} (first defined on line {seen_bus[bus_id]})",
                )
            seen_bus[bus_id] = lineno
            if "base_kv" not in kv:
                raise lines.error(lineno, 0, f"bus {bus_id} needs base_kv=")
            base_kv = num("base_kv")
            v_sp = num("v")
            ang = num("angle", 0.0 if kind is BusKind.SLACK else None)
            buses.append(Bus(bus_id, kind, base_kv, v_sp, ang))
        elif directive == "branch":
            kv = _options(lines, lineno, toks, 2, "branch", _BRANCH_KEYS)
            f = _parse_int(toks[1], lines, lineno, 1, "from bus")
            t = _parse_int(toks[2], lines, lineno, 2, "to bus")
            z1 = complex(num("r1", 0.0), num("x1", 0.0))
            z2 = complex(num("r2", 0.0), num("x2", 0.0)) if ("r2" in kv or "x2" in kv) else None
            z0 = complex(num("r0", 0.0), num("x0", 0.0)) if ("r0" in kv or "x0" in kv) else None
            zseq_tok, zseq_k = kv.get("zero_seq", ("through", 0))
            try:
                zseq = ZeroSeqPath(zseq_tok)
            except ValueError:
                raise lines.error(
                    lineno, zseq_k, f"zero_seq must be open/grounded/through, got {zseq_tok!r}"
                ) from None
            coupling = None
            c_keys = [k for k in kv if k.startswith("c") and len(k) == 3]
            if c_keys:
                coupling = np.zeros((3, 3), dtype=complex)
                for key in c_keys:
                    i, j = int(key[1]), int(key[2])
                    coupling[i, j] = _parse_complex(kv[key][0], lines, lineno, kv[key][1], key)
            branches.append(
                Branch(
                    from_bus=f,
                    to_bus=t,
                    z1=z1,
                    z2=z2,
                    z0=z0,
                    b1_shunt=num("b1", 0.0),
                    b0_shunt=num("b0", 0.0),
                    tap=num("tap", 1.0),
                    zero_seq_path=zseq,
                    coupling=coupling,
                )
            )
        elif directive == "gen":
            kv = _options(lines, lineno, toks, 1, "gen", _GEN_KEYS)
            bus_id = _parse_int(toks[1], lines, lineno, 1, "gen bus")
            required = ("pmin", "pmax", "qmin", "qmax", "cost_a", "cost_b", "cost_c")
            for key in required:
                if key not in kv:
                    raise lines.error(lineno, 0, f"gen at bus {bus_id} needs {key}=")
            values = {key: num(key) for key in kv}
            gens.append(
                Generator(
                    bus=bus_id,
                    p_min=values["pmin"],
                    p_max=values["pmax"],
                    q_min=values["qmin"],
                    q_max=values["qmax"],
                    cost=CostCurve(values["cost_a"], values["cost_b"], values["cost_c"]),
                    p_set=values.get("p", values["pmin"]),
                    q_set=values.get("q", 0.0),
                )
            )
        elif directive == "load":
            kv = _options(lines, lineno, toks, 1, "load", _LOAD_KEYS)
            bus_id = _parse_int(toks[1], lines, lineno, 1, "load bus")
            loads.append(
                LoadAttachment(
                    bus=bus_id,
                    p=num("p", 0.0),
                    q=num("q", 0.0),
                    loadshape_id=kv["shape"][0] if "shape" in kv else None,
                )
            )
        elif directive == "feeder":
            kv = _options(lines, lineno, toks, 1, "feeder", _FEEDER_KEYS)
            bus_id = _parse_int(toks[1], lines, lineno, 1, "feeder bus")
            if "id" not in kv:
                raise lines.error(lineno, 0, f"feeder at bus {bus_id} needs id=")
            loads.append(
                LoadAttachment(
                    bus=bus_id,
                    feeder_id=kv["id"][0],
                    loadshape_id=kv["shape"][0] if "shape" in kv else None,
                )
            )
        else:
            raise lines.error(lineno, 0, f"unknown directive {directive!r}")

    if base_mva is None:
        raise ParseError(1, 1, "case is missing the base_mva directive")

    bus_ids = {b.id for b in buses}
    for lineno, toks in rows[1:]:
        directive = toks[0]
        for k in _BUS_REFS.get(directive, ()):
            if int(toks[k]) not in bus_ids:
                raise lines.error(lineno, k, f"{directive} references unknown bus {toks[k]}")

    case = TransmissionCase(
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        loads=tuple(loads),
    )
    return CaseDocument(schema_version=CASE_SCHEMA, case=case)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"  # keeps -0.0 through a reparse
    return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}j"


# ---------------------------------------------------------------------------
# Feeder files
# ---------------------------------------------------------------------------

# Each impedance key's two slots in a line's row-major 3 x 3 matrix.
_Z_SLOTS = {
    f"z{pa}{pb}": (3 * PHASE_INDEX[pa] + PHASE_INDEX[pb], 3 * PHASE_INDEX[pb] + PHASE_INDEX[pa])
    for pa, pb in ("aa", "ab", "ac", "bb", "bc", "cc")  # the order they are written in
}
_LINE_KEYS = {"phases", *_Z_SLOTS}

# By phase set: the impedance keys a line may give, with their slots, and
# how many of its self impedances are absent, and so zero.
_LINE_FORMS = {
    ps: ({key: ij for key, ij in _Z_SLOTS.items() if key[1] in ps and key[2] in ps},
         3 - len(ps))
    for ps in PHASE_SETS
}
_LOAD_SLOTS = {f"s{ph}": i for ph, i in PHASE_INDEX.items()}
_PHASE_LOAD_KEYS = set(_LOAD_SLOTS)


def _line_values(toks: list[str], values: dict[str, complex]):
    """A ``line`` row's phase set and row-major 3 x 3 impedances by whole-row
    checks, or None if the row fails one and is left to ``_line_row``.
    ``values`` holds each value token converted so far."""
    try:
        kv = {key: val for key, _, val in map(str.partition, toks[3:], repeat("="))}
        phases = kv.pop("phases")
        slots, absent = _LINE_FORMS[phases]
        z = [0j] * 9
        for key, val in kv.items():
            i, j = slots[key]
            v = values.get(val)
            if v is None:
                v = values[val] = _finite(complex(val))
            z[i] = z[j] = v
    except (KeyError, ValueError):
        return None
    # A repeated key shortens kv; a missing self impedance adds a zero to the diagonal.
    if len(kv) != len(toks) - 4 or z[::4].count(0) > absent:
        return None
    return phases, z


def _load_values(toks: list[str], values: dict[str, complex]):
    """A ``load`` row's named phases and complex MVA by phase by whole-row
    checks, or None if the row fails one and is left to ``_load_row``.
    ``values`` holds each value token converted so far."""
    s, named = [0j] * 3, [False] * 3
    try:
        for key, _, val in map(str.partition, toks[2:], repeat("=")):
            i = _LOAD_SLOTS[key]
            if named[i]:
                return None
            v = values.get(val)
            if v is None:
                v = values[val] = _finite(complex(val))
            s[i] = v
            named[i] = True
    except (KeyError, ValueError):
        return None
    return (named, s) if len(toks) > 2 else None


def _finite(z: complex) -> complex:
    if not cmath.isfinite(z):
        raise ValueError(z)
    return z


def _line_row(lines: _Lines, lineno: int, toks: list[str]) -> tuple[str, list[complex]]:
    """A ``line`` row read token by token: its phase set and row-major 3 x 3
    impedances, or the row's located error."""
    kv = _options(lines, lineno, toks, 2, "line", _LINE_KEYS)
    if "phases" not in kv:
        raise lines.error(lineno, 0, "line needs phases=")
    phases, k = kv.pop("phases")
    if phases not in PHASE_SETS:
        raise lines.error(
            lineno, k, f"phases must be an ordered subset of 'abc', got {phases!r}"
        )
    z = [0j] * 9
    for key, (val, k) in kv.items():
        if key[1] not in phases or key[2] not in phases:
            raise lines.error(lineno, k, f"{key} refers to a phase not in {phases!r}")
        i, j = _Z_SLOTS[key]
        z[i] = z[j] = _parse_complex(val, lines, lineno, k, key)
    for p in phases:
        if z[4 * PHASE_INDEX[p]] == 0:
            raise lines.error(lineno, 0, f"line needs z{p}{p}= (self impedance)")
    return phases, z


def _load_row(lines: _Lines, lineno: int, toks: list[str]) -> tuple[list[bool], list[complex]]:
    """A ``load`` row read token by token: its named phases and complex MVA
    by phase, or the row's located error."""
    kv = _options(lines, lineno, toks, 1, "load", _PHASE_LOAD_KEYS)
    if not kv:
        raise lines.error(lineno, 0, "load needs at least one s<phase>=")
    s, named = [0j] * 3, [False] * 3
    for key, (val, k) in kv.items():
        i = _LOAD_SLOTS[key]
        s[i] = _parse_complex(val, lines, lineno, k, key)
        named[i] = True
    return named, s


def parse_feeder(text: str) -> Feeder:
    """Parse a radial feeder file; raises on cycles or dangling references.

    One pass fills the feeder's arrays, a row per line and per load.  A row
    that passes the whole-row checks is taken from them, with each distinct
    value token read once; any other row is read token by token, which
    raises its located error.  The structural errors are raised together,
    in file order, at the row and token of the first."""
    lines = _Lines(text)
    rows = iter(lines)
    lineno, toks = next(rows, (1, None))
    if toks is None:
        raise ParseError(1, 1, "empty input; expected 'tdfeeder <version>' header")
    if toks[0] != "tdfeeder" or len(toks) != 2:
        raise lines.error(lineno, 0, "expected 'tdfeeder <version>' header")
    if toks[1] != FEEDER_SCHEMA:
        raise lines.error(lineno, 1, f"unsupported feeder schema version {toks[1]!r}")

    meta = {"name": "feeder"}  # and base_kv, base_mva, head
    # Where each record is: the line number of each line and load row, and of
    # each single-valued directive once it is read.
    line_rows, load_rows = [], []
    at = {"line": line_rows, "load": load_rows}
    line_from, line_to, line_phases = [], [], []
    line_z: list[complex] = []  # nine a line, row-major
    load_nodes: list[str] = []
    load_phases, load_s = [], []  # three a load
    values: dict[str, complex] = {}  # each distinct value token, read once

    for lineno, toks in rows:
        directive = toks[0]
        if directive == "line":
            row = _line_values(toks, values) or _line_row(lines, lineno, toks)
            line_from.append(toks[1])
            line_to.append(toks[2])
            line_phases.append(row[0])
            line_z += row[1]
            line_rows.append(lineno)
        elif directive == "load":
            row = _load_values(toks, values) or _load_row(lines, lineno, toks)
            load_nodes.append(toks[1])
            load_phases += row[0]
            load_s += row[1]
            load_rows.append(lineno)
        elif directive in ("name", "base_kv", "base_mva", "head"):
            if directive in at:
                raise lines.error(lineno, 0, f"duplicate directive {directive!r} "
                                             f"(first on line {at[directive]})")
            if len(toks) != 2:
                raise lines.error(lineno, 0, f"{directive} takes a single value")
            meta[directive] = (toks[1] if directive in ("name", "head")
                               else _parse_float(toks[1], lines, lineno, 1, directive))
            at[directive] = lineno
        else:
            raise lines.error(lineno, 0, f"unknown directive {directive!r}")

    if len(meta) < 4:
        raise ParseError(1, 1, "feeder file needs base_kv, base_mva and head directives")

    feeder = Feeder.from_arrays(
        meta["base_kv"], meta["base_mva"], meta["head"],
        tuple(line_from), tuple(line_to), tuple(line_phases),
        np.array(line_z, dtype=complex).reshape(-1, 3, 3), tuple(load_nodes),
        np.array(load_phases, dtype=bool).reshape(-1, 3),
        np.array(load_s, dtype=complex).reshape(-1, 3), meta["name"],
    )
    problems = feeder_problems(feeder)
    if problems:
        located = sorted(((_position(lines, at, problem), str(problem)) for problem in problems),
                         key=itemgetter(0))
        raise ParseError(*located[0][0], "; ".join(message for _, message in located))
    return feeder


# The positional token of a record's field; the others are options.
_POSITIONAL = {None: 0, "from": 1, "node": 1}


def _position(lines: _Lines, at: dict, problem: FeederProblem) -> tuple[int, int]:
    """The line and column of ``problem``: its row, and its field's token there."""
    if problem.record not in ("line", "load"):  # a directive's value
        return lines.position(at[problem.record], 1)
    lineno = at[problem.record][problem.index]
    k = _POSITIONAL.get(problem.field)
    if k is None:
        toks = lines.raw[lineno - 1].partition("#")[0].split()
        key = problem.field if problem.field == "phases" else f"s{problem.field}"
        first = 3 if problem.record == "line" else 2
        k = next(k for k in range(first, len(toks)) if toks[k].partition("=")[0] == key)
    return lines.position(lineno, k)


def serialize_feeder(feeder: Feeder) -> str:
    """The feeder as a ``tdfeeder`` file that parses back to the same arrays.

    Raises ``ValueError`` for a name, head or node that would not read back
    as one token: empty, or with whitespace or ``#`` in it."""
    for kind, names in (("name", (feeder.name,)), ("head", (feeder.head,)),
                        ("node", chain(feeder.line_from, feeder.line_to, feeder.load_nodes))):
        bad = next((x for x in names if "#" in x or x.split() != [x]), None)
        if bad is not None:
            raise ValueError(f"feeder {kind} {bad!r} would not read back as one token")
    out = [
        f"tdfeeder {FEEDER_SCHEMA}",
        f"name {feeder.name}",
        f"base_kv {_fmt(feeder.base_kv)}",
        f"base_mva {_fmt(feeder.base_mva)}",
        f"head {feeder.head}",
    ]
    for a, b, phases, z in zip(feeder.line_from, feeder.line_to, feeder.line_phases,
                               feeder.line_z.reshape(-1, 9).tolist()):
        out.append(" ".join([f"line {a} {b} phases={phases}"] + [
            f"{key}={_fmt_complex(z[i])}" for key, (i, _) in _Z_SLOTS.items()
            if key[1] in phases and key[2] in phases and (key[1] == key[2] or z[i] != 0)
        ]))
    for node, named, s in zip(feeder.load_nodes, feeder.load_phases.tolist(),
                              feeder.load_s.tolist()):
        out.append(" ".join([f"load {node}"] + [
            f"s{ph}={_fmt_complex(v)}" for ph, on, v in zip("abc", named, s) if on
        ]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Loadshapes
# ---------------------------------------------------------------------------


def parse_loadshape(text: str, shape_id: str = "shape") -> LoadshapeSeries:
    """Parse a two-column minute,multiplier CSV (header optional).

    Blank rows are skipped.  An error is located at the file line and column
    where the field at fault starts: the multiplier's, or the row's start."""
    lines = text.splitlines()
    reader = csv.reader(lines)
    rows = []  # (first line, fields)
    last = 0  # the last line read
    try:
        for row in reader:
            if row and any(c.strip() for c in row):
                rows.append((last + 1, row))
            last = reader.line_num
    except csv.Error as exc:
        raise ParseError(reader.line_num, 1, f"malformed CSV: {exc}") from None
    if not rows:
        raise ParseError(1, 1, "empty loadshape")
    start = 0
    try:
        int(rows[0][1][0])
    except ValueError:
        try:
            float((rows[0][1] + [""])[1])
        except ValueError:
            start = 1  # a header: neither the minute nor the multiplier is a number
    minutes: list[int] = []
    values: list[float] = []
    for lineno, row in rows[start:]:
        if len(row) < 2:
            raise ParseError(lineno, 1, "loadshape rows need minute,multiplier")
        try:
            minute = int(row[0])
        except ValueError:
            raise ParseError(lineno, 1, f"bad minute value {row[0]!r}") from None
        try:
            mult = float(row[1])
        except ValueError:
            raise ParseError(*_second_field(lines, lineno),
                             f"bad multiplier value {row[1]!r}") from None
        if not math.isfinite(mult) or mult < 0:
            raise ParseError(*_second_field(lines, lineno),
                             f"multiplier must be finite and >= 0, got {row[1]}")
        if minutes and minute != minutes[-1] + 1:
            raise ParseError(
                lineno, 1,
                f"loadshape minutes must be contiguous; expected {minutes[-1] + 1}, "
                f"got {minute}",
            )
        minutes.append(minute)
        values.append(mult)
    if not minutes:
        raise ParseError(1, 1, "loadshape has no samples")
    return LoadshapeSeries(id=shape_id, start_min=minutes[0], multipliers=tuple(values))


def _second_field(lines: list[str], lineno: int) -> tuple[int, int]:
    """The 1-based line and column at which the second field of the CSV row
    that starts on line ``lineno`` starts: after its first comma outside
    double quotes, which open a field only at its start, as ``csv`` reads."""
    quoted = False
    for k, line in enumerate(lines[lineno - 1:], lineno):
        for col, ch in enumerate(line, 1):
            if ch == "," and not quoted:
                return k, col + 1
            if ch == '"' and (quoted or (k, col) == (lineno, 1)):
                quoted = not quoted
    return lineno, 1  # not reached: the reader found a second field


# ---------------------------------------------------------------------------
# Result writers
# ---------------------------------------------------------------------------


def _keep_contents(path, flags: int) -> int:
    """``open``'s file opener, without ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w", newline="")`` would:
    the same bytes, and a new file's mode from the umask.

    An existing file is overwritten in place and then cut to the written
    length, not truncated to zero first: closing a file that was truncated
    to zero makes some file systems (ext4's ``auto_da_alloc``) write it back
    at once, which costs several times the write itself."""
    with open(path, "w", newline="", opener=_keep_contents) as fh:
        fh.write(text)
        fh.truncate()


def write_csv(path, header: list[str], rows) -> None:
    """``header`` and ``rows`` written by ``csv.writer`` through :func:`write_text`."""
    buf = StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write_text(path, buf.getvalue())


def write_results(result, outdir) -> list[Path]:
    """Write the deterministic CSV artifacts for a co-simulation result.

    ``result`` is a :class:`tdcosim.cosim.CosimResult`.  Returns the written
    paths.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    rows = []
    for step in result.steps:
        trace = step.trace
        if trace.v_trans and len(trace.v_trans) == trace.overall_iterations:  # last round solved
            last = zip(trace.pcc_buses, trace.v_trans[-1].tolist(), trace.v_dist[-1].tolist())
            for bus, v_trans, v_dist in last:
                for phase, vt, vd in zip("abc", v_trans, v_dist):
                    rows.append([step.t_min, bus, phase, repr(vt), repr(vd)])
    path = outdir / "pcc_voltages.csv"
    write_csv(path, ["time_min", "pcc_bus", "phase", "v_trans_pu", "v_dist_pu"], rows)
    written.append(path)

    rows = []
    for step in result.steps:
        for k, mismatch in enumerate(step.trace.mismatch, 1):
            for bus, dv in zip(step.trace.pcc_buses, mismatch.tolist()):
                rows.append([step.t_min, bus, k, repr(dv)])
    path = outdir / "coupling_trace.csv"
    write_csv(path, ["time_min", "pcc_bus", "iteration", "mismatch_pu"], rows)
    written.append(path)

    rows = []
    for step in result.steps:
        if step.dispatched and step.dispatch is not None:
            for bus, p in zip(step.gen_buses, step.dispatch.p_set):
                rows.append([step.t_min, bus, repr(p), repr(step.dispatch.lam)])
    path = outdir / "dispatch.csv"
    write_csv(path, ["time_min", "gen_bus", "p_set_mw", "lambda_usd_per_mwh"], rows)
    written.append(path)
    return written


def write_convergence_table(sweep, outdir) -> Path:
    """Table-2-shaped CSV: one row per alpha, N per PCC plus the overall N."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    buses = sweep.pcc_buses
    header = ["alpha"] + [f"n_bus{b}" for b in buses] + ["overall_n"]
    rows = []
    for entry in sweep.rows:
        row = [repr(entry.alpha)]
        for b in buses:
            row.append(entry.n_per_pcc.get(b, "") if entry.converged else "")
        row.append(entry.overall_n if entry.converged else "failed")
        rows.append(row)
    path = outdir / "convergence_table.csv"
    write_csv(path, header, rows)
    return path


def _parse_file(parse, path, *args):
    """``parse`` of the text of ``path``; a ParseError reads ``PATH:LINE:COL: ...``."""
    text = Path(path).read_text()
    try:
        return parse(text, *args)
    except ParseError as exc:
        exc.args = (f"{path}:{exc}",)
        raise


def load_case(path) -> CaseDocument:
    return _parse_file(parse_case, path)


def load_feeder(path) -> Feeder:
    return _parse_file(parse_feeder, path)


def load_loadshape(path, shape_id: str | None = None) -> LoadshapeSeries:
    return _parse_file(parse_loadshape, path, shape_id or Path(path).stem)
