"""Parsers and writers for case files, feeder files, loadshapes and results.

The text formats are line-oriented: one directive per line, positional
arguments first, ``key=value`` options after, ``#`` starts a comment.  Every
parse error carries a 1-based line:column location.  The full schemas are
documented in ``docs/formats.md``; the header line pins the schema version.

CSV outputs use Python's shortest round-trip float representation so
repeated runs produce byte-identical files.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass
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
from .dsolve import PHASE_INDEX, Feeder, FeederLine, PhaseLoad

CASE_SCHEMA = "1"
FEEDER_SCHEMA = "1"

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class CaseDocument:
    schema_version: str
    case: TransmissionCase

    @property
    def feeder_attachments(self) -> dict[int, str]:
        return {ld.bus: ld.feeder_id for ld in self.case.loads if ld.is_feeder}


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


def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs, comments stripped."""
    if "#" in line:
        line = line[: line.index("#")]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


class _Lines:
    def __init__(self, text: str):
        self.rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            toks = _tokens(raw)
            if toks:
                self.rows.append((lineno, toks))


def _parse_float(tok: str, lineno: int, col: int, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(lineno, col, f"expected a number for {what}, got {tok!r}") from None
    if not np.isfinite(v):
        raise ParseError(lineno, col, f"{what} must be finite, got {tok!r}")
    return v


def _parse_complex(tok: str, lineno: int, col: int, what: str) -> complex:
    try:
        v = complex(tok)
    except ValueError:
        raise ParseError(
            lineno, col, f"expected a complex literal for {what}, got {tok!r}"
        ) from None
    if not (np.isfinite(v.real) and np.isfinite(v.imag)):
        raise ParseError(lineno, col, f"{what} must be finite, got {tok!r}")
    return v


def _parse_int(tok: str, lineno: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, col, f"expected an integer for {what}, got {tok!r}") from None


def _split_kv(toks, lineno, n_positional, directive):
    pos = toks[1 : 1 + n_positional]
    if len(pos) < n_positional:
        raise ParseError(
            lineno,
            toks[0][1],
            f"{directive!r} needs {n_positional} positional argument(s)",
        )
    kv: dict[str, tuple[str, int]] = {}
    for tok, col in toks[1 + n_positional :]:
        if "=" not in tok:
            raise ParseError(lineno, col, f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if not key or not val:
            raise ParseError(lineno, col, f"malformed key=value pair {tok!r}")
        if key in kv:
            raise ParseError(lineno, col, f"duplicate key {key!r}")
        kv[key] = (val, col)
    return pos, kv


def _reject_unknown(kv, allowed, lineno, directive):
    for key, (_, col) in kv.items():
        if key not in allowed:
            raise ParseError(lineno, col, f"unknown key {key!r} for {directive!r}")


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


def parse_case(text: str) -> CaseDocument:
    """Parse a transmission case document (physical units)."""
    lines = _Lines(text)
    if not lines.rows:
        raise ParseError(1, 1, "empty input; expected 'tdcase <version>' header")
    lineno, toks = lines.rows[0]
    if toks[0][0] != "tdcase":
        raise ParseError(lineno, toks[0][1], "expected 'tdcase <version>' header")
    if len(toks) != 2:
        raise ParseError(lineno, toks[0][1], "header must be exactly 'tdcase <version>'")
    version = toks[1][0]
    if version != CASE_SCHEMA:
        raise ParseError(lineno, toks[1][1], f"unsupported case schema version {version!r}")

    base_mva: float | None = None
    buses: list[Bus] = []
    branches: list[Branch] = []
    gens: list[Generator] = []
    loads: list[LoadAttachment] = []
    seen_bus: dict[int, int] = {}

    for lineno, toks in lines.rows[1:]:
        directive, dcol = toks[0]
        if directive == "base_mva":
            if len(toks) != 2:
                raise ParseError(lineno, dcol, "base_mva takes a single value")
            base_mva = _parse_float(toks[1][0], lineno, toks[1][1], "base_mva")
            if base_mva <= 0:
                raise ParseError(lineno, toks[1][1], "base_mva must be positive")
        elif directive == "bus":
            pos, kv = _split_kv(toks, lineno, 2, "bus")
            _reject_unknown(kv, _BUS_KEYS, lineno, "bus")
            bus_id = _parse_int(pos[0][0], lineno, pos[0][1], "bus id")
            kind_tok, kind_col = pos[1]
            try:
                kind = BusKind(kind_tok)
            except ValueError:
                raise ParseError(
                    lineno, kind_col, f"bus kind must be slack/pv/pq, got {kind_tok!r}"
                ) from None
            if bus_id in seen_bus:
                raise ParseError(
                    lineno, pos[0][1],
                    f"duplicate bus id {bus_id} (first defined on line {seen_bus[bus_id]})",
                )
            seen_bus[bus_id] = lineno
            if "base_kv" not in kv:
                raise ParseError(lineno, dcol, f"bus {bus_id} needs base_kv=")
            base_kv = _parse_float(kv["base_kv"][0], lineno, kv["base_kv"][1], "base_kv")
            v_sp = (
                _parse_float(kv["v"][0], lineno, kv["v"][1], "v")
                if "v" in kv
                else None
            )
            ang = (
                _parse_float(kv["angle"][0], lineno, kv["angle"][1], "angle")
                if "angle" in kv
                else (0.0 if kind is BusKind.SLACK else None)
            )
            buses.append(Bus(bus_id, kind, base_kv, v_sp, ang))
        elif directive == "branch":
            pos, kv = _split_kv(toks, lineno, 2, "branch")
            _reject_unknown(kv, _BRANCH_KEYS, lineno, "branch")
            f = _parse_int(pos[0][0], lineno, pos[0][1], "from bus")
            t = _parse_int(pos[1][0], lineno, pos[1][1], "to bus")

            def fval(key: str, default: float = 0.0) -> float:
                if key not in kv:
                    return default
                return _parse_float(kv[key][0], lineno, kv[key][1], key)

            z1 = complex(fval("r1"), fval("x1"))
            z2 = complex(fval("r2"), fval("x2")) if ("r2" in kv or "x2" in kv) else None
            z0 = complex(fval("r0"), fval("x0")) if ("r0" in kv or "x0" in kv) else None
            zseq_tok = kv.get("zero_seq", ("through", dcol))
            try:
                zseq = ZeroSeqPath(zseq_tok[0])
            except ValueError:
                raise ParseError(
                    lineno, zseq_tok[1],
                    f"zero_seq must be open/grounded/through, got {zseq_tok[0]!r}",
                ) from None
            coupling = None
            c_keys = [k for k in kv if k.startswith("c") and len(k) == 3]
            if c_keys:
                coupling = np.zeros((3, 3), dtype=complex)
                for key in c_keys:
                    i, j = int(key[1]), int(key[2])
                    coupling[i, j] = _parse_complex(kv[key][0], lineno, kv[key][1], key)
            branches.append(
                Branch(
                    from_bus=f,
                    to_bus=t,
                    z1=z1,
                    z2=z2,
                    z0=z0,
                    b1_shunt=fval("b1"),
                    b0_shunt=fval("b0"),
                    tap=fval("tap", 1.0),
                    zero_seq_path=zseq,
                    untransposed=coupling is not None,
                    coupling=coupling,
                )
            )
        elif directive == "gen":
            pos, kv = _split_kv(toks, lineno, 1, "gen")
            _reject_unknown(kv, _GEN_KEYS, lineno, "gen")
            bus_id = _parse_int(pos[0][0], lineno, pos[0][1], "gen bus")
            required = ("pmin", "pmax", "qmin", "qmax", "cost_a", "cost_b", "cost_c")
            for key in required:
                if key not in kv:
                    raise ParseError(lineno, dcol, f"gen at bus {bus_id} needs {key}=")
            num = {k: _parse_float(kv[k][0], lineno, kv[k][1], k) for k in kv}
            gens.append(
                Generator(
                    bus=bus_id,
                    p_min=num["pmin"],
                    p_max=num["pmax"],
                    q_min=num["qmin"],
                    q_max=num["qmax"],
                    cost=CostCurve(num["cost_a"], num["cost_b"], num["cost_c"]),
                    p_set=num.get("p", num["pmin"]),
                    q_set=num.get("q", 0.0),
                )
            )
        elif directive == "load":
            pos, kv = _split_kv(toks, lineno, 1, "load")
            _reject_unknown(kv, _LOAD_KEYS, lineno, "load")
            bus_id = _parse_int(pos[0][0], lineno, pos[0][1], "load bus")
            loads.append(
                LoadAttachment(
                    bus=bus_id,
                    p=_parse_float(kv["p"][0], lineno, kv["p"][1], "p") if "p" in kv else 0.0,
                    q=_parse_float(kv["q"][0], lineno, kv["q"][1], "q") if "q" in kv else 0.0,
                    loadshape_id=kv["shape"][0] if "shape" in kv else None,
                )
            )
        elif directive == "feeder":
            pos, kv = _split_kv(toks, lineno, 1, "feeder")
            _reject_unknown(kv, _FEEDER_KEYS, lineno, "feeder")
            bus_id = _parse_int(pos[0][0], lineno, pos[0][1], "feeder bus")
            if "id" not in kv:
                raise ParseError(lineno, dcol, f"feeder at bus {bus_id} needs id=")
            loads.append(
                LoadAttachment(
                    bus=bus_id,
                    feeder_id=kv["id"][0],
                    loadshape_id=kv["shape"][0] if "shape" in kv else None,
                )
            )
        else:
            raise ParseError(lineno, dcol, f"unknown directive {directive!r}")

    if base_mva is None:
        raise ParseError(1, 1, "case is missing the base_mva directive")

    bus_ids = {b.id for b in buses}
    for lineno, toks in lines.rows[1:]:
        directive = toks[0][0]
        if directive == "branch":
            for tok, col in toks[1:3]:
                if int(tok) not in bus_ids:
                    raise ParseError(lineno, col, f"branch references unknown bus {tok}")
        elif directive in ("gen", "load", "feeder"):
            tok, col = toks[1]
            if int(tok) not in bus_ids:
                raise ParseError(lineno, col, f"{directive} references unknown bus {tok}")

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
    return f"{float(z.real)!r}{'+' if z.imag >= 0 else '-'}{abs(float(z.imag))!r}j"


def serialize_case(doc: CaseDocument) -> str:
    """Canonical text form; reparses to an equal document."""
    case = doc.case
    out = [f"tdcase {doc.schema_version}", f"base_mva {_fmt(case.base_mva)}"]
    for b in case.buses:
        parts = [f"bus {b.id} {b.kind.value} base_kv={_fmt(b.base_kv)}"]
        if b.v_setpoint is not None:
            parts.append(f"v={_fmt(b.v_setpoint)}")
        if b.angle_setpoint is not None:
            parts.append(f"angle={_fmt(b.angle_setpoint)}")
        out.append(" ".join(parts))
    for br in case.branches:
        parts = [f"branch {br.from_bus} {br.to_bus}"]
        parts.append(f"r1={_fmt(br.z1.real)}")
        parts.append(f"x1={_fmt(br.z1.imag)}")
        if br.z2 is not None:
            parts.append(f"r2={_fmt(br.z2.real)}")
            parts.append(f"x2={_fmt(br.z2.imag)}")
        if br.z0 is not None:
            parts.append(f"r0={_fmt(br.z0.real)}")
            parts.append(f"x0={_fmt(br.z0.imag)}")
        if br.b1_shunt:
            parts.append(f"b1={_fmt(br.b1_shunt)}")
        if br.b0_shunt:
            parts.append(f"b0={_fmt(br.b0_shunt)}")
        if br.tap != 1.0:
            parts.append(f"tap={_fmt(br.tap)}")
        if br.zero_seq_path is not ZeroSeqPath.THROUGH:
            parts.append(f"zero_seq={br.zero_seq_path.value}")
        if br.coupling is not None:
            c = np.asarray(br.coupling)
            for i in range(3):
                for j in range(3):
                    if i != j and c[i, j] != 0:
                        parts.append(f"c{i}{j}={_fmt_complex(c[i, j])}")
        out.append(" ".join(parts))
    for g in case.generators:
        out.append(
            f"gen {g.bus} pmin={_fmt(g.p_min)} pmax={_fmt(g.p_max)} "
            f"qmin={_fmt(g.q_min)} qmax={_fmt(g.q_max)} "
            f"cost_a={_fmt(g.cost.a)} cost_b={_fmt(g.cost.b)} cost_c={_fmt(g.cost.c)} "
            f"p={_fmt(g.p_set)} q={_fmt(g.q_set)}"
        )
    for ld in case.loads:
        if ld.is_feeder:
            line = f"feeder {ld.bus} id={ld.feeder_id}"
        else:
            line = f"load {ld.bus} p={_fmt(ld.p)} q={_fmt(ld.q)}"
        if ld.loadshape_id:
            line += f" shape={ld.loadshape_id}"
        out.append(line)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Feeder files
# ---------------------------------------------------------------------------

_Z_KEYS = {"zaa", "zbb", "zcc", "zab", "zac", "zbc"}


def parse_feeder(text: str) -> Feeder:
    """Parse a radial feeder file; raises on cycles or dangling references."""
    lines = _Lines(text)
    if not lines.rows:
        raise ParseError(1, 1, "empty input; expected 'tdfeeder <version>' header")
    lineno, toks = lines.rows[0]
    if toks[0][0] != "tdfeeder" or len(toks) != 2:
        raise ParseError(lineno, toks[0][1], "expected 'tdfeeder <version>' header")
    if toks[1][0] != FEEDER_SCHEMA:
        raise ParseError(
            lineno, toks[1][1], f"unsupported feeder schema version {toks[1][0]!r}"
        )

    name = "feeder"
    base_kv: float | None = None
    base_mva: float | None = None
    head: str | None = None
    flines: list[FeederLine] = []
    floads: list[PhaseLoad] = []

    for lineno, toks in lines.rows[1:]:
        directive, dcol = toks[0]
        if directive in ("name", "base_kv", "base_mva", "head") and len(toks) != 2:
            raise ParseError(lineno, dcol, f"{directive} takes a single value")
        if directive == "name":
            name = toks[1][0]
        elif directive == "base_kv":
            base_kv = _parse_float(toks[1][0], lineno, toks[1][1], "base_kv")
        elif directive == "base_mva":
            base_mva = _parse_float(toks[1][0], lineno, toks[1][1], "base_mva")
        elif directive == "head":
            head = toks[1][0]
        elif directive == "line":
            pos, kv = _split_kv(toks, lineno, 2, "line")
            allowed = _Z_KEYS | {"phases"}
            _reject_unknown(kv, allowed, lineno, "line")
            if "phases" not in kv:
                raise ParseError(lineno, dcol, "line needs phases=")
            phases = kv["phases"][0]
            if (
                not phases
                or any(p not in PHASE_INDEX for p in phases)
                or list(phases) != sorted(set(phases))
            ):
                raise ParseError(
                    lineno, kv["phases"][1],
                    f"phases must be an ordered subset of 'abc', got {phases!r}",
                )
            k = len(phases)
            z = np.zeros((k, k), dtype=complex)
            for key, (val, col) in kv.items():
                if key == "phases":
                    continue
                pa, pb = key[1], key[2]
                if pa not in phases or pb not in phases:
                    raise ParseError(
                        lineno, col, f"{key} refers to a phase not in {phases!r}"
                    )
                i, j = phases.index(pa), phases.index(pb)
                z[i, j] = z[j, i] = _parse_complex(val, lineno, col, key)
            for i, p in enumerate(phases):
                if z[i, i] == 0:
                    raise ParseError(lineno, dcol, f"line needs z{p}{p}= (self impedance)")
            flines.append(FeederLine(pos[0][0], pos[1][0], phases, z))
        elif directive == "load":
            pos, kv = _split_kv(toks, lineno, 1, "load")
            _reject_unknown(kv, {"sa", "sb", "sc"}, lineno, "load")
            if not kv:
                raise ParseError(lineno, dcol, "load needs at least one s<phase>=")
            s = {
                key[1]: _parse_complex(val, lineno, col, key)
                for key, (val, col) in kv.items()
            }
            floads.append(PhaseLoad(pos[0][0], s))
        else:
            raise ParseError(lineno, dcol, f"unknown directive {directive!r}")

    if base_kv is None or base_mva is None or head is None:
        raise ParseError(1, 1, "feeder file needs base_kv, base_mva and head directives")

    feeder = Feeder(base_kv, base_mva, head, tuple(flines), tuple(floads), name)
    from .dsolve import validate_feeder

    problems = validate_feeder(feeder)
    if problems:
        raise ParseError(1, 1, "; ".join(problems))
    return feeder


def serialize_feeder(feeder: Feeder) -> str:
    out = [
        f"tdfeeder {FEEDER_SCHEMA}",
        f"name {feeder.name}",
        f"base_kv {_fmt(feeder.base_kv)}",
        f"base_mva {_fmt(feeder.base_mva)}",
        f"head {feeder.head}",
    ]
    for ln in feeder.lines:
        parts = [f"line {ln.from_node} {ln.to_node} phases={ln.phases}"]
        z = np.asarray(ln.z_abc)
        for i, pa in enumerate(ln.phases):
            for j, pb in enumerate(ln.phases):
                if j < i:
                    continue
                if i == j or z[i, j] != 0:
                    parts.append(f"z{pa}{pb}={_fmt_complex(z[i, j])}")
        out.append(" ".join(parts))
    for ld in feeder.loads:
        parts = [f"load {ld.node}"]
        for ph in "abc":
            if ph in ld.s:
                parts.append(f"s{ph}={_fmt_complex(ld.s[ph])}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Loadshapes
# ---------------------------------------------------------------------------


def parse_loadshape(text: str, shape_id: str = "shape") -> LoadshapeSeries:
    """Parse a two-column minute,multiplier CSV (header optional)."""
    try:
        rows = [
            r for r in csv.reader(text.splitlines()) if r and any(c.strip() for c in r)
        ]
    except csv.Error as exc:
        raise ParseError(1, 1, f"malformed CSV: {exc}") from None
    if not rows:
        raise ParseError(1, 1, "empty loadshape")
    start = 0
    first = rows[0]
    try:
        int(first[0])
    except ValueError:
        start = 1  # header row
    minutes: list[int] = []
    values: list[float] = []
    for rowno, row in enumerate(rows[start:], start=start + 1):
        if len(row) < 2:
            raise ParseError(rowno, 1, "loadshape rows need minute,multiplier")
        try:
            minute = int(row[0])
        except ValueError:
            raise ParseError(rowno, 1, f"bad minute value {row[0]!r}") from None
        try:
            mult = float(row[1])
        except ValueError:
            raise ParseError(rowno, 2, f"bad multiplier value {row[1]!r}") from None
        if not np.isfinite(mult) or mult < 0:
            raise ParseError(rowno, 2, f"multiplier must be finite and >= 0, got {row[1]}")
        if minutes and minute != minutes[-1] + 1:
            raise ParseError(
                rowno, 1,
                f"loadshape minutes must be contiguous; expected {minutes[-1] + 1}, "
                f"got {minute}",
            )
        minutes.append(minute)
        values.append(mult)
    if not minutes:
        raise ParseError(1, 1, "loadshape has no samples")
    return LoadshapeSeries(id=shape_id, start_min=minutes[0], multipliers=tuple(values))


# ---------------------------------------------------------------------------
# Result writers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


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
        for row in step.trace.rows:
            if row.iteration != step.trace.overall_iterations:
                continue
            for phase, vt, vd in zip("abc", row.v_trans_mag, row.v_dist_mag):
                rows.append([step.t_min, row.pcc_bus, phase, repr(vt), repr(vd)])
    path = outdir / "pcc_voltages.csv"
    _write_csv(path, ["time_min", "pcc_bus", "phase", "v_trans_pu", "v_dist_pu"], rows)
    written.append(path)

    rows = []
    for step in result.steps:
        for row in step.trace.rows:
            rows.append([step.t_min, row.pcc_bus, row.iteration, repr(row.mismatch)])
    path = outdir / "coupling_trace.csv"
    _write_csv(path, ["time_min", "pcc_bus", "iteration", "mismatch_pu"], rows)
    written.append(path)

    rows = []
    for step in result.steps:
        if step.dispatched and step.dispatch is not None:
            for bus, p in zip(step.gen_buses, step.dispatch.p_set):
                rows.append([step.t_min, bus, repr(p), repr(step.dispatch.lam)])
    path = outdir / "dispatch.csv"
    _write_csv(path, ["time_min", "gen_bus", "p_set_mw", "lambda_usd_per_mwh"], rows)
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
    _write_csv(path, header, rows)
    return path


def load_case(path) -> CaseDocument:
    return parse_case(Path(path).read_text())


def load_feeder(path) -> Feeder:
    return parse_feeder(Path(path).read_text())


def load_loadshape(path, shape_id: str | None = None) -> LoadshapeSeries:
    p = Path(path)
    return parse_loadshape(p.read_text(), shape_id or p.stem)
