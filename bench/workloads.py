"""Seeded inputs, set-up, timed units and the reference check of the three
tdcosim benchmark workloads.

Inputs are derived from the workload seed, written as ``.td``/``.csv`` files
under ``bench/.cache`` and parsed back through ``tdcosim.io``, so the program
only ever sees parsed files.  Generating them is never timed.  To build one
workload's inputs ahead of a run::

    python3 bench/workloads.py WORKLOAD VARIANT
"""
from __future__ import annotations

import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "tdcosim" / "data"
CACHE = BENCH / ".cache"
REFERENCE = BENCH / "reference"

if not (SRC / "tdcosim" / "__init__.py").is_file():
    raise SystemExit(f"error: tdcosim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from tdcosim import cli, cosim, dsolve, ed, io  # noqa: E402
from tdcosim.seqxform import PhaseVoltages  # noqa: E402

WORKLOADS = ("day", "wide", "deep")

# Coupling bound passed to every solve, and the reference-check tolerance
# derived from it: two runs that both stop at |dV| < eps sit on the same
# fixed point to well within eps, so a larger gap is a wrong answer.
EPS = 1e-4
TOLERANCE_PU = EPS

# The seed selects one of VARIANTS input sets, each with committed reference
# voltages.  HOLDOUT_SEED is kept out of tuning for the holdout check.
VARIANTS = 32
HOLDOUT_SEED = 31

FEEDER_P_MW, FEEDER_Q_MVAR, FEEDER_KV = 52.1, 11.7, 34.5

# day: the CLI's `timeseries --decoupled` over one evening-peak hour of a
# seeded load realisation (bundled day shape times 1 + 1% white noise).
DAY_START_MIN, DAY_MINUTES = 1020, 60
ED_INTERVAL_MIN, PF_INTERVAL_MIN = 5, 1
DAY_NOISE = 0.01

# wide: system 2, three 10 000-node feeders, the Table-2 alpha sweep.
WIDE_NODES = 10_000
WIDE_BUSES = (5, 6, 8)
ALPHAS = (0.0, 0.05, 0.10, 0.15)

# deep: one unbranched three-phase chain, 1000 levels, 2-6 % end drop.
DEEP_LEVELS = 1000
DEEP_BUS = 6
DEEP_DROP = 0.04


def variant(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def input_paths(workload: str, v: int) -> dict:
    """Case, feeder bindings and loadshape files of one workload variant."""
    case = DATA / "case9.td"
    if workload == "day":
        return {
            "case": case,
            "feeders": [(DATA / "ckt24_synth.td", 6)],
            "shape": CACHE / f"day-{v}.csv",
        }
    if workload == "wide":
        return {
            "case": case,
            "feeders": [(CACHE / f"wide-{v}-{bus}.td", bus) for bus in WIDE_BUSES],
            "shape": None,
        }
    if workload == "deep":
        return {"case": case, "feeders": [(CACHE / f"deep-{v}.td", DEEP_BUS)], "shape": None}
    raise ValueError(f"unknown workload {workload!r}")


def generated_inputs(workload: str, v: int) -> list[Path]:
    paths = input_paths(workload, v)
    files = [p for p, _ in paths["feeders"]] + [paths["shape"]]
    return [p for p in files if p is not None and p.parent == CACHE]


def missing_inputs(workload: str, v: int) -> list[Path]:
    return [p for p in generated_inputs(workload, v) if not p.is_file()]


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _day_shape_csv(v: int) -> str:
    base = io.load_loadshape(DATA / "loadshape_day.csv", "day")
    rng = np.random.default_rng(v)
    mult = np.asarray(base.multipliers) * (
        1.0 + DAY_NOISE * rng.standard_normal(len(base.multipliers))
    )
    rows = [f"{base.start_min + i},{m!r}" for i, m in enumerate(mult.tolist())]
    return "minute,multiplier\n" + "\n".join(rows) + "\n"


def _z3(z_self: complex) -> np.ndarray:
    z = np.full((3, 3), 0.25 * z_self, dtype=complex)
    np.fill_diagonal(z, z_self)
    return z


def _deep_feeder(v: int) -> dsolve.Feeder:
    """Unbranched chain with seeded segment impedances and node loads."""
    rng = np.random.default_rng(v)
    names = ["head"] + [f"d{i}" for i in range(1, DEEP_LEVELS + 1)]
    seg = rng.uniform(0.5, 1.5, DEEP_LEVELS) * (0.45 + 0.9j)
    weight = rng.uniform(0.5, 1.5, DEEP_LEVELS)
    s_node = complex(FEEDER_P_MW, FEEDER_Q_MVAR) * weight / weight.sum()
    loads = tuple(
        dsolve.PhaseLoad(names[i + 1], {ph: complex(s) / 3.0 for ph in "abc"})
        for i, s in enumerate(s_node)
    )

    def build(ohm: float) -> dsolve.Feeder:
        lines = tuple(
            dsolve.FeederLine(names[i], names[i + 1], "abc", _z3(ohm * seg[i]))
            for i in range(DEEP_LEVELS)
        )
        return dsolve.Feeder(FEEDER_KV, 100.0, "head", lines, loads, name=f"deep{v}")

    # Start from a uniform-trunk estimate, then rescale until the end-of-chain
    # drop at full load sits at DEEP_DROP.
    ohm = DEEP_DROP * FEEDER_KV**2 / abs(complex(FEEDER_P_MW, FEEDER_Q_MVAR)) / DEEP_LEVELS
    for _ in range(10):
        feeder = build(ohm)
        sol = dsolve.sweep_solve(feeder, PhaseVoltages.balanced(1.0), tol=1e-8, max_iter=200)
        drop = 1.0 - float(np.min(np.abs(sol.v[sol.mask])))
        if abs(drop - DEEP_DROP) < 0.002:
            return feeder
        ohm *= DEEP_DROP / drop
    raise RuntimeError(f"deep chain variant {v}: end drop {drop:.4f} did not settle")


def build_inputs(workload: str, v: int) -> None:
    """Generate and cache the seeded input files of one workload variant."""
    paths = input_paths(workload, v)
    if workload == "day":
        _write_atomic(paths["shape"], _day_shape_csv(v))
    elif workload == "wide":
        for path, bus in paths["feeders"]:
            feeder = dsolve.synth_feeder(
                nodes=WIDE_NODES, total_p_mw=FEEDER_P_MW, total_q_mvar=FEEDER_Q_MVAR,
                base_kv=FEEDER_KV, seed=1000 * v + bus, name=f"wide{v}_{bus}",
            )
            _write_atomic(path, io.serialize_feeder(feeder))
    elif workload == "deep":
        _write_atomic(paths["feeders"][0][0], io.serialize_feeder(_deep_feeder(v)))
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Set-up and timed units
# ---------------------------------------------------------------------------


@dataclass
class System:
    case: object
    feeders: dict
    shapes: dict


def setup(workload: str, v: int) -> System:
    """Everything before the first solve: parse, validate, compile topology."""
    paths = input_paths(workload, v)
    doc = io.load_case(paths["case"])
    case, feeders = cli._attach_feeders(
        doc.case, [(str(path), bus) for path, bus in paths["feeders"]]
    )
    shapes = {}
    if paths["shape"] is not None:
        shapes["day"] = io.load_loadshape(paths["shape"], "day")
    for feeder in feeders.values():
        feeder.topology()
    return System(case, feeders, shapes)


@dataclass
class Outcome:
    """One step: its wall time and the PCC voltages to check, by reference key."""

    wall_s: float
    checks: dict[str, dict[int, np.ndarray]] = field(default_factory=dict)
    error: str | None = None
    ok: bool = False


def _pcc_voltages(state) -> dict[int, np.ndarray]:
    return {bus: v.as_array() for bus, v in state.pcc_voltages.items()}


def _dispatch(system: System) -> ed.DispatchResult:
    """The CLI's snapshot/sweep dispatch: lumped loads plus feeder aggregates."""
    demand = sum(ld.p for ld in system.case.loads if not ld.is_feeder)
    demand += sum(dsolve.aggregate_load(f).total().real for f in system.feeders.values())
    return ed.dispatch(system.case.generators, demand)


def _error_text() -> str:
    text = traceback.format_exc()
    print(text, file=sys.stderr, end="")
    return text.strip().splitlines()[-1]


def _day_unit(system: System, out: Path) -> list[Outcome]:
    coupled = cosim.run_timeseries(
        system.case, system.feeders, system.shapes,
        start_min=DAY_START_MIN, horizon_min=DAY_MINUTES,
        ed_interval_min=ED_INTERVAL_MIN, pf_interval_min=PF_INTERVAL_MIN, eps=EPS,
    )
    baseline = cosim.run_decoupled_baseline(
        system.case, system.feeders, system.shapes,
        start_min=DAY_START_MIN, horizon_min=DAY_MINUTES,
        ed_interval_min=ED_INTERVAL_MIN, eps=EPS,
    )
    io.write_results(coupled, out)
    io.write_results(baseline, out / "decoupled")
    cli._write_comparison(coupled, baseline, out)

    by_t = {s.t_min: s for s in coupled.steps}
    base_by_t = {s.t_min: s for s in baseline.steps}
    outcomes = []
    for t in range(DAY_START_MIN, DAY_START_MIN + DAY_MINUTES, PF_INTERVAL_MIN):
        step = by_t.get(t)
        if step is None or not step.converged:
            why = "not reached" if step is None else "did not converge"
            outcomes.append(Outcome(0.0 if step is None else step.wall_s,
                                    error=f"minute {t}: {why}"))
            continue
        # The program times each step itself; the bench cannot split the call.
        outcome = Outcome(step.wall_s, {f"coupled/{t}": _pcc_voltages(step.state)})
        if t in base_by_t:
            outcome.checks[f"decoupled/{t}"] = _pcc_voltages(base_by_t[t].state)
        outcomes.append(outcome)
    return outcomes


class _CaptureStates:
    """Keep the states ``sweep_unbalance`` receives from ``couple_step``.

    ``sweep_unbalance`` returns only iteration counts; the voltages it
    converged to are taken from its ``couple_step`` calls for the check.
    """

    def __enter__(self):
        self.states = []
        self._orig = cosim.couple_step

        def capture(*args, **kwargs):
            state, trace = self._orig(*args, **kwargs)
            self.states.append(state)
            return state, trace

        cosim.couple_step = capture
        return self

    def __exit__(self, *exc):
        cosim.couple_step = self._orig


def _wide_unit(system: System, out: Path) -> list[Outcome]:
    outcomes = []
    rows = []
    disp = _dispatch(system)
    with _CaptureStates() as captured:
        for alpha in ALPHAS:
            n_states = len(captured.states)
            began = perf_counter()
            sweep = cosim.sweep_unbalance(
                system.case, system.feeders, [alpha], dispatch=disp, eps=EPS
            )
            wall = perf_counter() - began
            row = sweep.rows[0]
            rows.append(row)
            if not row.converged:
                outcomes.append(Outcome(wall, error=f"alpha {alpha}: {row.error}"))
            elif len(captured.states) != n_states + 1:
                outcomes.append(Outcome(wall, error=f"alpha {alpha}: no state captured"))
            else:
                voltages = _pcc_voltages(captured.states[-1])
                outcomes.append(Outcome(wall, {f"alpha/{alpha!r}": voltages}))
    io.write_convergence_table(cosim.UnbalanceSweep(tuple(sorted(system.feeders)), rows), out)
    return outcomes


def _deep_unit(system: System, out: Path) -> list[Outcome]:
    began = perf_counter()
    disp = _dispatch(system)
    state, trace = cosim.couple_step(system.case, system.feeders, dispatch=disp, eps=EPS)
    wall = perf_counter() - began
    step = cosim.StepResult(
        t_min=0, converged=True, trace=trace, state=state, dispatch=disp,
        dispatched=True, gen_buses=tuple(g.bus for g in system.case.generators),
        wall_s=wall,
    )
    io.write_results(cosim.CosimResult([step], EPS), out)
    return [Outcome(wall, {"snapshot": _pcc_voltages(state)})]


UNITS = {"day": _day_unit, "wide": _wide_unit, "deep": _deep_unit}
STEPS_PER_UNIT = {"day": DAY_MINUTES // PF_INTERVAL_MIN, "wide": len(ALPHAS), "deep": 1}


def run_unit(workload: str, system: System, out: Path) -> list[Outcome]:
    """One repeatable unit of work: a day window, an alpha sweep or a snapshot.

    A unit that raises fails every one of its steps.
    """
    try:
        return UNITS[workload](system, out)
    except Exception:
        error = _error_text()
        return [Outcome(0.0, error=error) for _ in range(STEPS_PER_UNIT[workload])]


# ---------------------------------------------------------------------------
# Reference check
# ---------------------------------------------------------------------------


def reference_file(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


def load_reference(workload: str, v: int) -> dict:
    doc = json.loads(reference_file(workload).read_text())
    return decode_reference(doc["variants"][str(v)])


def _round(x: float) -> float:
    return float(f"{x:.12g}")  # far below the tolerance, a third of the digits


def encode_voltages(checks: dict[str, dict[int, np.ndarray]]) -> dict:
    return {
        key: {str(bus): [[_round(z.real), _round(z.imag)] for z in v] for bus, v in per_bus.items()}
        for key, per_bus in checks.items()
    }


def decode_reference(raw: dict) -> dict[str, dict[int, np.ndarray]]:
    return {
        key: {int(bus): np.array([complex(re, im) for re, im in v]) for bus, v in per_bus.items()}
        for key, per_bus in raw.items()
    }


def check(outcomes: list[Outcome], reference: dict, tolerance: float = TOLERANCE_PU) -> list[str]:
    """Mark each outcome ok or not; return one message per failed outcome."""
    problems = []
    for o in outcomes:
        o.ok = False
        if o.error is not None:
            problems.append(o.error)
            continue
        bad = []
        for key, got in o.checks.items():
            expected = reference.get(key)
            if expected is None:
                bad.append(f"{key}: no reference")
            elif set(got) != set(expected):
                bad.append(f"{key}: PCC buses {sorted(got)} != {sorted(expected)}")
            else:
                gap = max(float(np.max(np.abs(got[b] - expected[b]))) for b in expected)
                if not gap <= tolerance:
                    bad.append(f"{key}: |V - V_ref| = {gap:.3e} pu > {tolerance:g}")
        if not o.checks:
            bad.append("step produced nothing to check")
        if bad:
            problems.append("; ".join(bad))
        else:
            o.ok = True
    return problems


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: {sys.argv[0]} {{{','.join(WORKLOADS)}}} VARIANT")
    build_inputs(sys.argv[1], int(sys.argv[2]))
