"""Master algorithm: one time-stepping loop with two PCC boundaries.

The loop steps the clock every power-flow interval, runs a fresh economic
dispatch on the forecast demand every dispatch interval, applies the
loadshape multipliers and hands the step to a *boundary*, which returns the
step's :class:`CoupledState` and :class:`CouplingTrace`.  The clock only
advances past a step once its boundary has converged.

* The coupled boundary (:func:`couple_step`) iterates the exchange to fixed
  point: the three-sequence solve produces PCC phase voltages, every feeder
  is swept at its commanded head voltage, one after another in PCC order,
  and the per-phase head powers feed the next transmission solve.
  Convergence is declared when, for every PCC and phase, successive
  transmission-side voltage magnitudes differ by less than ``eps``; the first
  round bootstraps from each feeder's aggregate load.
* The aggregate-PQ boundary is the decoupled model: each feeder enters as
  its aggregate load times its multiplier, and one transmission solve ends
  the step with no feeder sweep.  :func:`run_decoupled_baseline` runs it on
  the dispatch cadence.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsolve, ed, tsolve
from .errors import ConvergenceError, TdcosimError
from .netmodel import TransmissionCase, validate_case, with_dispatch
from .seqxform import PhasePowers, PhaseVoltages, sequence_to_phase

COUPLING_EPS = 1e-4
MAX_ROUNDS = 50


@dataclass(frozen=True)
class TraceRow:
    pcc_bus: int
    iteration: int
    v_trans_mag: tuple[float, float, float]
    v_dist_mag: tuple[float, float, float]
    mismatch: float  # max per-phase |V| change vs previous iteration


@dataclass
class CouplingTrace:
    rows: list[TraceRow] = field(default_factory=list)
    iterations_to_converge: dict[int, int] = field(default_factory=dict)
    overall_iterations: int = 0

    def rows_for(self, pcc_bus: int) -> list[TraceRow]:
        return [r for r in self.rows if r.pcc_bus == pcc_bus]


@dataclass
class CoupledState:
    """Converged in-step state: both network solutions plus the exchange."""

    seq: tsolve.SequenceSolution
    feeder_solutions: dict[int, dsolve.FeederSolution]
    pcc_voltages: dict[int, PhaseVoltages]
    pcc_powers: dict[int, PhasePowers]


@dataclass
class StepResult:
    t_min: int
    converged: bool
    trace: CouplingTrace
    state: CoupledState | None
    dispatch: ed.DispatchResult | None
    dispatched: bool  # True when the dispatch was computed at this step
    gen_buses: tuple[int, ...]
    wall_s: float


@dataclass
class CosimResult:
    steps: list[StepResult]
    eps: float
    aborted_at: int | None = None


def _sweep_one(bus, feeder, head_v):
    try:
        return dsolve.sweep_solve(feeder, head_v)
    except TdcosimError as exc:
        exc.args = (f"PCC bus {bus}: {exc.args[0]}",) + exc.args[1:]
        exc.pcc_bus = bus
        raise


def couple_step(
    case: TransmissionCase,
    feeders: dict[int, dsolve.Feeder],
    dispatch: ed.DispatchResult | None = None,
    eps: float = COUPLING_EPS,
    max_rounds: int = MAX_ROUNDS,
    warm: tsolve.SequenceSolution | None = None,
) -> tuple[CoupledState, CouplingTrace]:
    """Iterate one transmission/distribution exchange to convergence.

    Raises :class:`ConvergenceError` (with the trace so far attached as
    ``exc.trace``) if ``max_rounds`` is exhausted or a feeder sweep fails.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    attach_buses = set(case.pcc_buses())
    for bus in feeders:
        if bus not in attach_buses:
            raise ValueError(
                f"bus {bus} has a feeder bound but no Feeder attachment in the case"
            )
    missing = attach_buses - set(feeders)
    if missing:
        raise ValueError(f"case expects feeders at buses {sorted(missing)}")

    if dispatch is not None:
        case = with_dispatch(case, dispatch.p_set)

    # Round-1 bootstrap: feeders enter as their aggregate PQ, the same
    # starting point the decoupled model uses.
    s_pcc: dict[int, PhasePowers] = {
        bus: dsolve.aggregate_load(f) for bus, f in feeders.items()
    }

    trace = CouplingTrace()
    prev_mag: dict[int, np.ndarray] = {}
    converged_at: dict[int, int] = {}
    seq = warm
    fsols: dict[int, dsolve.FeederSolution] = {}

    for k in range(1, max_rounds + 1):
        # (i) transmission solve with the most recent PCC powers; on exit the
        # converged transmission model has consumed them verbatim.
        seq = tsolve.solve_three_sequence(
            case,
            pcc_loads=[(bus, s_pcc[bus]) for bus in sorted(feeders)],
            warm=seq,
        )
        v_sent = {bus: sequence_to_phase(seq.at(bus)) for bus in feeders}

        all_ok = k >= 2
        for bus in sorted(feeders):
            mags = v_sent[bus].magnitudes()
            mismatch = (
                float(np.max(np.abs(mags - prev_mag[bus]))) if bus in prev_mag else float("inf")
            )
            # distribution side: head voltage of the latest feeder solve
            # (one exchange behind the transmission iterate, like Table 1)
            head_mags = np.abs(fsols[bus].v[0]) if bus in fsols else mags
            trace.rows.append(
                TraceRow(
                    pcc_bus=bus,
                    iteration=k,
                    v_trans_mag=tuple(float(m) for m in mags),
                    v_dist_mag=tuple(float(m) for m in head_mags),
                    mismatch=mismatch,
                )
            )
            if mismatch < eps:
                converged_at.setdefault(bus, k)
            else:
                converged_at.pop(bus, None)
                all_ok = False
            prev_mag[bus] = mags

        if not feeders:
            # Degenerate but legal: nothing to couple, one solve suffices.
            trace.overall_iterations = k
            return CoupledState(seq, {}, {}, {}), trace

        if all_ok:
            trace.overall_iterations = k
            trace.iterations_to_converge = dict(converged_at)
            state = CoupledState(
                seq=seq,
                feeder_solutions=fsols,
                pcc_voltages=v_sent,
                pcc_powers=dict(s_pcc),
            )
            return state, trace

        # (ii)-(iv) send voltages down, sweep every feeder, feed powers back.
        try:
            fsols = {
                bus: _sweep_one(bus, feeders[bus], v_sent[bus]) for bus in sorted(feeders)
            }
        except ConvergenceError as exc:
            trace.overall_iterations = k
            exc.trace = trace
            raise
        s_pcc = {bus: sol.head_power for bus, sol in fsols.items()}

    trace.overall_iterations = max_rounds
    err = ConvergenceError(
        f"PCC coupling did not converge within {max_rounds} rounds at eps={eps:g}",
        [r.mismatch for r in trace.rows if np.isfinite(r.mismatch)],
    )
    err.trace = trace
    raise err


def _multiplier(load, shapes, t_min: int) -> float:
    """A load's loadshape multiplier at ``t_min``; 1.0 without a shape."""
    if shapes and load.loadshape_id:
        return shapes[load.loadshape_id].multiplier(t_min)
    return 1.0


def _scale_case_loads(case: TransmissionCase, shapes, t_min: int) -> TransmissionCase:
    loads = []
    for ld in case.loads:
        if ld.loadshape_id and not ld.is_feeder:
            m = _multiplier(ld, shapes, t_min)
            loads.append(replace(ld, p=ld.p * m, q=ld.q * m))
        else:
            loads.append(ld)
    return replace(case, loads=tuple(loads))


def forecast_demand_mw(case, feeders, shapes=None, t_min: int = 0) -> float:
    """Active demand the dispatch serves: lumped loads plus feeder aggregates.

    Each load is scaled by its loadshape multiplier at ``t_min``; a load
    without a loadshape, or a call without ``shapes``, counts at 1.0.
    """
    demand = 0.0
    for ld in case.loads:
        m = _multiplier(ld, shapes, t_min)
        if ld.is_feeder:
            demand += dsolve.aggregate_load(feeders[ld.bus]).total().real * m
        else:
            demand += ld.p * m
    return demand


def _check_shape_coverage(case, shapes, start_min, horizon_min):
    needed = {ld.loadshape_id for ld in case.loads if ld.loadshape_id}
    for shape_id in sorted(needed):
        if shape_id not in shapes:
            raise ValueError(f"case references unknown loadshape {shape_id!r}")
        if not shapes[shape_id].covers(start_min, horizon_min):
            raise ValueError(
                f"loadshape {shape_id!r} does not cover minutes "
                f"[{start_min}, {start_min + horizon_min})"
            )


def _aggregate_pq_boundary(case, feeders, multipliers, dispatch, warm):
    """Decoupled boundary: feeders as aggregate PQ, one transmission solve.

    The trace carries one round so the result shares the coupled run's shape.
    """
    case = with_dispatch(case, dispatch.p_set)
    pcc_loads = [
        (bus, dsolve.aggregate_load(feeders[bus]).scaled(multipliers.get(bus, 1.0)))
        for bus in sorted(feeders)
    ]
    seq = tsolve.solve_three_sequence(case, pcc_loads=pcc_loads, warm=warm)
    trace = CouplingTrace(overall_iterations=1)
    v_sent = {}
    for bus, _ in pcc_loads:
        v_sent[bus] = sequence_to_phase(seq.at(bus))
        mags = tuple(float(m) for m in v_sent[bus].magnitudes())
        trace.rows.append(TraceRow(bus, 1, mags, mags, 0.0))
        trace.iterations_to_converge[bus] = 1
    return CoupledState(seq, {}, v_sent, dict(pcc_loads)), trace


def _time_loop(
    case, feeders, loadshapes, start_min, horizon_min, ed_interval_min,
    pf_interval_min, eps, on_fail, boundary,
) -> CosimResult:
    """The one time-stepping loop behind both runs.

    Each step's ``boundary(step_case, feeders, multipliers, dispatch, warm)``
    gets the loadshape-scaled case, the unscaled feeders with their
    multipliers by PCC bus, the dispatch in force and the previous step's
    transmission solution; it returns ``(CoupledState, CouplingTrace)`` or
    raises :class:`ConvergenceError`.
    """
    if horizon_min <= 0:
        raise ValueError("horizon must be positive")
    if pf_interval_min <= 0 or ed_interval_min <= 0:
        raise ValueError("intervals must be positive")
    if ed_interval_min % pf_interval_min != 0:
        raise ValueError("pf interval must divide the ed interval")
    if on_fail not in ("abort", "continue"):
        raise ValueError("on_fail must be 'abort' or 'continue'")
    loadshapes = loadshapes or {}
    _check_shape_coverage(case, loadshapes, start_min, horizon_min)

    problems = validate_case(case)
    if problems:
        raise ValueError("invalid case: " + "; ".join(problems))

    gen_buses = tuple(g.bus for g in case.generators)
    steps: list[StepResult] = []
    dispatch: ed.DispatchResult | None = None
    warm: tsolve.SequenceSolution | None = None
    aborted_at: int | None = None

    for t in range(start_min, start_min + horizon_min, pf_interval_min):
        began = time.perf_counter()
        dispatched = (t - start_min) % ed_interval_min == 0
        if dispatched:
            demand = forecast_demand_mw(case, feeders, loadshapes, t)
            dispatch = ed.dispatch(case.generators, demand)
        step_case = _scale_case_loads(case, loadshapes, t)
        multipliers = {
            ld.bus: _multiplier(ld, loadshapes, t) for ld in case.loads if ld.is_feeder
        }
        try:
            state, trace = boundary(step_case, feeders, multipliers, dispatch, warm)
        except ConvergenceError as exc:
            state, trace = None, getattr(exc, "trace", CouplingTrace())
        else:
            warm = state.seq
        steps.append(
            StepResult(
                t_min=t,
                converged=state is not None,
                trace=trace,
                state=state,
                dispatch=dispatch,
                dispatched=dispatched,
                gen_buses=gen_buses,
                wall_s=time.perf_counter() - began,
            )
        )
        if state is None and on_fail == "abort":
            aborted_at = t
            break
    return CosimResult(steps=steps, eps=eps, aborted_at=aborted_at)


def run_timeseries(
    case: TransmissionCase,
    feeders: dict[int, dsolve.Feeder],
    loadshapes: dict[str, object] | None = None,
    start_min: int = 0,
    horizon_min: int = 60,
    ed_interval_min: int = 5,
    pf_interval_min: int = 1,
    eps: float = COUPLING_EPS,
    max_rounds: int = MAX_ROUNDS,
    on_fail: str = "abort",
) -> CosimResult:
    """Coupled time-series simulation per the dispatch/load-flow cadence.

    Dispatch runs at every ``ed_interval_min`` boundary on the forecast
    demand; the coupled load flow runs every ``pf_interval_min``.  On a
    coupling failure the run either stops with partial results (``abort``)
    or records the failed step and continues (``continue``).
    """

    def coupled(step_case, unscaled, multipliers, dispatch, warm):
        scaled = {
            bus: dsolve.scale_loads(f, multipliers.get(bus, 1.0))
            for bus, f in unscaled.items()
        }
        return couple_step(
            step_case, scaled, dispatch=dispatch, eps=eps, max_rounds=max_rounds,
            warm=warm,
        )

    return _time_loop(
        case, feeders, loadshapes, start_min, horizon_min, ed_interval_min,
        pf_interval_min, eps, on_fail, coupled,
    )


def run_decoupled_baseline(
    case: TransmissionCase,
    feeders: dict[int, dsolve.Feeder],
    loadshapes: dict[str, object] | None = None,
    start_min: int = 0,
    horizon_min: int = 60,
    ed_interval_min: int = 5,
    eps: float = COUPLING_EPS,
) -> CosimResult:
    """Decoupled reference: feeders as aggregate PQ on the dispatch cadence.

    The time loop of :func:`run_timeseries` with the aggregate-PQ boundary
    and ``pf_interval_min = ed_interval_min``; a step that fails stops the
    run with ``aborted_at`` set.
    """
    return _time_loop(
        case, feeders, loadshapes, start_min, horizon_min, ed_interval_min,
        ed_interval_min, eps, "abort", _aggregate_pq_boundary,
    )


@dataclass(frozen=True)
class SweepEntry:
    alpha: float
    converged: bool
    n_per_pcc: dict[int, int]
    overall_n: int
    error: str | None = None


@dataclass
class UnbalanceSweep:
    pcc_buses: tuple[int, ...]
    rows: list[SweepEntry]


def sweep_unbalance(
    case: TransmissionCase,
    feeders: dict[int, dsolve.Feeder],
    alphas,
    dispatch: ed.DispatchResult | None = None,
    eps: float = COUPLING_EPS,
    max_rounds: int = MAX_ROUNDS,
) -> UnbalanceSweep:
    """Coupling iteration counts across load-unbalance levels (Table-2 shape)."""
    buses = tuple(sorted(feeders))
    rows: list[SweepEntry] = []
    for alpha in alphas:
        shifted = {b: dsolve.apply_unbalance(f, alpha) for b, f in feeders.items()}
        try:
            _, trace = couple_step(
                case, shifted, dispatch=dispatch, eps=eps, max_rounds=max_rounds
            )
            rows.append(
                SweepEntry(
                    alpha=float(alpha),
                    converged=True,
                    n_per_pcc=dict(trace.iterations_to_converge),
                    overall_n=trace.overall_iterations,
                )
            )
        except ConvergenceError as exc:
            rows.append(
                SweepEntry(
                    alpha=float(alpha),
                    converged=False,
                    n_per_pcc={},
                    overall_n=0,
                    error=str(exc),
                )
            )
    return UnbalanceSweep(pcc_buses=buses, rows=rows)
