"""Master algorithm: one time-stepping loop with two PCC boundaries.

The loop steps the clock every power-flow interval, applies the loadshape
multipliers, runs a fresh economic dispatch on that step's demand every
dispatch interval and hands the step to a *boundary*, which returns the
step's :class:`CoupledState` and :class:`CouplingTrace`.  The clock only
advances past a step once its boundary has converged.

* The coupled boundary (:func:`couple_step`) iterates the exchange to fixed
  point: the three-sequence solve produces PCC phase voltages, every feeder
  is swept at its commanded head voltage, one after another in PCC order,
  and the per-phase head powers feed the next transmission solve.  The
  exchange is kept as (k, 3) arrays, one row per PCC in sorted bus order,
  down to each sweep's (3,) head voltage and back from its (3,) head power,
  and so are the step's trace and converged state.  The step reads the bus
  schedule, with the sequence network the case holds, once for all its
  rounds.
  Convergence is declared when, for every PCC and phase, successive
  transmission-side voltage magnitudes differ by less than ``eps``.  The
  loop hands each step the last converged state, and the step decides once
  what its first round reuses of it (:func:`_warm_start`): a PCC whose
  feeder was last solved on the same topology starts its sweep from those
  voltages, and each of its phases from a predicted head power wherever the
  prediction is finite; every other PCC starts flat and every other phase
  from its aggregate load, as the decoupled model does, and so does every
  PCC of a snapshot, an unbalance sweep or a first step.  Later rounds start
  each sweep from the round before's.
* The aggregate-PQ boundary is the decoupled model: each feeder enters as
  its aggregate load, and one transmission solve ends the step with no
  feeder sweep.  :func:`run_decoupled_baseline` runs it on the dispatch
  cadence.

The steps of a run are copies of its case, which share the sequence
network that the case holds, so a run derives it once.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsolve, ed, tsolve
from .errors import ConvergenceError, TdcosimError
from .netmodel import TransmissionCase, validate_case, with_dispatch
from .seqxform import PhaseVoltages

COUPLING_EPS = 1e-4
MAX_ROUNDS = 50


@dataclass
class CouplingTrace:
    """Each round of a step's PCC exchange: the (k, 3) transmission-side |V|
    and the (k,) mismatch, the largest per-phase |V| change since the round
    before, one row per PCC in ``pcc_buses`` order."""

    pcc_buses: tuple[int, ...] = ()
    v_trans: list[np.ndarray] = field(default_factory=list)
    mismatch: list[np.ndarray] = field(default_factory=list)
    iterations_to_converge: dict[int, int] = field(default_factory=dict)
    overall_iterations: int = 0

    @property
    def v_dist(self) -> list[np.ndarray]:
        """Each round's distribution-side |V|: the head |V| the feeders were
        last swept at, which a sweep holds at its commanded voltage, so the
        round before's ``v_trans`` (one exchange behind, like Table 1); in
        round 1, no feeder being swept yet, its own."""
        return self.v_trans[:1] + self.v_trans[:-1]


@dataclass
class CoupledState:
    """Converged in-step state: both network solutions plus the exchange."""

    seq: tsolve.SequenceSolution
    feeder_solutions: dict[int, dsolve.FeederSolution]
    pcc_buses: tuple[int, ...]
    v_pcc: np.ndarray  # (k, 3) complex pu, one row per PCC in pcc_buses order
    s_pcc: np.ndarray  # (k, 3) complex MVA the last transmission solve consumed
    agg: np.ndarray  # (k, 3) complex MVA, each feeder's aggregate load at this step

    @property
    def pcc_voltages(self) -> dict[int, PhaseVoltages]:
        """``v_pcc`` as ``{bus: PhaseVoltages}``, a view that exists only for
        the benchmark's reference check (``bench/workloads.py``)."""
        return {bus: PhaseVoltages.from_array(v) for bus, v in zip(self.pcc_buses, self.v_pcc)}


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
    error: str | None = None  # why the step did not converge


@dataclass
class CosimResult:
    steps: list[StepResult]
    eps: float
    aborted_at: int | None = None


def _sweep_one(bus, feeder, head_v, start):
    """Sweep one feeder at the (3,) head voltage ``head_v`` from ``start``."""
    try:
        return dsolve.sweep_solve(feeder, head_v, start=start)
    except TdcosimError as exc:
        exc.args = (f"PCC bus {bus}: {exc.args[0]}",) + exc.args[1:]
        exc.pcc_bus = bus
        raise


def _check_feeder_binding(case: TransmissionCase, feeders: dict[int, dsolve.Feeder]) -> None:
    """Every feeder sits at a feeder attachment of the case, and every
    attachment has its feeder."""
    attach_buses = set(case.pcc_buses())
    for bus in feeders:
        if bus not in attach_buses:
            raise ValueError(
                f"bus {bus} has a feeder bound but no Feeder attachment in the case"
            )
    missing = attach_buses - set(feeders)
    if missing:
        raise ValueError(f"case expects feeders at buses {sorted(missing)}")


def couple_step(
    case: TransmissionCase,
    feeders: dict[int, dsolve.Feeder],
    dispatch: ed.DispatchResult | None = None,
    eps: float = COUPLING_EPS,
    max_rounds: int = MAX_ROUNDS,
    warm: CoupledState | None = None,
) -> tuple[CoupledState, CouplingTrace]:
    """Iterate one transmission/distribution exchange to convergence.

    ``warm``, a previous step's converged state, starts the first
    transmission solve, and per PCC and phase the first feeder sweeps and
    the PCC powers of the first round (:func:`_warm_start`); without it the
    sweeps start flat from the feeders' aggregate loads.  Later sweeps start
    from the previous round's feeder solutions.  The bus schedule is read
    once per call, on the sequence network the case holds
    (:func:`tsolve.build_sequence_ybus`).

    Round 1 enters the trace with an ``inf`` mismatch.

    Raises :class:`ConvergenceError` (with the trace so far attached as
    ``exc.trace``) if ``max_rounds`` is exhausted or a transmission solve or
    a feeder sweep fails; a failed solve or sweep names its round, and the
    trace of a failed solve ends with the round before it.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    _check_feeder_binding(case, feeders)

    if dispatch is not None:
        case = with_dispatch(case, dispatch.p_set)
    sched = tsolve.bus_schedule(case)

    buses = tuple(sorted(feeders))
    agg = _aggregates(feeders, buses)
    seq, starts, s_pcc = _warm_start(warm, feeders, buses, agg)

    trace = CouplingTrace(buses)
    fsols: dict[int, dsolve.FeederSolution] = {}  # this step's latest sweeps

    for k in range(1, max_rounds + 1):
        # (i) transmission solve with the most recent PCC powers; on exit the
        # converged transmission model has consumed them verbatim.
        try:
            seq = tsolve.solve_three_sequence(case, buses, s_pcc, warm=seq, sched=sched)
        except ConvergenceError as exc:
            _fail_at(exc, k, trace)
            raise
        v_pcc = seq.phase_voltages(buses)
        mags = np.abs(v_pcc)
        trace.mismatch.append(np.abs(mags - trace.v_trans[-1]).max(axis=1) if trace.v_trans
                              else np.full(len(buses), np.inf))
        trace.v_trans.append(mags)

        if not feeders:
            # Degenerate but legal: nothing to couple, one solve suffices.
            trace.overall_iterations = k
            return CoupledState(seq, {}, buses, v_pcc, s_pcc, agg), trace

        if k >= 2 and (trace.mismatch[-1] < eps).all():
            # Each PCC converged in the round after its last one at or above eps.
            above = np.where(np.array(trace.mismatch) < eps, 0, np.arange(1, k + 1)[:, None])
            trace.overall_iterations = k
            trace.iterations_to_converge = dict(zip(buses, (above.max(axis=0) + 1).tolist()))
            return CoupledState(seq, fsols, buses, v_pcc, s_pcc, agg), trace

        # (ii)-(iv) send voltages down, sweep every feeder, feed powers back.
        try:
            fsols = {
                bus: _sweep_one(bus, feeders[bus], v, start)
                for bus, v, start in zip(buses, v_pcc, starts)
            }
        except ConvergenceError as exc:
            _fail_at(exc, k, trace)
            raise
        starts = [fsols[b].v for b in buses]
        s_pcc = np.array([fsols[b].s_head for b in buses])

    trace.overall_iterations = max_rounds
    mismatch = np.concatenate(trace.mismatch)  # round-major
    err = ConvergenceError(
        f"PCC coupling did not converge within {max_rounds} rounds at eps={eps:g}",
        mismatch[np.isfinite(mismatch)].tolist(),
    )
    err.trace = trace
    raise err


def _warm_start(warm, feeders, buses, agg):
    """What round 1 reuses of ``warm``: its sequence solution, per PCC a
    sweep start and per phase a power, given this step's (k, 3) loads ``agg``.

    A PCC whose warm feeder solution has its feeder's topology starts its
    sweep from those voltages, and, when ``warm`` has this step's PCCs, each
    of its phases takes the warm losses grown with the square of the load,
    ``agg + (s_pcc_w - agg_w) * |agg / agg_w|**2``, wherever that is finite.
    Every other PCC starts flat, and every other phase takes ``agg``.
    """
    if warm is None:
        return None, [None] * len(buses), agg
    sols = warm.feeder_solutions
    starts = [sols[b].start_for(feeders[b]) if b in sols else None for b in buses]
    if warm.pcc_buses != buses:
        return warm.seq, starts, agg
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = agg + (warm.s_pcc - warm.agg) * np.abs(agg / warm.agg) ** 2
    ok = np.isfinite(guess) & np.array([s is not None for s in starts])[:, None]
    return warm.seq, starts, np.where(ok, guess, agg)


def _aggregates(feeders, buses) -> np.ndarray:  # (k, 3) MVA, one row per bus
    return np.array([dsolve.aggregate_load(feeders[b]).as_array() for b in buses]).reshape(-1, 3)


def _fail_at(exc: ConvergenceError, k: int, trace: CouplingTrace) -> None:
    """Name round ``k`` in ``exc`` and attach the trace, which ends there."""
    exc.args = (f"round {k}: {exc.args[0]}",) + exc.args[1:]
    trace.overall_iterations = k
    exc.trace = trace


def _scale_step(case: TransmissionCase, feeders, shapes, t_min: int):
    """The case and the feeders with every load scaled by its loadshape
    multiplier at ``t_min``; a load without a loadshape keeps its size."""
    loads, scaled = [], {}
    for ld in case.loads:
        m = shapes[ld.loadshape_id].multiplier(t_min) if ld.loadshape_id else 1.0
        if ld.is_feeder:
            scaled[ld.bus] = dsolve.scale_loads(feeders[ld.bus], m)
        elif ld.loadshape_id:
            ld = replace(ld, p=ld.p * m, q=ld.q * m)
        loads.append(ld)
    return replace(case, loads=tuple(loads)), scaled


def forecast_demand_mw(case, feeders) -> float:
    """Active demand the dispatch serves: lumped loads plus feeder aggregates."""
    return sum(
        dsolve.aggregate_load(feeders[ld.bus]).total().real if ld.is_feeder else ld.p
        for ld in case.loads
    )


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


def _aggregate_pq_boundary(case, feeders, warm):
    """Decoupled boundary: feeders as aggregate PQ, one transmission solve.

    The trace carries one round (mismatch 0.0) so the result shares the
    coupled run's shape; a :class:`ConvergenceError` carries it too, empty.
    """
    buses = tuple(sorted(feeders))
    s_pcc = _aggregates(feeders, buses)
    trace = CouplingTrace(buses, overall_iterations=1)
    try:
        seq = tsolve.solve_three_sequence(
            case, buses, s_pcc, warm=warm.seq if warm is not None else None
        )
    except ConvergenceError as exc:
        exc.trace = trace
        raise
    v_pcc = seq.phase_voltages(buses)
    trace.v_trans.append(np.abs(v_pcc))
    trace.mismatch.append(np.zeros(len(buses)))
    trace.iterations_to_converge = dict.fromkeys(buses, 1)
    return CoupledState(seq, {}, buses, v_pcc, s_pcc, s_pcc), trace


def _time_loop(
    case, feeders, loadshapes, start_min, horizon_min, ed_interval_min,
    pf_interval_min, eps, on_fail, boundary,
) -> CosimResult:
    """The one time-stepping loop behind both runs.

    Each step scales the loads by the loadshapes, and on a dispatch minute
    sets the generators to a dispatch of that step's demand, which later
    steps keep.  ``boundary(step_case, step_feeders, warm=)`` gets the step
    and the last converged step's :class:`CoupledState`; it returns
    ``(CoupledState, CouplingTrace)`` or raises :class:`ConvergenceError`,
    whose message becomes the step's ``error``.
    """
    if horizon_min <= 0:
        raise ValueError("horizon must be positive")
    if pf_interval_min <= 0 or ed_interval_min <= 0:
        raise ValueError("intervals must be positive")
    if ed_interval_min % pf_interval_min != 0:
        raise ValueError("pf interval must divide the ed interval")
    if on_fail not in ("abort", "continue"):
        raise ValueError("on_fail must be 'abort' or 'continue'")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    loadshapes = loadshapes or {}
    _check_shape_coverage(case, loadshapes, start_min, horizon_min)

    problems = validate_case(case)
    if problems:
        raise ValueError("invalid case: " + "; ".join(problems))
    _check_feeder_binding(case, feeders)

    gen_buses = tuple(g.bus for g in case.generators)
    steps: list[StepResult] = []
    dispatch: ed.DispatchResult | None = None
    warm: CoupledState | None = None
    aborted_at: int | None = None

    for t in range(start_min, start_min + horizon_min, pf_interval_min):
        began = time.perf_counter()
        step_case, step_feeders = _scale_step(case, feeders, loadshapes, t)
        dispatched = (t - start_min) % ed_interval_min == 0
        if dispatched:
            dispatch = ed.dispatch(case.generators, forecast_demand_mw(step_case, step_feeders))
            case = with_dispatch(case, dispatch.p_set)
            step_case = replace(step_case, generators=case.generators)
        error = None
        try:
            state, trace = boundary(step_case, step_feeders, warm=warm)
        except ConvergenceError as exc:
            state, trace, error = None, getattr(exc, "trace", CouplingTrace()), str(exc)
        else:
            warm = state
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
                error=error,
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
    return _time_loop(
        case, feeders, loadshapes, start_min, horizon_min, ed_interval_min,
        pf_interval_min, eps, on_fail,
        functools.partial(couple_step, eps=eps, max_rounds=max_rounds),
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
