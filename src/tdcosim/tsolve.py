"""Three-sequence transmission power flow.

The positive-sequence network is solved with a full-Jacobian polar
Newton-Raphson; the negative- and zero-sequence networks are linear solves
against current injections, each one product with the network's Z-bus.
Off-diagonal sequence coupling of untransposed lines is split off the branch
admittance and re-injected as compensation currents, so the three networks
stay independent within a pass.  Unbalanced PCC loads enter the positive
sequence as a PQ load ``v1*conj(i1)`` and the other sequences as current
injections; because those terms depend on the solution voltages, the module
iterates the three solves to an internal fixed point that is much tighter
than the outer coupling tolerance.  One pass of that loop is a function of
the (3, n) sequence voltages, and the loop Anderson-mixes every pass from
the second on.  It stops when a pass moves no sequence voltage by
``SEQ_LOOP_TOL``, or after its first pass when a bound on the injections the
second pass would take proves that it would not: the mixer's second iterate
is the first pass's result, so the bound covers exactly the pass it skips
(see :func:`solve_three_sequence`).

Everything that depends only on the buses and branches (the three dense
Y-buses, the bus index, classes and voltage setpoints, the NR's index
gathers, the stamped coupling matrix, and the ground-tied partition and
Z-bus of Y0 and Y2, the inverse of the ground-tied block (Grainger &
Stevenson, *Power System Analysis*, 1994)) is derived once per network by
:func:`build_sequence_ybus`, held on the case and shared by every copy of
it, so a run that only changes dispatch, loads or PCC powers inverts once.
Cases carry MW/MVAr; their generators and lumped loads are read into
per-unit arrays by bus (:func:`bus_schedule`), as MATPOWER's ``makeSbus``
does, into a schedule that carries the network it indexes.  A caller that
solves one case several times, as the coupling rounds of a step do, reads
the schedule once and passes it to :func:`solve_three_sequence`; a solve
given none reads it itself, once per solve.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, SingularNetworkError
from .netmodel import BusKind, TransmissionCase, ZeroSeqPath, network_violations
from .seqxform import FORTESCUE, FORTESCUE_INV, phase_currents_from_power

NR_TOL = 1e-8
NR_MAX_ITER = 30
SEQ_LOOP_TOL = 1e-9
SEQ_LOOP_MAX_PASSES = 50  # the fewest tried at which the map's heavy cells collapse, not run out
SEQ_LOOP_MEMORY = 5  # passes the sequence loop's Anderson mixing looks back over
PV_SWITCH_MAX = 5
PV_Q_TOL = 1e-9  # pu, how far a PV bus's generator Q may leave its limits
FLOATING_TOL = 1e-12  # pu, the largest injection a bus with no path to ground may take


@dataclass(frozen=True, eq=False)
class _GroundedFactor:
    """Y0 or Y2 as its Z-bus, the inverse of its ground-tied block."""

    label: str
    floating: np.ndarray  # indices of the buses with no path to ground
    # (n, n), zero in the rows and columns of floating buses; None when the
    # ground-tied block is exactly singular
    z: np.ndarray | None
    # the largest row sum of |Z|, the most a solve's voltages move per pu of
    # change in its injections: 0.0 without ground-tied buses, inf if singular
    z_norm: float


@dataclass(frozen=True, eq=False)
class _BusClasses:
    """The NR's PV and PQ buses and the gathers its iterations use.

    As in MATPOWER, the unknowns are the angles at the PV and PQ buses in bus
    order (``pvpq``), then the magnitudes at the PQ buses, and the equations
    the P mismatches at ``pvpq``, then the Q mismatches at ``pq``.  Entry
    ``k`` of either is at bus ``pos[k]``, of kind ``kind[k]`` (0 for angle
    and P, 1 for magnitude and Q).
    """

    pv: np.ndarray
    pq: np.ndarray  # sorted
    at_state: np.ndarray  # each unknown in the (2, n) angles and magnitudes
    at_mismatch: np.ndarray  # each equation in S seen as (n, 2) floats
    # The Jacobian's transpose in (dS/dVa, dS/dVm) seen as (2, n, n, 2) floats,
    # so the gathered Jacobian is in the column order LAPACK takes.
    at_jac_t: np.ndarray


def _bus_classes(n: int, pv: np.ndarray, pq: np.ndarray) -> _BusClasses:
    pvpq = np.sort(np.concatenate([pv, pq]))
    pos = np.concatenate([pvpq, pq])
    kind = np.repeat([0, 1], [len(pvpq), len(pq)])
    return _BusClasses(
        pv=pv,
        pq=pq,
        at_state=kind * n + pos,
        at_mismatch=2 * pos + kind,
        at_jac_t=2 * n * (n * kind[:, None] + pos) + 2 * pos[:, None] + kind,
    )


@dataclass(frozen=True, eq=False)
class SequenceYBus:
    """The sequence network of one bus/branch set; shared, never mutated."""

    y0: np.ndarray  # (n, n) each, dense
    y1: np.ndarray
    y2: np.ndarray
    # (2k + 20) eps ||Y1||inf, with k the most entries in a row of Y1; times
    # max|V|^2, it bounds the rounding of two NR mismatch evaluations at a
    # point and at its polar round trip (see solve_three_sequence)
    y1_round_off: float
    # (3n, 3n) over the flattened (3, n) sequence voltages: each untransposed
    # branch's 3x3 series admittance with its diagonal zeroed, stamped as a
    # series element; None when every branch is transposed
    y_cross: np.ndarray | None
    bus_index: dict[int, int]
    slack: int
    held: np.ndarray  # the slack and PV buses, whose |V| the NR holds
    v_held: np.ndarray  # their |V| setpoints
    slack_angle: float  # rad
    classes: _BusClasses  # before any PV bus is switched to PQ
    zero: _GroundedFactor
    negative: _GroundedFactor
    # the buses with no path to ground as entries of a (3, n) array: in row
    # 0 for the zero sequence, in row 2 for the negative
    floating_at: np.ndarray

    @property
    def n(self) -> int:
        return len(self.bus_index)


@dataclass
class SequenceSolution:
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    mismatch: float
    iterations: int  # total NR iterations across passes
    passes: int
    bus_index: dict[int, int]  # the network's, shared: never mutate

    def phase_voltages(self, buses) -> np.ndarray:
        """The (k, 3) phase voltages at ``buses``, one row per bus in order."""
        rows = [self.bus_index[b] for b in buses]
        return np.array(
            [FORTESCUE @ np.array([self.v0[i], self.v1[i], self.v2[i]]) for i in rows]
        ).reshape(-1, 3)


def build_sequence_ybus(case: TransmissionCase) -> SequenceYBus:
    """The sequence network of a validated case, derived once per network.

    The case holds it.  Copies made with ``dataclasses.replace`` (dispatch,
    load scaling, feeder binding) share the holder and keep the ``buses``
    and ``branches`` tuples, so they share one immutable
    :class:`SequenceYBus`.  A copy with a tuple of its own derives its
    network again into a holder of its own, and leaves the shared one alone.
    """
    held = case._network
    if held and (held[0] is not case.buses or held[1] is not case.branches):
        held = []
        object.__setattr__(case, "_network", held)  # a cache, outside eq and repr
    if not held:
        held[:] = case.buses, case.branches, _sequence_network(case.buses, case.branches)
    return held[2]


def _sequence_network(buses, branches) -> SequenceYBus:
    problems = network_violations(buses, branches)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))
    bus_index = {b.id: i for i, b in enumerate(buses)}
    n = len(bus_index)
    y0, y1, y2 = (np.zeros((n, n), dtype=complex) for _ in range(3))
    y_cross = None
    seq_rows = n * np.arange(3)  # a bus's rows in the flattened (3, n) voltages

    for br in branches:
        f = bus_index[br.from_bus]
        t = bus_index[br.to_bus]
        tap = br.tap

        if br.coupling is not None:
            # Full series impedance, inverted once; diagonal admittances are
            # stamped, the rest into the compensation matrix.
            z_full = np.diag([br.z0_eff, br.z1, br.z2_eff]) + np.asarray(br.coupling, dtype=complex)
            y_full = np.linalg.inv(z_full)
            series = np.diag(y_full)
            y_off = y_full - np.diag(series)
            if y_cross is None:
                y_cross = np.zeros((3 * n, 3 * n), dtype=complex)
            for a, b, sign in ((f, f, 1.0), (f, t, -1.0), (t, f, -1.0), (t, t, 1.0)):
                y_cross[np.ix_(a + seq_rows, b + seq_rows)] += sign * y_off
        else:
            series = (1.0 / br.z0_eff, 1.0 / br.z1, 1.0 / br.z2_eff)

        stamps = [(y1, series[1], br.b1_shunt), (y2, series[2], br.b1_shunt)]
        if br.zero_seq_path is ZeroSeqPath.THROUGH:
            stamps.append((y0, series[0], br.b0_shunt))
        elif br.zero_seq_path is ZeroSeqPath.GROUNDED:
            # Wye-grounded side assumed on the *to* bus; delta blocks the rest.
            y0[t, t] += series[0]
        # OPEN: no zero-sequence contribution at all.
        for mat, ys, b_shunt in stamps:
            ysh = 1j * b_shunt / 2.0
            mat[f, f] += (ys + ysh) / tap**2
            mat[t, t] += ys + ysh
            mat[f, t] -= ys / tap
            mat[t, f] -= ys / tap

    slack = [i for i, b in enumerate(buses) if b.kind is BusKind.SLACK]
    pv = np.array([i for i, b in enumerate(buses) if b.kind is BusKind.PV], dtype=int)
    pq = np.array([i for i, b in enumerate(buses) if b.kind is BusKind.PQ], dtype=int)
    held = np.concatenate([slack, pv])
    zero, negative = _factor_grounded(y0, "zero"), _factor_grounded(y2, "negative")
    row_nnz = np.count_nonzero(y1, axis=1).max(initial=0)
    y1_norm = np.abs(y1).sum(axis=1).max(initial=0.0)
    return SequenceYBus(
        y0=y0,
        y1=y1,
        y2=y2,
        y1_round_off=float((2 * row_nnz + 20) * np.finfo(float).eps * y1_norm),
        y_cross=y_cross,
        bus_index=bus_index,
        slack=slack[0],
        held=held,
        v_held=np.array([buses[i].v_setpoint or 1.0 for i in held]),
        slack_angle=buses[slack[0]].angle_setpoint or 0.0,
        classes=_bus_classes(n, pv, pq),
        zero=zero,
        negative=negative,
        floating_at=np.concatenate([zero.floating, 2 * n + negative.floating]),
    )


@dataclass(frozen=True, eq=False)
class BusSchedule:
    """A case's generators and lumped loads by bus index, per-unit."""

    network: SequenceYBus  # the case's, whose bus index the arrays follow
    s: np.ndarray  # (n,) generation minus lumped load
    # (5, p) at the network's PV buses: their generators' summed Q setpoint and
    # limits (-inf and +inf without a generator), q_set, q_min and q_max, then
    # the limits widened by PV_Q_TOL, q_min - PV_Q_TOL and q_max + PV_Q_TOL
    pv_q: np.ndarray


def bus_schedule(case: TransmissionCase) -> BusSchedule:
    """Read the MW/MVAr case's generators and lumped loads into per-unit arrays.

    Each power is taken as ``x * (1.0 / base_mva)`` and summed by bus of the
    case's network, which the schedule carries, in case order, generators
    before loads; one at a bus the network lacks raises ``ValueError``.  A
    case's schedule changes with its loads and dispatch, not with the PCC
    powers, so a caller that solves one case several times reads it once.
    """
    ybus = build_sequence_ybus(case)
    if not 0 < case.base_mva < np.inf:  # NaN fails too
        raise ValueError(f"base_mva must be finite and positive, got {case.base_mva}")
    to_pu = 1.0 / case.base_mva
    n = ybus.n
    s = [0j] * n
    q_set, q_min, q_max = [0.0] * n, [0.0] * n, [0.0] * n
    gen_buses = set()
    try:
        for g in case.generators:
            i = ybus.bus_index[g.bus]
            s[i] += g.p_set * to_pu + 1j * (g.q_set * to_pu)
            q_set[i] += g.q_set * to_pu
            q_min[i] += g.q_min * to_pu
            q_max[i] += g.q_max * to_pu
            gen_buses.add(i)
    except KeyError:
        raise ValueError(f"generator at nonexistent bus {g.bus}") from None
    try:
        for ld in case.loads:
            if not ld.is_feeder:
                s[ybus.bus_index[ld.bus]] -= ld.p * to_pu + 1j * (ld.q * to_pu)
    except KeyError:
        raise ValueError(f"load at nonexistent bus {ld.bus}") from None
    for i in set(range(n)) - gen_buses:  # no generator, no Q limit
        q_min[i], q_max[i] = -np.inf, np.inf
    pv_q = [[q[i] for i in ybus.classes.pv.tolist()] for q in (q_set, q_min, q_max)]
    pv_q += [[x - PV_Q_TOL for x in pv_q[1]], [x + PV_Q_TOL for x in pv_q[2]]]
    return BusSchedule(ybus, np.array(s), np.array(pv_q))


@dataclass(frozen=True)
class NrResult:
    v1: np.ndarray
    iterations: int
    mismatch: float
    history: tuple[float, ...]  # mismatch per iteration of the final solve
    switched: int  # PV buses switched to PQ
    # pu, how far inside its widened limits (see BusSchedule.pv_q) the PV
    # generator Q nearest to one lies at v1; inf without a limited PV bus
    q_slack: float


def nr_positive_sequence(
    sched: BusSchedule,
    extra_s1: np.ndarray | None = None,
    v_init: np.ndarray | None = None,
) -> NrResult:
    """Polar Newton-Raphson on the positive-sequence network.

    ``sched`` holds the case's network, per-unit injections and generator Q
    limits (:func:`bus_schedule`).  ``extra_s1`` adds PQ loads (pu, consumption
    positive) on top of the case's lumped loads: an (n,) array by bus index,
    None for none.

    PV reactive limits are enforced by PV->PQ switching after convergence,
    re-solving at most ``PV_SWITCH_MAX`` times: a PV bus whose generators'
    Q (the bus injection plus the bus's loads) leaves their summed limits
    is held at the limit it crossed.  A solve that still finds a PV bus
    outside its limits after the last re-solve raises
    :class:`ConvergenceError`.
    """
    ybus = sched.network
    y = ybus.y1
    s_spec = sched.s.copy() if extra_s1 is None else sched.s - extra_s1
    x = np.empty((2, ybus.n))  # angles and magnitudes
    if v_init is None:
        x[0], x[1] = 0.0, 1.0
    else:  # np.angle and np.abs
        np.arctan2(v_init.imag, v_init.real, out=x[0])
        np.abs(v_init, out=x[1])
    x[1, ybus.held] = ybus.v_held
    x[0, ybus.slack] = ybus.slack_angle

    cls = ybus.classes
    pv_q = sched.pv_q  # at cls.pv, which shrinks as buses switch
    total_iters = switched_count = 0
    for _ in range(PV_SWITCH_MAX + 1):
        v, s_calc, iters, mismatch, history = _nr_core(y, s_spec, cls, x)
        total_iters += iters
        if not mismatch < NR_TOL:  # NaN fails too
            raise ConvergenceError(
                f"positive-sequence NR did not reach {NR_TOL:g} pu in {NR_MAX_ITER} "
                f"iterations (last mismatch {mismatch:.3e})",
                history,
            )
        pv = cls.pv
        q_set, q_min, q_max, q_lo, q_hi = pv_q
        q_other = s_spec.imag[pv] - q_set  # the bus's Q besides its generators'
        q_gen = s_calc.imag[pv] - q_other
        # Below zero exactly off the widened limits: for floats, a - b < 0
        # if and only if a < b.
        slack = np.minimum(q_hi - q_gen, q_gen - q_lo)
        hit = slack < 0
        if not np.count_nonzero(hit):
            return NrResult(v, total_iters, mismatch, tuple(history), switched_count,
                            slack.min(initial=np.inf))
        q_lim = np.where(q_gen > q_hi, q_max, q_min)
        switched = pv[hit]
        switched_count += len(switched)
        s_spec[switched] = s_spec[switched].real + 1j * (q_lim[hit] + q_other[hit])
        keep = ~hit
        pv_q = pv_q[:, keep]
        cls = _bus_classes(ybus.n, pv[keep], np.sort(np.concatenate([cls.pq, switched])))
    raise ConvergenceError(
        f"PV Q-limit switching did not settle in {PV_SWITCH_MAX} re-solves: bus index "
        f"{switched.tolist()} still outside its Q limits",
        history,
    )


def _nr_core(y, s_spec, cls: _BusClasses, x: np.ndarray):
    """NR iterations on the (2, n) angles and magnitudes ``x``, in place, with
    the bus classes fixed.  Returns the last iterate's V and S, the
    iterations taken, the last mismatch and the mismatch history."""
    n = x.shape[1]
    va, vm = x
    history: list[float] = []
    ds = None  # the Jacobian's buffers, made at the first iteration that needs them
    for it in range(NR_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        i_bus = y @ v
        i_conj = np.conj(i_bus)
        s_calc = v * i_conj
        rhs = (s_spec - s_calc).view(float)[cls.at_mismatch]
        mismatch = np.abs(rhs).max(initial=0.0)
        history.append(float(mismatch))
        if mismatch < NR_TOL or it == NR_MAX_ITER or not mismatch < np.inf:  # NaN, inf
            return v, s_calc, it, mismatch, history

        # MATPOWER's dSbus_dV with its diagonal matrices as vectors:
        # dS/dVa = j diag(V) conj(diag(I) - Y diag(V)),
        # dS/dVm = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|).
        # Both are formed at once in ``ds``, as (dS/dVa, dS/dVm).
        if ds is None:
            rows = np.empty((2, n), dtype=complex)  # the row factors
            ds = np.empty((2, n, n), dtype=complex)
            diag = ds.reshape(2, -1)[:, :: n + 1]
        rows[0] = v
        np.divide(v, vm, out=rows[1])
        np.multiply(y, rows[:, None, :], out=ds)
        diag[0] -= i_bus
        diag_vm = i_conj * rows[1]
        np.multiply(-1j, v, out=rows[0])
        rows[1] = v
        np.multiply(rows[..., None], np.conj(ds, out=ds), out=ds)
        diag[1] += diag_vm
        # dgesv takes the Jacobian in column order: the gathered transpose.
        jac = ds.view(float).reshape(-1)[cls.at_jac_t].T
        dx, info = dgesv(jac, rhs, overwrite_a=True, overwrite_b=True)[2:]
        if info > 0:
            raise SingularNetworkError(f"singular Jacobian at NR iteration {it}")
        x.reshape(-1)[cls.at_state] += dx


def _grounded_partition(y: np.ndarray):
    """Split buses into ground-tied components and floating ones.

    A component is ground-tied when its admittance rows do not sum to zero
    (some shunt path exists); floating components are solvable only for zero
    injection, in which case their voltages are zero by construction.
    """
    ncomp, labels = connected_components(y != 0, directed=False)
    row_residual = np.abs(y.sum(axis=1))
    has_diagonal = np.diag(y) != 0
    grounded = np.zeros(len(y), dtype=bool)
    for comp in range(ncomp):
        members = labels == comp
        if has_diagonal[members].any() and row_residual[members].max() > 1e-12:
            grounded |= members
    return grounded


def _factor_grounded(y: np.ndarray, label: str) -> _GroundedFactor:
    grounded = _grounded_partition(y)
    floating = np.flatnonzero(~grounded)
    tied = np.ix_(grounded, grounded)
    z = np.zeros_like(y)
    try:
        z[tied] = np.linalg.inv(y[tied])
    except np.linalg.LinAlgError:  # exactly singular
        return _GroundedFactor(label, floating, None, np.inf)
    return _GroundedFactor(label, floating, z, float(np.abs(z).sum(axis=1).max()))


def _solve_linear_sequence(seq: _GroundedFactor, injections: np.ndarray) -> np.ndarray:
    # On a few entries count_nonzero and cmath skip most of the cost of the
    # ndarray.any and np.isfinite calls they stand for.
    if not np.count_nonzero(injections):
        return np.zeros(len(injections), dtype=complex)
    if (seq.z is None or not cmath.isfinite(injections.sum())  # NaN or inf anywhere
            or seq.floating.size and not np.abs(injections[seq.floating]).max() <= FLOATING_TOL):
        _reject(seq, injections)
    return seq.z @ injections  # zero at floating buses, whatever their injections


def _reject(seq: _GroundedFactor, injections: np.ndarray):
    """Raise for a linear solve that cannot be done: ``ValueError`` for a
    non-finite injection, else ``SingularNetworkError``."""
    bad = np.flatnonzero(~np.isfinite(injections))
    if bad.size:
        raise ValueError(
            f"{seq.label}-sequence injection at bus index {bad.tolist()} is not finite"
        )
    bad = seq.floating[np.abs(injections[seq.floating]) > FLOATING_TOL]
    if bad.size:
        raise SingularNetworkError(
            f"{seq.label}-sequence injection at bus index {bad.tolist()} has no "
            f"path to ground; network is singular there"
        )
    raise SingularNetworkError(f"{seq.label}-sequence network is singular")


def solve_negative(ybus: SequenceYBus, injections: np.ndarray) -> np.ndarray:
    """Solve ``y2 @ v2 = i2`` for current injections (pu)."""
    return _solve_linear_sequence(ybus.negative, np.asarray(injections, dtype=complex))


def solve_zero(ybus: SequenceYBus, injections: np.ndarray) -> np.ndarray:
    """Solve ``y0 @ v0 = i0``; buses with no zero-sequence path stay at 0."""
    return _solve_linear_sequence(ybus.zero, np.asarray(injections, dtype=complex))


def compensation_currents(ybus: SequenceYBus, x: np.ndarray) -> np.ndarray:
    """Injection corrections replacing off-diagonal sequence coupling.

    For each untransposed branch the cross-sequence current
    ``y_off @ (v_f - v_t)`` at the (3, n) sequence voltages ``x`` is moved to
    the right-hand side: subtracted at the from bus, added at the to bus.
    That is the product of the stamped ``y_cross`` with the flattened
    voltages, negated.  Returns the (3, n) injections, zero when every
    branch is transposed.
    """
    if ybus.y_cross is None:
        return np.zeros(x.shape, dtype=complex)
    return -(ybus.y_cross @ x.ravel()).reshape(x.shape)


def pcc_injections(s_abc: np.ndarray, v012: np.ndarray) -> np.ndarray:
    """Sequence-domain images of k unbalanced PCC loads.

    ``s_abc`` is the (k, 3) per-phase feeder head power in pu on the
    per-phase base, ``v012`` the (3, k) per-unit sequence voltages of the
    PCC buses.  Returns a (3, k) array: rows 0 and 2 are the zero- and
    negative-sequence current injections (load currents negated) for the
    linear solves, row 1 the positive-sequence load power (consumption
    positive, pu on the system base).
    """
    v_abc = FORTESCUE @ v012
    i012 = FORTESCUE_INV @ phase_currents_from_power(s_abc, v_abc.T).T
    s1 = v012[1] * np.conj(i012[1])
    np.negative(i012, out=i012)
    i012[1] = s1
    return i012


def solve_three_sequence(
    case: TransmissionCase,
    pcc_buses=(),
    s_pcc=None,
    warm: SequenceSolution | None = None,
    sched: BusSchedule | None = None,
) -> SequenceSolution:
    """Full three-sequence solve with PCC loads and compensation currents.

    ``case`` is in MW/MVAr.  ``sched`` is its per-unit schedule, which
    carries its network (:func:`bus_schedule`); a caller that solves one
    case several times passes it, and left out it is read here, once per
    solve.  ``pcc_buses`` are distinct PCC bus ids and ``s_pcc`` their
    (k, 3) per-phase head powers in MVA, one row per bus in that order; a
    bus the network lacks or a non-finite entry raises ``ValueError``.  One
    pass maps the (3, n) sequence voltages to the next: PCC injections and
    compensation currents (when a branch is untransposed) at those voltages,
    then the positive NR and the negative and zero solves, each called once
    through this module.  The passes stop when the largest sequence-voltage
    change of a pass drops below ``SEQ_LOOP_TOL``; after
    ``SEQ_LOOP_MAX_PASSES`` passes that did not, the solve raises
    :class:`ConvergenceError`.  After the second pass and each later one,
    the next iterate is the Anderson mix of up to ``SEQ_LOOP_MEMORY`` + 1
    passes (Walker & Ni, 2011), also after a change larger than the last:
    at heavy load the plain pass is unstable.

    Pass 2 starts from pass 1's result ``g1`` with the injections at ``g1``.
    With ``d_s`` the largest change of sequence ``s``'s injections from
    pass 1's, the loop returns ``g1`` after one pass, when the budget allows
    a second, if that pass provably moves no sequence voltage by
    ``SEQ_LOOP_TOL``:

    - pass 1's NR switched no PV bus, so pass 2's NR has the same bus
      classes;
    - ``nr.mismatch + d_1 + r < NR_TOL``, so pass 2's NR stops at its first
      mismatch, at the polar round trip of ``g1[1]``.  That round trip
      moves each V_i by at most 8 eps |V_i|, so S by at most
      ``16 eps ||Y1||inf max|V|^2``, and each of the two evaluations of S
      rounds within ``(k + 2) eps ||Y1||inf max|V|^2``, with k the most
      entries in a row of Y1: ``r = (2k + 20) eps ||Y1||inf max|V|^2``;
    - every PV generator's Q lies inside its widened limits by more than
      ``d_1 + r``, so no bus switches;
    - ``||Z||inf d_s < SEQ_LOOP_TOL`` for the zero and negative sequences,
      with ``||Z||inf`` the largest row sum of the Z-bus, up to the rounding
      of the linear solves, which the bound leaves out;
    - every injection at a floating bus is finite and at most
      ``FLOATING_TOL``, so the pass would not raise.

    Only pass 1 is certified: from pass 2 on the next iterate is mixed.
    """
    if sched is None:
        sched = bus_schedule(case)
    ybus = sched.network
    n = ybus.n
    try:
        pcc = np.array([ybus.bus_index[bus_id] for bus_id in pcc_buses], dtype=int)
    except KeyError as exc:
        raise ValueError(f"PCC at nonexistent bus {exc.args[0]}") from None
    if len(set(pcc.tolist())) < len(pcc):
        raise ValueError("pcc_buses names a bus more than once")
    s_abc = np.array(s_pcc if s_pcc is not None else np.zeros((0, 3)), dtype=complex)
    if s_abc.shape != (len(pcc), 3):
        raise ValueError(f"s_pcc must be shaped ({len(pcc)}, 3), got {s_abc.shape}")
    if not cmath.isfinite(s_abc.sum()):  # NaN or inf anywhere
        bad = np.array(list(ybus.bus_index))[pcc[~np.isfinite(s_abc).all(axis=1)]]
        raise ValueError(f"s_pcc at PCC bus {', '.join(map(str, bad))} is not finite")
    s_abc /= case.base_mva / 3.0

    if warm is not None:
        x = np.array([warm.v0, warm.v1, warm.v2])
    else:  # flat: balanced 1 pu
        x = np.zeros((3, n), dtype=complex)
        x[1] = 1.0
    inj = _pass_injections(ybus, pcc, s_abc, x)
    mixer = _AndersonMixer(SEQ_LOOP_MEMORY)
    total_iters = 0
    history: list[float] = []
    for pass_no in range(1, SEQ_LOOP_MAX_PASSES + 1):
        nr = nr_positive_sequence(sched, inj[1], v_init=x[1])
        v2 = solve_negative(ybus, inj[2])
        g = np.array([solve_zero(ybus, inj[0]), nr.v1, v2])
        total_iters += nr.iterations
        delta = np.inf if warm is None and pass_no == 1 else float(np.abs(g - x).max())
        history.append(delta)
        settled = delta < SEQ_LOOP_TOL
        if not settled and pass_no < SEQ_LOOP_MAX_PASSES:
            x = mixer.next(x, g)  # g itself after pass 1
            inj, last = _pass_injections(ybus, pcc, s_abc, x), inj
            settled = pass_no == 1 and _second_pass_settles(ybus, nr, g, last, inj)
        if settled:
            return SequenceSolution(
                v0=g[0], v1=g[1], v2=g[2], mismatch=nr.mismatch,
                iterations=total_iters, passes=pass_no, bus_index=ybus.bus_index,
            )

    raise ConvergenceError(
        f"sequence loop did not settle below {SEQ_LOOP_TOL:g} pu in {SEQ_LOOP_MAX_PASSES} passes",
        history,
    )


def _pass_injections(ybus: SequenceYBus, pcc: np.ndarray, s_abc: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """What a pass from the (3, n) sequence voltages ``x`` solves for: the
    zero- and negative-sequence injections in rows 0 and 2 and the
    positive-sequence PQ load (consumption positive) in row 1, of the PCC
    loads ``s_abc`` at bus indices ``pcc`` and, when a branch is
    untransposed, of the compensation currents."""
    inj = np.zeros(x.shape, dtype=complex)
    inj[:, pcc] += pcc_injections(s_abc, x[:, pcc])
    if ybus.y_cross is not None:
        corr = compensation_currents(ybus, x)
        # Positive-sequence compensation enters NR as an equivalent PQ load.
        inj[1] -= x[1] * np.conj(corr[1])
        inj[0::2] += corr[0::2]
    return inj


def _second_pass_settles(ybus: SequenceYBus, nr: NrResult, g: np.ndarray,
                         inj: np.ndarray, inj_next: np.ndarray) -> bool:
    """Whether a pass from ``g`` with ``inj_next``, after a pass that took
    ``inj`` to ``g`` through ``nr``, provably moves no sequence voltage by
    ``SEQ_LOOP_TOL``; see :func:`solve_three_sequence`."""
    # With inj_next finite, no change is inf - inf; one from a non-finite
    # entry of inj is inf or NaN, and fails every test below.
    if nr.switched or not cmath.isfinite(inj_next.sum()):
        return False
    d0, d1, d2 = np.abs(inj_next - inj).max(axis=1).tolist()
    v_max = float(np.abs(g[1]).max())
    margin = d1 + ybus.y1_round_off * v_max * v_max
    if not (nr.mismatch + margin < NR_TOL and nr.q_slack > margin):
        return False
    if not np.abs(inj_next.take(ybus.floating_at)).max(initial=0.0) <= FLOATING_TOL:
        return False  # the pass would reject it
    # A singular block's infinite norm never meets a zero change.
    return all(seq.z_norm < np.inf and seq.z_norm * d < SEQ_LOOP_TOL
               for seq, d in ((ybus.zero, d0), (ybus.negative, d2)))


class _AndersonMixer:
    """Anderson mixing of a fixed-point iteration ``x -> g(x)`` (type II).

    The next iterate is ``g_k - dG @ gamma``, with ``gamma`` the least-squares
    fit of the residual ``f_k = g_k - x_k`` by the differences ``dF`` of the
    last ``memory`` residuals; ``dG`` holds the differences of their ``g``.
    Complex iterates are fitted on their stacked real and imaginary parts,
    so ``gamma`` is real.  Mixing needs two residuals; until there are two,
    the next iterate is ``g_k``, and with ``memory`` 0, which keeps one, it
    always is: that is the plain iteration.
    """

    def __init__(self, memory: int):
        self.memory = memory
        self.f: list[np.ndarray] = []
        self.g: list[np.ndarray] = []

    def next(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.f = (self.f + [(g - x).ravel().view(float)])[-self.memory - 1:]
        self.g = (self.g + [g.ravel().view(float)])[-self.memory - 1:]
        if len(self.f) < 2:
            return g
        d_f = np.diff(self.f, axis=0).T
        d_g = np.diff(self.g, axis=0).T
        gamma = np.linalg.lstsq(d_f, self.f[-1], rcond=None)[0]
        return (self.g[-1] - d_g @ gamma).view(complex).reshape(g.shape)
