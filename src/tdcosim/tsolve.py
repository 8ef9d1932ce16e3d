"""Three-sequence transmission power flow.

The positive-sequence network is solved with a full-Jacobian polar
Newton-Raphson; the negative- and zero-sequence networks are linear solves
against current injections.  Off-diagonal sequence coupling of untransposed
lines is split off the branch admittance and re-injected as compensation
currents, so the three networks stay independent within a pass.  Unbalanced
PCC loads enter the positive sequence as a PQ load ``v1*conj(i1)`` and the
other sequences as current injections; because those terms depend on the
solution voltages, the module iterates the three solves to an internal fixed
point that is much tighter than the outer coupling tolerance.

Everything that depends only on the buses and branches (the three Y-buses,
the bus index and classes, and the ground-tied partition and sparse LU
factor of Y0 and Y2) is derived once per network by
:func:`build_sequence_ybus` and shared by every solve on that network, so a
run that only changes dispatch, loads or PCC powers factorises once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, SingularNetworkError
from .netmodel import BusKind, TransmissionCase, Units, ZeroSeqPath, to_per_unit
from .seqxform import (
    FORTESCUE_INV,
    PhasePowers,
    PhaseVoltages,
    SequenceVoltages,
    phase_currents_from_power,
    phase_to_sequence,
    sequence_to_phase,
)

NR_TOL = 1e-8
NR_MAX_ITER = 30
SEQ_LOOP_TOL = 1e-9
SEQ_LOOP_MAX_PASSES = 20
PV_SWITCH_MAX = 5


@dataclass(frozen=True)
class SequenceCoupling:
    """Off-diagonal admittance block of one untransposed branch.

    ``y_off`` is the full 3x3 series admittance with its diagonal zeroed;
    rows/columns are ordered (0, 1, 2).
    """

    from_idx: int
    to_idx: int
    y_off: np.ndarray


@dataclass(frozen=True, eq=False)
class _GroundedFactor:
    """Y0 or Y2 reduced to its ground-tied buses and factorised once."""

    label: str
    grounded: np.ndarray  # (n,) bool
    idx: np.ndarray  # indices of the ground-tied buses
    lu: spla.SuperLU | None  # None when that block is exactly singular


@dataclass(frozen=True, eq=False)
class SequenceYBus:
    """The sequence network of one bus/branch set; shared, never mutated."""

    y0: sp.csr_matrix
    y1: sp.csr_matrix
    y2: sp.csr_matrix
    y1_dense: np.ndarray  # the NR's Y1, densified once
    couplings: list[SequenceCoupling]
    bus_index: dict[int, int]
    slack: int
    pv: tuple[int, ...]
    pq: tuple[int, ...]
    zero: _GroundedFactor
    negative: _GroundedFactor

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
    passes: int = 1
    bus_index: dict[int, int] = field(default_factory=dict)

    def at(self, bus_id: int) -> SequenceVoltages:
        i = self.bus_index[bus_id]
        return SequenceVoltages(complex(self.v0[i]), complex(self.v1[i]), complex(self.v2[i]))


@dataclass(frozen=True)
class PccInjection:
    """Sequence-domain image of one unbalanced PCC load.

    ``s1`` is the positive-sequence load power (consumption positive, pu on
    the system base); ``i2``/``i0`` are current injections into the network
    (load currents negated) for the linear sequence solves.
    """

    bus: int
    s1: complex
    i2: complex
    i0: complex


def build_sequence_ybus(case: TransmissionCase) -> SequenceYBus:
    """The sequence network of a validated case, derived once per network.

    Copies of a case made with ``dataclasses.replace`` (per-unit
    normalisation, dispatch, load scaling) keep its ``buses`` and
    ``branches`` tuples and so share one :class:`SequenceYBus`.
    """
    return _sequence_network(case.buses, case.branches)


# Keyed on the two tuples: buses compare by value, branches (``eq=False``)
# by identity.  Cached networks are immutable, so sharing them is safe.
@functools.lru_cache(maxsize=8)
def _sequence_network(buses, branches) -> SequenceYBus:
    bus_index = {b.id: i for i, b in enumerate(buses)}
    n = len(bus_index)
    y0, y1, y2 = (sp.lil_matrix((n, n), dtype=complex) for _ in range(3))
    couplings: list[SequenceCoupling] = []

    for br in branches:
        f = bus_index[br.from_bus]
        t = bus_index[br.to_bus]
        tap = br.tap if br.tap else 1.0

        if br.untransposed and br.coupling is not None:
            # Full series impedance, inverted once; diagonal admittances are
            # stamped, the rest becomes the compensation block.
            z_full = np.diag([br.z0_eff, br.z1, br.z2_eff]) + np.asarray(
                br.coupling, dtype=complex
            )
            y_full = np.linalg.inv(z_full)
            series = np.diag(y_full)
            couplings.append(SequenceCoupling(f, t, y_full - np.diag(series)))
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
    if len(slack) != 1:
        raise ValueError(f"expected exactly one slack bus, found {len(slack)}")
    y0, y2 = y0.tocsr(), y2.tocsr()
    return SequenceYBus(
        y0=y0,
        y1=y1.tocsr(),
        y2=y2,
        y1_dense=y1.toarray(),
        couplings=couplings,
        bus_index=bus_index,
        slack=slack[0],
        pv=tuple(i for i, b in enumerate(buses) if b.kind is BusKind.PV),
        pq=tuple(i for i, b in enumerate(buses) if b.kind is BusKind.PQ),
        zero=_factor_grounded(y0, "zero"),
        negative=_factor_grounded(y2, "negative"),
    )


def _scheduled_injections(
    case: TransmissionCase, bus_index: dict[int, int], extra_s1: dict[int, complex]
) -> np.ndarray:
    """Net complex power injection per bus (generation minus load), pu."""
    s = np.zeros(len(bus_index), dtype=complex)
    for g in case.generators:
        s[bus_index[g.bus]] += g.p_set + 1j * g.q_set
    for ld in case.loads:
        if not ld.is_feeder:
            s[bus_index[ld.bus]] -= ld.p + 1j * ld.q
    for bus_id, s1 in extra_s1.items():
        s[bus_index[bus_id]] -= s1
    return s


@dataclass(frozen=True)
class NrResult:
    v1: np.ndarray
    iterations: int
    mismatch: float
    history: tuple[float, ...]  # mismatch per iteration of the final solve


def nr_positive_sequence(
    ybus: SequenceYBus,
    case: TransmissionCase,
    extra_s1: dict[int, complex] | None = None,
    v_init: np.ndarray | None = None,
) -> NrResult:
    """Polar Newton-Raphson on the positive-sequence network.

    ``extra_s1`` adds PQ loads (pu, consumption positive) keyed by bus id, on
    top of the case's lumped loads.

    PV reactive limits are enforced by PV->PQ switching after convergence,
    re-solving at most ``PV_SWITCH_MAX`` times.
    """
    if case.units is not Units.PER_UNIT:
        raise ValueError("nr_positive_sequence requires a per-unit case")
    extra_s1 = extra_s1 or {}
    y = ybus.y1_dense
    slack = ybus.slack
    s_sched = _scheduled_injections(case, ybus.bus_index, extra_s1)

    vm = np.ones(ybus.n) if v_init is None else np.abs(v_init)
    va = np.zeros(ybus.n) if v_init is None else np.angle(v_init)
    sb = case.buses[slack]
    vm[slack] = sb.v_setpoint
    va[slack] = sb.angle_setpoint or 0.0
    for i in ybus.pv:
        vm[i] = case.buses[i].v_setpoint

    q_load = -s_sched.imag  # load Q at gen buses, used for limit checks

    pv_work = list(ybus.pv)
    pq_work = list(ybus.pq)
    q_fixed = dict[int, float]()  # PV buses clamped to a Q limit
    total_iters = 0
    mismatch = np.inf
    history: list[float] = []

    for _ in range(PV_SWITCH_MAX + 1):
        vm, va, iters, mismatch, history = _nr_core(y, s_sched, q_fixed, pv_work, pq_work, vm, va)
        total_iters += iters
        if mismatch >= NR_TOL:
            raise ConvergenceError(
                f"positive-sequence NR did not reach {NR_TOL:g} pu in {NR_MAX_ITER} "
                f"iterations (last mismatch {mismatch:.3e})",
                history,
            )
        if not pv_work:
            break
        switched = _check_q_limits(case, ybus.bus_index, y, vm, va, pv_work, q_load)
        if not switched:
            break
        for i, q_inj in switched.items():
            pv_work.remove(i)
            pq_work.append(i)
            q_fixed[i] = q_inj
        pq_work.sort()
    v1 = vm * np.exp(1j * va)
    return NrResult(v1, total_iters, mismatch, tuple(history))


def _nr_core(y, s_sched, q_fixed, pv, pq, vm, va):
    pvpq = np.array(sorted(pv + pq), dtype=int)
    pq_s = np.array(sorted(pq), dtype=int)
    npvpq, npq = len(pvpq), len(pq_s)
    jac = np.empty((npvpq + npq, npvpq + npq))
    s_spec = s_sched.copy()
    for i, q in q_fixed.items():
        s_spec[i] = s_spec[i].real + 1j * q

    history: list[float] = []
    mismatch = np.inf
    for it in range(NR_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        i_bus = y @ v
        s_calc = v * np.conj(i_bus)
        rhs = np.concatenate([(s_spec.real - s_calc.real)[pvpq],
                              (s_spec.imag - s_calc.imag)[pq_s]])
        mismatch = np.max(np.abs(rhs), initial=0.0)
        history.append(float(mismatch))
        if mismatch < NR_TOL:
            return vm, va, it, mismatch, history
        if it == NR_MAX_ITER:
            break

        # MATPOWER-style complex power-flow derivatives.
        diag_v = np.diag(v)
        diag_i = np.diag(i_bus)
        diag_vnorm = np.diag(v / vm)
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm

        jac[:npvpq, :npvpq] = ds_dva.real[pvpq[:, None], pvpq]
        jac[:npvpq, npvpq:] = ds_dvm.real[pvpq[:, None], pq_s]
        jac[npvpq:, :npvpq] = ds_dva.imag[pq_s[:, None], pvpq]
        jac[npvpq:, npvpq:] = ds_dvm.imag[pq_s[:, None], pq_s]
        try:
            dx = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(
                f"singular Jacobian at NR iteration {it}"
            ) from exc
        va[pvpq] += dx[:npvpq]
        vm[pq_s] += dx[npvpq:]

    return vm, va, NR_MAX_ITER, mismatch, history


def _check_q_limits(case, bus_index, y, vm, va, pv_work, q_load):
    """Map of PV bus index -> clamped Q injection for violated limits."""
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(y @ v)
    switched: dict[int, float] = {}
    gen_limits: dict[int, tuple[float, float]] = {}
    for g in case.generators:
        i = bus_index[g.bus]
        lo, hi = gen_limits.get(i, (0.0, 0.0))
        gen_limits[i] = (lo + g.q_min, hi + g.q_max)
    for i in pv_work:
        if i not in gen_limits:
            continue
        q_gen = s_calc[i].imag + q_load[i]
        lo, hi = gen_limits[i]
        if q_gen > hi + 1e-9:
            switched[i] = hi - q_load[i]
        elif q_gen < lo - 1e-9:
            switched[i] = lo - q_load[i]
    return switched


def _grounded_partition(y: sp.csr_matrix):
    """Split buses into ground-tied components and floating ones.

    A component is ground-tied when its admittance rows do not sum to zero
    (some shunt path exists); floating components are solvable only for zero
    injection, in which case their voltages are zero by construction.
    """
    n = y.shape[0]
    structure = sp.csr_matrix((np.abs(y.data) > 0.0, y.indices, y.indptr), shape=y.shape)
    ncomp, labels = csgraph.connected_components(structure, directed=False)
    row_residual = np.abs(y @ np.ones(n))
    grounded = np.zeros(n, dtype=bool)
    for comp in range(ncomp):
        members = labels == comp
        has_any = bool(np.any(np.abs(y.diagonal()[members]) > 0.0))
        if has_any and np.max(row_residual[members]) > 1e-12:
            grounded |= members
    return grounded


def _factor_grounded(y: sp.csr_matrix, label: str) -> _GroundedFactor:
    grounded = _grounded_partition(y)
    idx = np.nonzero(grounded)[0]
    lu = None
    if idx.size:
        try:
            lu = spla.splu(y[np.ix_(idx, idx)].tocsc())
        except RuntimeError:  # exactly singular
            pass
    return _GroundedFactor(label, grounded, idx, lu)


def _solve_linear_sequence(seq: _GroundedFactor, injections: np.ndarray) -> np.ndarray:
    v = np.zeros(len(seq.grounded), dtype=complex)
    if not np.any(np.abs(injections) > 0.0):
        return v
    bad = np.nonzero(~seq.grounded & (np.abs(injections) > 1e-12))[0]
    if bad.size:
        raise SingularNetworkError(
            f"{seq.label}-sequence injection at bus index {bad.tolist()} has no "
            f"path to ground; network is singular there"
        )
    if seq.idx.size:
        v_red = np.nan if seq.lu is None else seq.lu.solve(injections[seq.idx])
        if not np.all(np.isfinite(v_red)):
            raise SingularNetworkError(f"{seq.label}-sequence network is singular")
        v[seq.idx] = v_red
    return v


def solve_negative(ybus: SequenceYBus, injections: np.ndarray) -> np.ndarray:
    """Solve ``y2 @ v2 = i2`` for current injections (pu)."""
    return _solve_linear_sequence(ybus.negative, np.asarray(injections, dtype=complex))


def solve_zero(ybus: SequenceYBus, injections: np.ndarray) -> np.ndarray:
    """Solve ``y0 @ v0 = i0``; buses with no zero-sequence path stay at 0."""
    return _solve_linear_sequence(ybus.zero, np.asarray(injections, dtype=complex))


def compensation_currents(
    couplings: list[SequenceCoupling],
    v0: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Injection corrections replacing off-diagonal sequence coupling.

    For each untransposed branch the cross-sequence current
    ``y_off @ (v_f - v_t)`` is moved to the right-hand side: subtracted at the
    from bus, added at the to bus.  Returns per-sequence injection vectors
    (zero when ``couplings`` is empty).
    """
    n = len(v1)
    corr = np.zeros((3, n), dtype=complex)
    for c in couplings:
        dv = np.array(
            [v0[c.from_idx] - v0[c.to_idx],
             v1[c.from_idx] - v1[c.to_idx],
             v2[c.from_idx] - v2[c.to_idx]]
        )
        i_cross = c.y_off @ dv
        corr[:, c.from_idx] -= i_cross
        corr[:, c.to_idx] += i_cross
    return corr[0], corr[1], corr[2]


def pcc_load_to_injections(
    bus: int,
    s_abc_mva: PhasePowers,
    v_pcc: PhaseVoltages,
    base_mva: float,
) -> PccInjection:
    """Map an unbalanced PCC load to sequence-domain injections.

    ``s_abc_mva`` is the per-phase feeder head power in MVA; ``v_pcc`` the
    per-unit PCC phase voltages at the current transmission iterate.
    """
    s_pu = PhasePowers.from_array(s_abc_mva.as_array() / (base_mva / 3.0))
    i_abc = phase_currents_from_power(s_pu, v_pcc)
    i012 = FORTESCUE_INV @ i_abc
    v012 = phase_to_sequence(v_pcc)
    s1 = v012.v1 * np.conj(i012[1])
    return PccInjection(bus=bus, s1=complex(s1), i2=-complex(i012[2]), i0=-complex(i012[0]))


def solve_three_sequence(
    case: TransmissionCase,
    pcc_loads: list[tuple[int, PhasePowers]] | None = None,
    max_passes: int = SEQ_LOOP_MAX_PASSES,
    warm: SequenceSolution | None = None,
) -> SequenceSolution:
    """Full three-sequence solve with PCC loads and compensation currents.

    ``pcc_loads`` pairs PCC bus ids with per-phase head powers in MVA.
    Iterates {positive NR, negative solve, zero solve, injection refresh}
    until the largest sequence-voltage change between passes drops below
    ``SEQ_LOOP_TOL``.
    """
    base_mva = case.base_mva
    case = to_per_unit(case)
    pcc_loads = pcc_loads or []
    ybus = build_sequence_ybus(case)
    n = ybus.n

    v1 = warm.v1.copy() if warm is not None else None
    v0 = warm.v0.copy() if warm is not None else np.zeros(n, dtype=complex)
    v2 = warm.v2.copy() if warm is not None else np.zeros(n, dtype=complex)

    total_iters = 0
    mismatch = 0.0
    history: list[float] = []
    for pass_no in range(1, max_passes + 1):
        # Sequence-domain image of each PCC load at the current voltages.
        extra_s1: dict[int, complex] = {}
        i2_inj = np.zeros(n, dtype=complex)
        i0_inj = np.zeros(n, dtype=complex)
        for bus_id, s_abc in pcc_loads:
            i = ybus.bus_index[bus_id]
            if v1 is None:
                v_abc = PhaseVoltages.balanced(1.0)
            else:
                v_abc = sequence_to_phase(
                    SequenceVoltages(complex(v0[i]), complex(v1[i]), complex(v2[i]))
                )
            inj = pcc_load_to_injections(bus_id, s_abc, v_abc, base_mva)
            extra_s1[bus_id] = inj.s1
            i2_inj[i] += inj.i2
            i0_inj[i] += inj.i0

        v1_ref = v1 if v1 is not None else np.ones(n, dtype=complex)
        corr0, corr1, corr2 = compensation_currents(ybus.couplings, v0, v1_ref, v2)
        # Positive-sequence compensation enters NR as an equivalent PQ term.
        if np.any(np.abs(corr1) > 0.0):
            for bus_id, i in ybus.bus_index.items():
                if abs(corr1[i]) > 0.0:
                    s_comp = -v1_ref[i] * np.conj(corr1[i])
                    extra_s1[bus_id] = extra_s1.get(bus_id, 0j) + s_comp

        nr = nr_positive_sequence(ybus, case, extra_s1, v_init=v1)
        v1_new, mismatch = nr.v1, nr.mismatch
        total_iters += nr.iterations
        v2_new = solve_negative(ybus, i2_inj + corr2)
        v0_new = solve_zero(ybus, i0_inj + corr0)

        delta = np.inf if v1 is None else max(
            np.max(np.abs(v1_new - v1)),
            np.max(np.abs(v2_new - v2)),
            np.max(np.abs(v0_new - v0)),
        )
        v0, v1, v2 = v0_new, v1_new, v2_new
        history.append(float(delta))
        if delta < SEQ_LOOP_TOL:
            return SequenceSolution(
                v0=v0, v1=v1, v2=v2, mismatch=mismatch,
                iterations=total_iters, passes=pass_no, bus_index=dict(ybus.bus_index),
            )

    raise ConvergenceError(
        f"sequence loop did not settle below {SEQ_LOOP_TOL:g} pu in {max_passes} passes",
        history,
    )
