"""Independent reference implementations used to cross-check the solvers.

Everything here deliberately avoids the package's assembly and solution
code paths: dense matrices, naive stamping loops and scipy's generic root
finder instead of the hand-written Newton iterations.
"""
from __future__ import annotations

import cmath

import numpy as np
import scipy.optimize

from tdcosim.dsolve import PHASE_INDEX, FeederLine, PhaseLoad
from tdcosim.netmodel import BusKind, ZeroSeqPath


def feeder_records(feeder) -> tuple[tuple[FeederLine, ...], tuple[PhaseLoad, ...]]:
    """A feeder's lines and loads read from its arrays into the records its
    constructor takes: each line's impedance on its own phases, each load's
    MVA on the phases it names, both in file order."""
    lines = []
    for a, b, ps, z in zip(feeder.line_from, feeder.line_to, feeder.line_phases, feeder.line_z):
        idx = [PHASE_INDEX[ph] for ph in ps]
        lines.append(FeederLine(a, b, ps, z[np.ix_(idx, idx)]))
    loads = [
        PhaseLoad(node, {ph: v for ph, v, on in zip("abc", s, named) if on})
        for node, s, named in zip(feeder.load_nodes, feeder.load_s.tolist(),
                                  feeder.load_phases.tolist())
    ]
    return tuple(lines), tuple(loads)


def fortescue_matrix() -> np.ndarray:
    a = cmath.exp(2j * cmath.pi / 3)
    return np.array([[1, 1, 1], [1, a * a, a], [1, a, a * a]], dtype=complex)


def fortescue_inverse() -> np.ndarray:
    return np.linalg.inv(fortescue_matrix())


def stamp_ybus_dense(case, sequence: int) -> np.ndarray:
    """Naive branch-by-branch dense stamping for one sequence network."""
    index = {b.id: i for i, b in enumerate(case.buses)}
    n = len(case.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        f, t = index[br.from_bus], index[br.to_bus]
        tap = br.tap
        if sequence == 1:
            z, b = br.z1, br.b1_shunt
        elif sequence == 2:
            z, b = br.z2_eff, br.b1_shunt
        else:
            z, b = br.z0_eff, br.b0_shunt
        if br.coupling is not None:
            z_full = np.diag([br.z0_eff, br.z1, br.z2_eff]) + np.asarray(br.coupling)
            ys = np.linalg.inv(z_full)[sequence, sequence]
        else:
            ys = 1.0 / z
        ysh = 1j * b / 2.0
        if sequence == 0:
            if br.zero_seq_path is ZeroSeqPath.OPEN:
                continue
            if br.zero_seq_path is ZeroSeqPath.GROUNDED:
                y[t, t] += ys
                continue
        y[f, f] += (ys + ysh) / tap**2
        y[t, t] += ys + ysh
        y[f, t] -= ys / tap
        y[t, f] -= ys / tap
    return y


def nr_oracle(case, tol: float = 1e-12) -> np.ndarray:
    """Positive-sequence power flow solved by scipy's generic root finder.

    ``case`` is in MW/MVAr; the scheduled injection of each bus is its
    generation minus its lumped load, divided by the system base.
    """
    n = len(case.buses)
    index = {b.id: i for i, b in enumerate(case.buses)}
    y = stamp_ybus_dense(case, 1)

    s_spec = np.zeros(n, dtype=complex)
    for g in case.generators:
        s_spec[index[g.bus]] += complex(g.p_set, g.q_set)
    for ld in case.loads:
        if not ld.is_feeder:
            s_spec[index[ld.bus]] -= complex(ld.p, ld.q)
    s_spec /= case.base_mva

    slack = next(i for i, b in enumerate(case.buses) if b.kind is BusKind.SLACK)
    pv = [i for i, b in enumerate(case.buses) if b.kind is BusKind.PV]
    pq = [i for i, b in enumerate(case.buses) if b.kind is BusKind.PQ]
    pvpq = sorted(pv + pq)

    vm0 = np.ones(n)
    va0 = np.zeros(n)
    vm0[slack] = case.buses[slack].v_setpoint
    va0[slack] = case.buses[slack].angle_setpoint or 0.0
    for i in pv:
        vm0[i] = case.buses[i].v_setpoint

    def residual(x):
        va = va0.copy()
        vm = vm0.copy()
        va[pvpq] = x[: len(pvpq)]
        vm[pq] = x[len(pvpq):]
        v = vm * np.exp(1j * va)
        s = v * np.conj(y @ v)
        return np.concatenate(
            [(s.real - s_spec.real)[pvpq], (s.imag - s_spec.imag)[pq]]
        )

    x0 = np.concatenate([va0[pvpq], vm0[pq]])
    sol = scipy.optimize.root(residual, x0, method="hybr", tol=tol)
    assert sol.success, sol.message
    va = va0.copy()
    vm = vm0.copy()
    va[pvpq] = sol.x[: len(pvpq)]
    vm[pq] = sol.x[len(pvpq):]
    return vm * np.exp(1j * va)


FEEDER_RESIDUAL_TOL = 1e-10  # pu current, per node and phase


def feeder_nodal_newton_oracle(feeder, head_v, tol: float = 1e-12) -> np.ndarray:
    """Dense nodal constant-PQ solve of a feeder via scipy root.

    Returns an (n, 3) voltage array aligned with the feeder's node order,
    absent phases zero.
    """
    topo = feeder.topology()
    n = len(topo.node_order)
    z_base = feeder.base_kv**2 / feeder.base_mva

    big = np.zeros((3 * n, 3 * n), dtype=complex)
    lines, loads = feeder_records(feeder)
    lines_by_pair = {frozenset((ln.from_node, ln.to_node)): ln for ln in lines}
    for pair, ln in sorted(lines_by_pair.items(), key=lambda kv: (kv[1].from_node, kv[1].to_node)):
        fi = topo.node_index[ln.from_node]
        ti = topo.node_index[ln.to_node]
        idx = [PHASE_INDEX[p] for p in ln.phases]
        yk = np.linalg.inv(np.asarray(ln.z_abc, dtype=complex) / z_base)
        gf = [3 * fi + i for i in idx]
        gt = [3 * ti + i for i in idx]
        big[np.ix_(gf, gf)] += yk
        big[np.ix_(gt, gt)] += yk
        big[np.ix_(gf, gt)] -= yk
        big[np.ix_(gt, gf)] -= yk

    s_pu = np.zeros((n, 3), dtype=complex)
    for ld in loads:
        i = topo.node_index[ld.node]
        for ph, val in ld.s.items():
            s_pu[i, PHASE_INDEX[ph]] += val / (feeder.base_mva / 3.0)

    head_arr = np.asarray(head_v.as_array(), dtype=complex)
    unknown = [
        (i, p)
        for i in range(1, n)
        for p in range(3)
        if topo.mask[i, p]
    ]

    def unpack(x):
        v = np.zeros((n, 3), dtype=complex)
        v[0] = head_arr * topo.mask[0]
        vals = x[: len(unknown)] + 1j * x[len(unknown):]
        for (i, p), val in zip(unknown, vals):
            v[i, p] = val
        return v

    def residual(x):
        v = unpack(x)
        i_inj = (big @ v.reshape(-1)).reshape(n, 3)
        out = []
        for i, p in unknown:
            r = i_inj[i, p] + np.conj(s_pu[i, p] / v[i, p])
            out.append(r)
        out = np.asarray(out)
        return np.concatenate([out.real, out.imag])

    v0 = np.array([head_arr[p] for _, p in unknown])
    x0 = np.concatenate([v0.real, v0.imag])
    sol = scipy.optimize.root(residual, x0, method="hybr", tol=tol)
    # Judge the answer by its own current mismatch, not by hybr's step-size
    # test: that can report "not making good progress" at a 4e-15 residual.
    worst = np.max(np.abs(residual(sol.x)), initial=0.0)
    assert worst < FEEDER_RESIDUAL_TOL, f"{sol.message} (residual {worst:.2e} pu)"
    return unpack(sol.x)


def coupled_sequence_direct_2bus(z012_full, sh_b0, sh_b1, injections) -> np.ndarray:
    """Direct 6x6 solve of a 2-bus coupled sequence network.

    ``z012_full`` is the full 3x3 series impedance (diagonal plus coupling);
    ``sh_b0``/``sh_b1`` are the total zero/positive charging susceptances of
    the branch (half stamped per end, positive charging also used for the
    negative sequence); ``injections`` is a (2, 3) current array ordered
    (bus, sequence).  Returns voltages in the same (2, 3) layout.
    """
    ys = np.linalg.inv(np.asarray(z012_full, dtype=complex))
    d_sh = np.diag([1j * sh_b0 / 2.0, 1j * sh_b1 / 2.0, 1j * sh_b1 / 2.0])
    y = np.block([[ys + d_sh, -ys], [-ys, ys + d_sh]])
    i = np.asarray(injections, dtype=complex)
    # reorder (bus, seq) -> stacked per bus
    rhs = np.concatenate([i[0], i[1]])
    v = np.linalg.solve(y, rhs)
    return np.vstack([v[:3], v[3:]])


def branchwise_power_balance(case, v: np.ndarray, sequence: int) -> complex:
    """Total complex power absorbed by branches and shunts, element by element."""
    index = {b.id: i for i, b in enumerate(case.buses)}
    total = 0j
    for br in case.branches:
        f, t = index[br.from_bus], index[br.to_bus]
        tap = br.tap
        if sequence == 1:
            z, b = br.z1, br.b1_shunt
        elif sequence == 2:
            z, b = br.z2_eff, br.b1_shunt
        else:
            z, b = br.z0_eff, br.b0_shunt
        if br.coupling is not None:
            z_full = np.diag([br.z0_eff, br.z1, br.z2_eff]) + np.asarray(br.coupling)
            ys = np.linalg.inv(z_full)[sequence, sequence]
        else:
            ys = 1.0 / z
        ysh = 1j * b / 2.0
        if sequence == 0:
            if br.zero_seq_path is ZeroSeqPath.OPEN:
                continue
            if br.zero_seq_path is ZeroSeqPath.GROUNDED:
                total += v[t] * np.conj(ys * v[t])
                continue
        i_f = (v[f] / tap - v[t]) * ys / tap + ysh * v[f] / tap**2
        i_t = (v[t] - v[f] / tap) * ys + ysh * v[t]
        total += v[f] * np.conj(i_f) + v[t] * np.conj(i_t)
    return total
