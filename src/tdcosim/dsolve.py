"""Three-phase unbalanced power flow for radial feeders.

The solver is a backward/forward sweep over constant-PQ loads: two
triangular solves on one sparse LU factor of ``I - A`` per topology, with
``A[parent, child] = 1`` per line, so a sweep costs O(n) at any depth.  The
backward solve ``(I - A) acc = i_load`` sums the load currents at the
present voltages over each subtree; a line carries its child's ``acc``.  The
forward solve ``(I - A)^T v = b`` then needs those currents: ``b`` is the
head voltage at the head and ``-Z i_line`` at each line's child.  The node
numbering of the factor makes every sum round as a line-by-line loop would
(see ``_compile_topology``).  Sweeps repeat until the largest per-phase
voltage change falls below tolerance.  After convergence one extra backward
solve recomputes all branch currents at the reported voltages, so the
returned state satisfies KCL at every node to machine precision regardless
of the sweep tolerance.

Feeders carry per-phase quantities in padded (n, 3) arrays with absent
phases masked to zero; per-unit uses a line-to-neutral voltage base and a
per-phase power base of ``base_mva / 3``.

A feeder holds its loads as arrays with one row per ``load`` line, in file
order: ``load_s`` is the (m, 3) complex MVA, zero on phases a load does not
name, ``load_phases`` the (m, 3) mask of the phases it names and
``load_nodes`` its node.  Load scaling, unbalance and aggregation are vector
operations on ``load_s``; each sweep folds it onto the nodes in that same
order, so every sum rounds as a loop over the loads would.  The value copies
they return share the topology and the per-load node index.
"""
from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, VoltageCollapseError
from .seqxform import VOLTAGE_FLOOR, PhasePowers, PhaseVoltages

PHASE_INDEX = {"a": 0, "b": 1, "c": 2}
PHASE_SETS = ("a", "b", "c", "ab", "ac", "bc", "abc")  # a line's ordered phases
SWEEP_TOL = 1e-6
SWEEP_MAX_ITER = 100
COLLAPSE_FLOOR = 0.5


@dataclass(frozen=True, eq=False)
class FeederLine:
    from_node: str
    to_node: str
    phases: str  # subset of "abc", in that order
    z_abc: np.ndarray  # (k, k) complex ohms for the present phases


@dataclass(frozen=True)
class PhaseLoad:
    """One load line: the record that builds a feeder and that is written back."""

    node: str
    s: dict[str, complex]  # MVA per present phase

    def total(self) -> complex:
        return sum(self.s.values(), 0j)


@dataclass(eq=False)
class _Shared:
    """Lazily compiled structure shared by a feeder and its value copies."""

    topo: "_Topology | None" = None
    load_at: np.ndarray | None = None  # (m,) topology index of each load's node


class Feeder:
    """Radial feeder; treat as immutable, value copies share topology."""

    def __init__(self, base_kv, base_mva, head, lines, loads, name="feeder"):
        self.base_kv = base_kv
        self.base_mva = base_mva
        self.head = head
        self.lines = lines
        self.name = name
        loads = tuple(loads)
        for ld in loads:
            for ph in ld.s:
                if ph not in PHASE_INDEX:
                    raise ValueError(f"load at {ld.node}: unknown phase {ph!r}")
        m = len(loads)
        self.load_nodes = tuple(ld.node for ld in loads)
        self.load_phases = np.fromiter(
            (ph in ld.s for ld in loads for ph in "abc"), dtype=bool, count=3 * m
        ).reshape(m, 3)
        self.load_s = np.fromiter(
            (ld.s.get(ph, 0j) for ld in loads for ph in "abc"), dtype=complex, count=3 * m
        ).reshape(m, 3)
        self._shared = _Shared()

    @property
    def loads(self) -> tuple[PhaseLoad, ...]:
        """The loads as records, rebuilt from the arrays."""
        return tuple(
            PhaseLoad(node, {ph: v for ph, v, on in zip("abc", s, named) if on})
            for node, s, named in zip(
                self.load_nodes, self.load_s.tolist(), self.load_phases.tolist()
            )
        )

    def topology(self) -> "_Topology":
        if self._shared.topo is None:
            self._shared.topo = _compile_topology(self.head, self.lines)
        return self._shared.topo

    def load_index(self) -> np.ndarray:
        """(m,) topology index of each load's node."""
        if self._shared.load_at is None:
            index = self.topology().node_index
            self._shared.load_at = np.array(
                [index[node] for node in self.load_nodes], dtype=int
            )
        return self._shared.load_at

    def nodes(self) -> list[str]:
        return list(self.topology().node_order)

    def with_loads(self, loads) -> "Feeder":
        clone = Feeder(
            self.base_kv, self.base_mva, self.head, self.lines, loads, self.name
        )
        clone._shared.topo = self._shared.topo
        return clone

    def _with_load_s(self, load_s: np.ndarray) -> "Feeder":
        clone = copy.copy(self)
        clone.load_s = load_s
        return clone


@dataclass(eq=False)
class _Topology:
    node_order: tuple[str, ...]  # breadth-first from the head, so depth-major
    node_index: dict[str, int]
    mask: np.ndarray  # (n, 3) bool, phases present at each node
    parent: np.ndarray  # (L,) int, line parent node index
    child: np.ndarray  # (L,) int, line j feeds node j + 1
    z_pu_factor: np.ndarray  # (L, 3, 3) complex, padded per-unit impedances
    line_names: tuple[tuple[str, str], ...]
    line_index: np.ndarray  # (L,) int, source index into Feeder.lines
    number: np.ndarray  # (n,) int, factor position of each node; its own inverse

    @functools.cached_property
    def lu(self) -> spla.SuperLU:
        """Factor of ``I - A`` in ``number`` order, built at the first sweep."""
        n = len(self.node_order)
        rows = np.concatenate([np.arange(n), self.number[self.parent]])
        cols = np.concatenate([np.arange(n), self.number[self.child]])
        data = np.concatenate([np.ones(n), -np.ones(n - 1)])
        return spla.splu(sp.csc_matrix((data, (rows, cols)), shape=(n, n)),
                         permc_spec="NATURAL", relax=1)


def _compile_topology(head: str, lines: tuple[FeederLine, ...]) -> _Topology:
    adj: dict[str, list[tuple[int, str]]] = {head: []}
    for k, ln in enumerate(lines):
        adj.setdefault(ln.from_node, []).append((k, ln.to_node))
        adj.setdefault(ln.to_node, []).append((k, ln.from_node))

    # Breadth-first from the head: node j + 1 is reached from parents[j] by
    # line vias[j], and depth never decreases along the order.
    order = [head]
    node_index = {head: 0}
    depths = [0]
    parents: list[int] = []
    vias: list[int] = []
    for p, node in enumerate(order):
        for k, other in adj[node]:
            if p and k == vias[p - 1]:
                continue  # the line this node was reached by
            if other in node_index:
                raise ValueError(
                    f"feeder is not radial: line {lines[k].from_node}-"
                    f"{lines[k].to_node} closes a loop"
                )
            node_index[other] = len(order)
            order.append(other)
            depths.append(depths[p] + 1)
            parents.append(p)
            vias.append(k)

    unreached = sorted(set(adj) - set(node_index))
    if unreached:
        raise ValueError(f"nodes not reachable from head {head!r}: {unreached}")

    n = len(order)
    parent = np.array(parents, dtype=int)
    child = np.arange(1, n)
    mask = np.zeros((n, 3), dtype=bool)
    mask[0, :] = True
    z_pad = np.zeros((n - 1, 3, 3), dtype=complex)
    phases = np.array([lines[k].phases for k in vias], dtype=str)
    for ps in np.unique(phases):
        sel = np.flatnonzero(phases == ps)
        idx = [PHASE_INDEX[ph] for ph in ps]
        z_pad[np.ix_(sel, idx, idx)] = [lines[vias[j]].z_abc for j in sel]
        mask[np.ix_(child[sel], idx)] = True

    # The factor (_Topology.lu) numbers nodes by depth, which makes I - A unit
    # upper-triangular, and reverses the nodes within each depth: SuperLU's
    # back-substitution adds a parent's children in reverse column order,
    # which is then line order, so every sum rounds as a line-by-line loop's.
    # permc_spec="NATURAL" keeps this numbering; relax=1 keeps each column its
    # own supernode, as a larger relax makes the root a dense supernode that
    # BLAS sums in another order.
    depth = np.array(depths)
    number = (np.searchsorted(depth, depth, side="left")
              + np.searchsorted(depth, depth, side="right") - 1 - np.arange(n))

    return _Topology(
        node_order=tuple(order),
        node_index=node_index,
        mask=mask,
        parent=parent,
        child=child,
        z_pu_factor=z_pad,
        line_names=tuple((order[p], order[c]) for p, c in zip(parent, child)),
        line_index=np.array(vias, dtype=int),
        number=number,
    )


def _tree_solve(topo: _Topology, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve ``(I - A) x = rhs`` or its transpose; complex (n, 3) as 6 real columns."""
    real = rhs[topo.number].view(float)
    return topo.lu.solve(real, trans=trans)[topo.number].view(complex)


def validate_feeder(feeder: Feeder) -> list[str]:
    """Structural checks; violations are returned as strings."""
    violations: list[str] = []
    if feeder.base_kv <= 0:
        violations.append("base_kv must be positive")
    if feeder.base_mva <= 0:
        violations.append("base_mva must be positive")
    # Phase sets and matrix shapes first: the topology cannot pad a line
    # that fails either.
    malformed: list[str] = []
    for ln in feeder.lines:
        tag = f"line {ln.from_node}-{ln.to_node}"
        if ln.phases not in PHASE_SETS:
            malformed.append(f"{tag}: invalid phase set {ln.phases!r}")
        elif np.shape(ln.z_abc) != (len(ln.phases),) * 2:
            malformed.append(f"{tag}: impedance matrix shape {np.shape(ln.z_abc)} "
                             f"does not match phases {ln.phases!r}")
    if malformed:
        return violations + malformed
    try:
        topo = feeder.topology()
    except ValueError as exc:
        violations.append(str(exc))
        return violations

    # Numeric checks on the (L, 3, 3) pad; absent phases are zero there.
    z = topo.z_pu_factor
    line_mask = topo.mask[topo.child]
    asym = ~np.isclose(z, z.transpose(0, 2, 1)).all(axis=(1, 2))
    zero_self = (line_mask & (np.diagonal(z, axis1=1, axis2=2) == 0)).any(axis=1)
    uncovered = (line_mask & ~topo.mask[topo.parent]).any(axis=1)
    for j in np.flatnonzero(asym | zero_self | uncovered):
        ln = feeder.lines[topo.line_index[j]]
        tag = f"line {ln.from_node}-{ln.to_node}"
        if asym[j]:
            violations.append(f"{tag}: impedance matrix is not symmetric")
        if zero_self[j]:
            violations.append(f"{tag}: zero self-impedance on a present phase")
        if uncovered[j]:
            violations.append(f"{tag}: phases {ln.phases!r} not all present on "
                              f"parent path")

    at = np.array([topo.node_index.get(node, -1) for node in feeder.load_nodes], dtype=int)
    absent = feeder.load_phases & ~topo.mask[at] & (at >= 0)[:, None]
    for k in np.flatnonzero((at < 0) | absent.any(axis=1)):
        node = feeder.load_nodes[k]
        if at[k] < 0:
            violations.append(f"load at unknown node {node!r}")
        for ph, bad in zip("abc", absent[k]):
            if bad:
                violations.append(f"load at {node}: phase {ph} not present there")
    return violations


@dataclass
class FeederSolution:
    node_order: tuple[str, ...]
    v: np.ndarray  # (n, 3) complex pu, absent phases zero
    i_line: np.ndarray  # (L, 3) complex pu, aligned with line_names
    line_names: tuple[tuple[str, str], ...]
    head_power: PhasePowers  # MVA
    iterations: int
    mask: np.ndarray
    _feeder: Feeder = field(repr=False)

    def kcl_residuals(self) -> np.ndarray:
        """Per node/phase current balance at the reported state (pu)."""
        topo = self._feeder.topology()
        s_pu = _load_array(self._feeder, topo)
        i_load = _load_currents(s_pu, self.v, topo.mask)
        resid = -i_load.copy()
        np.subtract.at(resid, topo.parent, self.i_line)
        resid[topo.child] += self.i_line
        resid[topo.node_index[self._feeder.head]] = 0.0  # balance closed by source
        return resid


def _load_array(feeder: Feeder, topo: _Topology) -> np.ndarray:
    """Per-node per-phase load in pu on the per-phase power base."""
    s = np.zeros((len(topo.node_order), 3), dtype=complex)
    np.add.at(s, feeder.load_index(), _divide(feeder.load_s, feeder.base_mva / 3.0))
    return s


def _divide(z: np.ndarray, x: float) -> np.ndarray:
    """``z / x`` rounded part by part, as Python's ``complex / float`` is.

    NumPy divides complex by real through a reciprocal, which can differ in
    the last bit.
    """
    return (np.ascontiguousarray(z).view(float) / x).view(complex)


def _load_currents(s_pu: np.ndarray, v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s_pu)
    ok = mask & (np.abs(v) > VOLTAGE_FLOOR)
    np.divide(s_pu, v, out=out, where=ok)
    return np.conj(out)


def sweep_solve(
    feeder: Feeder,
    head_v: PhaseVoltages,
    tol: float = SWEEP_TOL,
    max_iter: int = SWEEP_MAX_ITER,
) -> FeederSolution:
    """Backward/forward sweep power flow from a fixed head voltage."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    head_arr = head_v.as_array()
    head_mag = np.abs(head_arr)
    if np.any(head_mag <= COLLAPSE_FLOOR) or np.any(head_mag >= 1.5):
        raise ValueError(
            f"head voltage magnitudes {head_mag} outside the supported "
            f"({COLLAPSE_FLOOR}, 1.5) pu band"
        )
    topo = feeder.topology()
    mask = topo.mask
    z_base = feeder.base_kv**2 / feeder.base_mva
    z_pu = topo.z_pu_factor / z_base
    s_pu = _load_array(feeder, topo)

    v = np.where(mask, head_arr[None, :], 0.0).astype(complex)
    history: list[float] = []
    for iterations in range(1, max_iter + 1):
        i_load = _load_currents(s_pu, v, mask)
        i_line = _tree_solve(topo, i_load)[1:]
        drop = np.einsum("lij,lj->li", z_pu, i_line)
        v_new = _tree_solve(topo, np.concatenate([head_arr[None], -drop]), "T") * mask
        delta = float(np.max(np.abs(v_new - v)))
        history.append(delta)
        v = v_new
        worst = float(np.min(np.abs(v[mask])))
        if worst < COLLAPSE_FLOOR:
            raise VoltageCollapseError(
                f"feeder {feeder.name!r}: voltage collapsed to {worst:.3f} pu "
                f"during sweep {iterations}",
                history,
            )
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"feeder {feeder.name!r} sweep did not converge in {max_iter} "
            f"iterations (last change {history[-1]:.3e} pu)",
            history,
        )

    # Final consistency pass: currents recomputed at the reported voltages so
    # KCL holds exactly at every node.
    acc = _tree_solve(topo, _load_currents(s_pu, v, mask))
    s_head_pu = v[0] * np.conj(acc[0])
    head_power = PhasePowers.from_array(s_head_pu * (feeder.base_mva / 3.0))

    return FeederSolution(
        node_order=topo.node_order,
        v=v,
        i_line=acc[1:],
        line_names=topo.line_names,
        head_power=head_power,
        iterations=iterations,
        mask=mask,
        _feeder=feeder,
    )


def aggregate_load(feeder: Feeder) -> PhasePowers:
    """Sum of all attached loads per phase (MVA); the decoupled-model proxy."""
    return PhasePowers.from_array(feeder.load_s.sum(axis=0))


def scale_loads(feeder: Feeder, multiplier: float) -> Feeder:
    """Uniformly scale every load; used to apply loadshape multipliers."""
    if multiplier < 0:
        raise ValueError("load multiplier must be non-negative")
    return feeder._with_load_s(feeder.load_s * multiplier)


def apply_unbalance(feeder: Feeder, alpha: float) -> Feeder:
    """Shift three-phase loads toward phase a, conserving per-node totals.

    Each load present on all three phases is reshaped around its per-phase
    mean ``m``: phase a gets ``(1 + alpha) * m``, phases b and c get
    ``(1 - alpha/2) * m``.  Single- and two-phase loads are untouched.
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be within [0, 0.5], got {alpha}")
    three = feeder.load_phases.all(axis=1)
    m = _divide(feeder.load_s[three].sum(axis=1), 3.0)
    load_s = feeder.load_s.copy()
    load_s[three] = np.outer(m, [1.0 + alpha, 1.0 - alpha / 2.0, 1.0 - alpha / 2.0])
    return feeder._with_load_s(load_s)


TWO_PHASE_SETS = ("ab", "bc", "ac")
SINGLE_PHASES = ("a", "b", "c")


def synth_feeder(
    nodes: int,
    total_p_mw: float,
    total_q_mvar: float,
    base_kv: float,
    base_mva: float = 100.0,
    phase_mix: tuple[float, float, float] = (0.6, 0.15, 0.25),
    seed: int = 0,
    name: str = "synthetic",
    target_drop: float = 0.04,
) -> Feeder:
    """Deterministic synthetic radial feeder with the requested aggregates.

    ``phase_mix`` splits the total demand over three-, two- and single-phase
    leaves; categories without leaves fold into the widest available one.
    Impedances are rescaled so the full-load head voltage drop lands between
    2 and 6 percent.
    """
    if nodes < 2:
        raise ValueError("a feeder needs at least two nodes")
    total = complex(total_p_mw, total_q_mvar)
    if total.real <= 0:
        raise ValueError("total active demand must be positive")
    mix = np.asarray(phase_mix, dtype=float)
    if np.any(mix < 0) or mix.sum() <= 0:
        raise ValueError("phase mix fractions must be non-negative, not all zero")
    mix = mix / mix.sum()

    rng = np.random.default_rng(seed)
    n_other = nodes - 1
    backbone_len = min(30, max(1, n_other // 4 if n_other >= 4 else n_other))

    names = ["head"] + [f"n{i}" for i in range(1, nodes)]
    lines: list[FeederLine] = []
    node_phase = {"head": "abc"}

    # Ohm scale chosen so the trunk drop at full load starts near the target
    # band; the calibration loop below trims the remainder.
    trunk_ohm = target_drop * base_kv**2 / abs(total) / backbone_len

    def z_matrix(phases: str, scale: float) -> np.ndarray:
        k = len(phases)
        length = rng.uniform(0.5, 1.5)
        z_self = trunk_ohm * (0.45 + 0.9j) * scale * length
        z_mut = 0.25 * z_self
        z = np.full((k, k), z_mut, dtype=complex)
        np.fill_diagonal(z, z_self)
        return z

    backbone = ["head"]
    for i in range(backbone_len):
        child = names[1 + i]
        lines.append(FeederLine(backbone[-1], child, "abc", z_matrix("abc", 1.0)))
        node_phase[child] = "abc"
        backbone.append(child)

    # Laterals hang off random backbone nodes.  Single- and two-phase
    # laterals are generated as phase-rotated triples sharing one impedance
    # draw, so the feeder's response at alpha = 0 is exactly balanced even
    # though individual customers are not three-phase (Table-1 behaviour:
    # near-identical phase voltages before unbalance is applied).
    leaf_groups: list[tuple[int, list[str]]] = []  # (category, leaf of each chain)
    next_i = 1 + backbone_len
    while next_i < nodes:
        anchor = backbone[int(rng.integers(0, len(backbone)))]
        cat = int(rng.choice(3, p=[0.5, 0.2, 0.3]))
        chain_len = int(rng.integers(1, 4))
        left = nodes - next_i
        if cat != 0 and 3 * chain_len > left:
            cat = 0  # no room for a symmetric triple; fall back to three-phase
        if cat == 0:
            parent = anchor
            for _ in range(min(chain_len, left)):
                child = names[next_i]
                next_i += 1
                lines.append(FeederLine(parent, child, "abc", z_matrix("abc", 2.0)))
                node_phase[child] = "abc"
                parent = child
            leaf_groups.append((0, [parent]))
        else:
            phase_sets = TWO_PHASE_SETS if cat == 1 else SINGLE_PHASES
            z_draws = [z_matrix(phase_sets[0], 2.0) for _ in range(chain_len)]
            leaves: list[str] = []
            for phases in phase_sets:
                parent = anchor
                for z in z_draws:
                    child = names[next_i]
                    next_i += 1
                    lines.append(FeederLine(parent, child, phases, z))
                    node_phase[child] = phases
                    parent = child
                leaves.append(parent)
            leaf_groups.append((cat, leaves))
    if not leaf_groups:
        leaf_groups.append((0, [backbone[-1]]))

    by_cat: dict[int, list[list[str]]] = {0: [], 1: [], 2: []}
    for cat, leaves in leaf_groups:
        by_cat[cat].append(leaves)

    shares = mix.astype(complex) * total
    for cat in (2, 1, 0):
        if not by_cat[cat] and shares[cat] != 0:
            fold = next(c for c in (0, 1, 2) if by_cat[c])
            shares[fold] += shares[cat]
            shares[cat] = 0

    loads: list[PhaseLoad] = []
    for cat, groups in by_cat.items():
        if not groups or shares[cat] == 0:
            continue
        w = rng.uniform(0.5, 1.5, size=len(groups))
        w = w / w.sum()
        for leaves, wi in zip(groups, w):
            s_group = shares[cat] * wi
            for leaf in leaves:
                phases = node_phase[leaf]
                s_leaf = s_group / len(leaves)
                loads.append(
                    PhaseLoad(leaf, {ph: s_leaf / len(phases) for ph in phases})
                )

    # Close the floating-point gap so aggregates equal the spec exactly.
    widest = max(range(len(loads)), key=lambda j: len(loads[j].s))
    for _ in range(3):
        residual = total - sum(ld.total() for ld in loads)
        if residual == 0:
            break
        ld = loads[widest]
        k = len(ld.s)
        loads[widest] = PhaseLoad(
            ld.node, {ph: val + residual / k for ph, val in ld.s.items()}
        )

    feeder = Feeder(base_kv, base_mva, "head", tuple(lines), loads, name)

    # Rescale impedances so the full-load drop hits the target band.
    for _ in range(6):
        try:
            sol = sweep_solve(feeder, PhaseVoltages.balanced(1.0), tol=1e-8, max_iter=200)
        except ConvergenceError:
            factor = 0.25  # overshot badly; soften and retry
        else:
            drop = 1.0 - float(np.min(np.abs(sol.v[sol.mask])))
            if 0.025 <= drop <= 0.055:
                break
            factor = target_drop / max(drop, 1e-9)
        lines = tuple(
            FeederLine(ln.from_node, ln.to_node, ln.phases, ln.z_abc * factor)
            for ln in feeder.lines
        )
        feeder = Feeder(base_kv, base_mva, "head", lines, loads, name)
    return feeder
