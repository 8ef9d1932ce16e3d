"""Three-phase unbalanced power flow for radial feeders.

Each feeder has one node numbering: depth-first from the head, with a
node's children in line order, so every subtree is a range of nodes and a
sweep is a few O(n) prefix sums at any depth.  The solver is a
backward/forward sweep over constant-PQ loads (the ladder method).  The
backward sweep sums the load currents over each subtree as a difference of
suffix sums; a line carries its child's sum.  The forward sweep takes the
line drops ``Z i_line`` as one sparse matrix-vector product and subtracts
them along each path from the head: a prefix sum less the terms of subtrees
already closed (see ``_SweepPlan``).  Sweeps start from the head voltage at
every node, or from a previous solution's voltages on the same topology
rescaled per phase to the new head voltage, and repeat until the largest
per-phase voltage change falls below tolerance.  After
convergence one extra backward sweep recomputes all branch currents at the
reported voltages, so the returned state satisfies KCL at every node to
machine precision regardless of the sweep tolerance.  Solutions, masks and
line checks are all reported in this numbering.

The numbering is compiled once per topology, by two walks in
``scipy.sparse.csgraph`` over CSR graphs of the lines.  A breadth-first walk
from the head gives each node's parent.  The lines are a tree when it
reaches every node and there is one line fewer than nodes; otherwise the
first line, in line order, that closes a loop with the lines before it is
named, or, if there is no loop, the nodes the walk missed.  A depth-first
walk of the tree's left-child, right-sibling form then numbers the nodes.
Each structural violation names the line or load at fault, so a parser can
report it at its row.

Solutions report per-phase quantities in (n, 3) arrays with absent phases
+0.0; per-unit uses a line-to-neutral voltage base and a per-phase power
base of ``base_mva / 3``.  A sweep works on three per-phase rows instead,
each holding only the nodes that have that phase in this numbering, padded
to a common width (see ``_SweepPlan``), so a one- or two-phase lateral
costs only its phases.  A row's nodes keep their order, so its subtree and
path sums add the same nonzero terms in the same order as a sum over all
nodes with zeros on absent phases would; only the sign of an exact zero
can differ.

A feeder holds its lines and loads as arrays, one row per ``line`` or
``load`` line in file order: ``line_from``/``line_to`` name the ends,
``line_phases`` the phase sets and ``line_z`` is the (L, 3, 3) complex ohm
pad, zero on absent phases; ``load_s`` is the (m, 3) complex MVA, zero on
phases a load does not name, ``load_phases`` the (m, 3) mask of the phases
it names and ``load_nodes`` its node.  The constructor is the only place
that accepts ``FeederLine`` and ``PhaseLoad`` records: it checks them and
converts them to arrays once, and nothing in the package reads records
back.  Load scaling, unbalance and aggregation are vector operations
on ``load_s``.  The value copies they return share the topology and the
sweep plan, built at the first sweep: the row maps, the sparse matrix that
takes the line currents to each slot's line drop, and each load's node.  A
sweep then only folds ``load_s`` onto the rows with one ``bincount`` in file
order, so every sum rounds as a loop over the loads would; the last fold is
kept, so the rounds of a coupled step that sweep one copy fold once.  Head
voltages and head powers are (3,) arrays; a sweep also accepts a
``PhaseVoltages`` head.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, depth_first_order

from .errors import ConvergenceError, VoltageCollapseError
from .seqxform import PhasePowers, PhaseVoltages

PHASE_INDEX = {"a": 0, "b": 1, "c": 2}
PHASE_SETS = ("a", "b", "c", "ab", "ac", "bc", "abc")  # a line's ordered phases
SWEEP_TOL = 1e-6
SWEEP_MAX_ITER = 100
COLLAPSE_FLOOR = 0.5
COLLAPSE_MARGIN = 1e-6  # pu, far wider than the rounding of a sweep's bound on min |V|


@dataclass(frozen=True, eq=False)
class FeederLine:
    from_node: str
    to_node: str
    phases: str  # subset of "abc", in that order
    z_abc: np.ndarray  # (k, k) complex ohms for the present phases


@dataclass(frozen=True)
class PhaseLoad:
    """One load line, as the record constructor of :class:`Feeder` takes it."""

    node: str
    s: dict[str, complex]  # MVA per present phase


class FeederProblem(ValueError):
    """A structural violation and where it is.

    ``record`` is ``"line"`` or ``"load"``, with ``index`` into the feeder's
    arrays of that record, or the feeder-wide ``"base_kv"`` or ``"base_mva"``.
    ``field`` is the part of the record at fault: a line's ``"from"`` node or
    ``"phases"``, a load's ``"node"`` or phase letter; None for all of it.
    """

    def __init__(self, message: str, record: str, index: int = 0, field: str | None = None):
        super().__init__(message)
        self.record, self.index, self.field = record, index, field


@dataclass(eq=False)
class _Shared:
    """Lazily compiled structure shared by a feeder and its value copies."""

    topo: "_Topology | None" = None
    plan: "_SweepPlan | None" = None
    fold: "tuple[np.ndarray, np.ndarray] | None" = None  # see _load_fold


class Feeder:
    """Radial feeder; treat as immutable, value copies share topology.

    Built from ``FeederLine`` and ``PhaseLoad`` records, which are checked
    and converted to arrays, or from arrays with :meth:`from_arrays`."""

    def __init__(self, base_kv, base_mva, head, lines, loads, name="feeder"):
        built = Feeder.from_arrays(base_kv, base_mva, head, *_line_arrays(lines),
                                   *_load_arrays(loads), name)
        vars(self).update(vars(built))

    @classmethod
    def from_arrays(cls, base_kv, base_mva, head, line_from, line_to, line_phases, line_z,
                    load_nodes, load_phases, load_s, name="feeder") -> "Feeder":
        """A feeder that keeps the given arrays as its own, unchecked: each phase
        set must be one of ``PHASE_SETS``, and ``line_z`` zero off it."""
        feeder = cls.__new__(cls)
        feeder.base_kv, feeder.base_mva, feeder.head, feeder.name = base_kv, base_mva, head, name
        feeder.line_from, feeder.line_to, feeder.line_phases = line_from, line_to, line_phases
        feeder.line_z = line_z
        feeder.load_nodes, feeder.load_phases, feeder.load_s = load_nodes, load_phases, load_s
        feeder._shared = _Shared()
        return feeder

    def topology(self) -> "_Topology":
        if self._shared.topo is None:
            self._shared.topo = _compile_topology(self)
        return self._shared.topo

    def sweep_plan(self) -> "_SweepPlan":
        """What every sweep of this feeder reuses, built at the first sweep."""
        if self._shared.plan is None:
            self._shared.plan = _SweepPlan(self)
        return self._shared.plan

    def nodes(self) -> list[str]:
        return list(self.topology().node_order)

    def _copy(self, shared: _Shared, **arrays) -> "Feeder":
        """A value copy with ``arrays`` replaced, sharing ``shared``."""
        clone = copy.copy(self)
        vars(clone).update(arrays, _shared=shared)
        return clone


_PHASE_POSITIONS = {ps: [PHASE_INDEX[ph] for ph in ps] for ps in PHASE_SETS}
_PHASE_ROW = {ps: k for k, ps in enumerate(PHASE_SETS)}
_PHASE_MASKS = np.array([[ph in ps for ph in "abc"] for ps in PHASE_SETS])  # by _PHASE_ROW


def _line_arrays(lines) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], np.ndarray]:
    """End names, phase sets and the (L, 3, 3) complex ohm pad of records."""
    lines = tuple(lines)
    for ln in lines:
        tag = f"line {ln.from_node}-{ln.to_node}"
        if ln.phases not in PHASE_SETS:
            raise ValueError(f"{tag}: invalid phase set {ln.phases!r}")
        if np.shape(ln.z_abc) != (len(ln.phases),) * 2:
            raise ValueError(f"{tag}: impedance matrix shape {np.shape(ln.z_abc)} "
                             f"does not match phases {ln.phases!r}")
    z = np.zeros((len(lines), 3, 3), dtype=complex)
    phases = np.array([ln.phases for ln in lines], dtype=str)
    for ps in np.unique(phases):
        sel = np.flatnonzero(phases == ps)
        z[np.ix_(sel, _PHASE_POSITIONS[ps], _PHASE_POSITIONS[ps])] = [lines[j].z_abc for j in sel]
    return (tuple(ln.from_node for ln in lines), tuple(ln.to_node for ln in lines),
            tuple(phases.tolist()), z)


def _load_arrays(loads) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Node names, (m, 3) named-phase mask and (m, 3) complex MVA of records."""
    loads = tuple(loads)
    for ld in loads:
        for ph in ld.s:
            if ph not in PHASE_INDEX:
                raise ValueError(f"load at {ld.node}: unknown phase {ph!r}")
    phases = np.array([[ph in ld.s for ph in "abc"] for ld in loads], dtype=bool)
    s = np.array([[ld.s.get(ph, 0j) for ph in "abc"] for ld in loads], dtype=complex)
    return tuple(ld.node for ld in loads), phases.reshape(-1, 3), s.reshape(-1, 3)


@dataclass(eq=False)
class _Topology:
    """A feeder's one node numbering and the subtree ranges the sweep sums over."""

    node_order: tuple[str, ...]  # depth-first from the head, siblings in line order
    node_index: dict[str, int]
    mask: np.ndarray  # (n, 3) bool, phases present at each node
    parent: np.ndarray  # (L,) int, line j runs from node parent[j] to node j + 1
    end: np.ndarray  # (n,) int, the subtree at node k is [k, end[k])
    line_index: np.ndarray  # (L,) int, index into the feeder's line arrays


class _SweepPlan:
    """The parts of a sweep that depend on the impedances and on where the
    loads are, not on the load values or the head voltage.

    A sweep holds each per-phase quantity as three rows of ``width`` slots,
    one per phase: row p holds the nodes that have phase p, in node order,
    then pads up to the longest row.  A pad is a leaf of the head with no
    line and no load, which a sweep holds at its row's head voltage.
    ``slot`` is each node's slot per phase in the rows seen flat, or
    ``3 * width``, one past the rows, on a phase the node does not have,
    where a sweep keeps a zero.  As for all nodes in ``_Topology``, a slot's
    subtree runs to the row's slot ``end``, ``by_end`` lists a row's slots
    by where their subtrees end and ``n_ended`` counts the row's slots whose
    subtree ended at or before a slot's node; ``by_end`` indexes the rows,
    the other two a (3, width + 1) work array, all seen flat.  ``drop`` is
    a (3 * width, 3 * width + 1) CSR matrix that takes the line currents,
    as rows seen flat and followed by a zero, to minus each slot's line
    drop: row r holds the negated per-unit impedance row of slot r's line
    and phase in current-phase order, explicit zeros included, so each row
    sums its three terms from zero in that order, and the head and the pads
    sum three zeros.  A feeder that fails :func:`feeder_problems`, however
    it was built, gets no plan.
    """

    def __init__(self, feeder: Feeder):
        topo = feeder.topology()
        problems = feeder_problems(feeder)
        if problems:
            raise ValueError(f"feeder {feeder.name!r}: " + "; ".join(map(str, problems)))
        self.load_at = _place_loads(feeder, topo)[0]  # (m,)
        n = len(topo.node_order)
        rows = [np.flatnonzero(topo.mask[:, p]) for p in range(3)]
        w = self.width = max(map(len, rows))
        node = np.zeros((3, w), dtype=int)
        self.end, self.by_end, self.n_ended = (np.empty((3, w), dtype=int) for _ in range(3))
        for p, nodes in enumerate(rows):
            k = len(nodes)
            node[p, :k] = nodes
            # A pad is a leaf of the head that sorts after every node by subtree end.
            end, key = np.arange(1, w + 1), np.arange(n + 1, n + 1 + w)
            end[:k] = np.searchsorted(nodes, topo.end[nodes])  # the subtree in the row
            end[0] = w
            key[:k] = topo.end[nodes]
            by_end = np.argsort(key, kind="stable")  # slots by subtree end, as for all nodes
            self.end[p] = end + p * (w + 1)
            self.by_end[p] = by_end + p * w
            self.n_ended[p] = np.searchsorted(key[by_end], node[p], "right") + p * (w + 1)
        real = np.arange(w) < np.array([[len(nodes)] for nodes in rows])
        self.pads = np.flatnonzero(~real)
        self.pad_phase = self.pads // w
        self.node_at = 3 * node + np.arange(3)[:, None]  # each slot's entry in an (n, 3) array
        self.slot = np.full((n, 3), 3 * w)
        self.slot.reshape(-1)[self.node_at[real]] = np.flatnonzero(real)
        # Slot r's drop is its line's negated per-unit impedance row times the
        # line's three currents: row r of ``drop`` holds that row in current
        # phase order, at the currents' slots in the line currents seen flat
        # and followed by a zero.  The head and the pads have no line; their
        # rows hold three explicit zeros at that zero.
        fed = real.copy()
        fed[:, 0] = False
        cols = np.full((3, w, 3), 3 * w)
        cols[fed] = self.slot[node[fed]]
        neg_z = np.zeros((3, w, 3), dtype=complex)
        neg_z[fed] = feeder.line_z[topo.line_index[node[fed] - 1], np.nonzero(fed)[0]]
        neg_z /= feeder.base_kv**2 / feeder.base_mva
        self.drop = csr_array((np.negative(neg_z, out=neg_z).reshape(-1), cols.reshape(-1),
                               np.arange(0, 9 * w + 1, 3)), shape=(3 * w, 3 * w + 1))

    # The gathers below take mode="clip" because their indices are in range
    # by construction; the default mode copies ``out`` before writing it.
    # They and the sums are array methods, which skip the np.* wrappers.

    def subtree_sums(self, x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Sums of rows ``x`` over each subtree into ``out``; on a chain, as a
        loop from the tail."""
        work[:, -1] = 0.0
        x[:, ::-1].cumsum(1, out=work[:, -2::-1])  # suffix sums
        work.take(self.end, None, out, "clip")
        return np.subtract(work[:, :-1], out, out=out)

    def path_sums(self, b: np.ndarray, out: np.ndarray, work: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
        """Sums of rows ``b`` over each path from the head into ``out``: prefix
        sums less the terms whose subtree ended at or before the node.
        ``b`` is overwritten by its prefix sums."""
        work[:, 0] = 0.0
        b.take(self.by_end, None, scratch, "clip")
        scratch.cumsum(1, out=work[:, 1:])  # terms of ended subtrees
        b.cumsum(1, out=b)
        work.take(self.n_ended, None, out, "clip")
        return np.subtract(b, out, out=out)


def _compile_topology(feeder: Feeder) -> _Topology:
    line_from, line_to = feeder.line_from, feeder.line_to
    n_lines = len(line_from)
    # Each name's number, in order of first mention.
    names = list(dict.fromkeys(chain((feeder.head,), line_from, line_to)))
    ids = dict(zip(names, range(len(names))))
    n = len(names)
    # Line k's ends are half-edges 2k and 2k + 1.  A breadth-first walk finds
    # each node's parent; the lines are a tree when it reaches every node and
    # there is one line fewer than nodes.
    ends = np.empty(2 * n_lines, dtype=int)
    ends[0::2] = list(map(ids.__getitem__, line_from))
    ends[1::2] = list(map(ids.__getitem__, line_to))
    graph = _graph(ends, ends[np.arange(2 * n_lines) ^ 1], n)
    reached, pred = breadth_first_order(graph, 0, directed=True, return_predecessors=True)
    if len(reached) < n or n_lines > n - 1:
        raise _not_radial(feeder, ends, pred, names)

    # Depth-first numbering, children in line order, walks the tree in its
    # left-child, right-sibling form: from a node to its first child, then to
    # its next sibling, so no node has more than two edges to try.
    a, b = ends[0::2], ends[1::2]
    child = np.where(pred[b] == a, b, a)  # each line's end away from the head
    kids = child[np.argsort(pred[child], kind="stable")]  # siblings in line order
    up = pred[kids]
    eldest = np.ones(n_lines, dtype=bool)
    eldest[1:] = up[1:] != up[:-1]
    tree = _graph(np.concatenate([up[eldest], kids[:-1][~eldest[1:]]]),
                  np.concatenate([kids[eldest], kids[1:][~eldest[1:]]]), n)
    order = depth_first_order(tree, 0, directed=True, return_predecessors=False)

    number = np.empty(n, dtype=int)
    number[order] = np.arange(n)
    line_index = np.empty(n_lines, dtype=int)
    line_index[number[child] - 1] = np.arange(n_lines)
    parent = number[pred[order[1:]]]
    size = [1] * n
    parents = parent.tolist()
    for c in range(n - 1, 0, -1):  # children before parents
        size[parents[c - 1]] += size[c]

    node_order = tuple(map(names.__getitem__, order.tolist()))
    mask = np.ones((n, 3), dtype=bool)  # the head has every phase
    rows = np.array(list(map(_PHASE_ROW.__getitem__, feeder.line_phases)), dtype=int)
    mask[1:] = _PHASE_MASKS[rows[line_index]]
    return _Topology(
        node_order=node_order,
        node_index=dict(zip(node_order, range(n))),
        mask=mask,
        parent=parent,
        end=np.arange(n) + size,
        line_index=line_index,
    )


def _graph(src: np.ndarray, dst: np.ndarray, n: int) -> csr_array:
    """The n-node graph of edges ``src -> dst`` as a float64 CSR that keeps
    each node's edges in the given order.

    The CSR format does not require sorted indices, and SciPy's
    ``depth_first_order`` tries a node's edges in the order they are stored;
    the numbering relies on both, and
    ``test_nodes_are_numbered_depth_first_in_line_order`` checks it against
    an independent recursive walk."""
    first = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(src, minlength=n), out=first[1:])
    return csr_array((np.ones(len(src)), dst[np.argsort(src, kind="stable")], first),
                     shape=(n, n))


def _not_radial(feeder: Feeder, ends: np.ndarray, pred: np.ndarray, names) -> FeederProblem:
    """Why the lines with half-edge ends ``ends`` are not a tree that the
    walk with predecessors ``pred`` covered from the head: the first line,
    in file order, whose ends the lines before it already join, or, if no
    line closes a loop, the unreached nodes, named at the first line that
    has one."""
    root = list(range(len(names)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for k, (a, b) in enumerate(zip(ends[0::2].tolist(), ends[1::2].tolist())):
        a, b = find(a), find(b)
        if a == b:
            return FeederProblem(f"feeder is not radial: line {feeder.line_from[k]}-"
                                 f"{feeder.line_to[k]} closes a loop", "line", k)
        root[a] = b
    reached = pred >= 0
    reached[0] = True
    unreached = sorted(name for name, seen in zip(names, reached.tolist()) if not seen)
    return FeederProblem(f"nodes not reachable from head {feeder.head!r}: {unreached}",
                         "line", int(np.argmin(reached[ends[0::2]])), "from")


def _place_loads(feeder: Feeder, topo: _Topology) -> tuple[np.ndarray, list[FeederProblem]]:
    """Each load's node number (-1 at an unknown node) and the loads' violations."""
    at = np.array([topo.node_index.get(node, -1) for node in feeder.load_nodes], dtype=int)
    absent = feeder.load_phases & ~topo.mask[at] & (at >= 0)[:, None]
    problems: list[FeederProblem] = []
    for k in np.flatnonzero((at < 0) | absent.any(axis=1)).tolist():
        node = feeder.load_nodes[k]
        if at[k] < 0:
            problems.append(FeederProblem(f"load at unknown node {node!r}", "load", k, "node"))
        for ph, bad in zip("abc", absent[k]):
            if bad:
                problems.append(FeederProblem(f"load at {node}: phase {ph} not present there",
                                              "load", k, ph))
    return at, problems


def feeder_problems(feeder: Feeder) -> list[FeederProblem]:
    """Structural checks; each violation with the record it is in."""
    problems: list[FeederProblem] = []
    for label in ("base_kv", "base_mva"):
        base = getattr(feeder, label)
        if not 0 < base < np.inf:  # NaN fails too
            problems.append(FeederProblem(f"{label} must be finite and positive, got {base}",
                                          label))
    try:
        topo = feeder.topology()
    except FeederProblem as problem:
        return problems + [problem]

    # Numeric checks on the pad (zero on absent phases), in depth-first node order.
    z, k = feeder.line_z, topo.line_index
    line_mask = topo.mask[1:]
    zt = z.transpose(0, 2, 1)
    asym = (z != zt).any(axis=(1, 2))  # isclose only for the pads not exactly symmetric
    asym[asym] = ~np.isclose(z[asym], zt[asym]).all(axis=(1, 2))
    asym = asym[k]
    zero_self = (line_mask & (np.diagonal(z, axis1=1, axis2=2)[k] == 0)).any(axis=1)
    uncovered = (line_mask & ~topo.mask[topo.parent]).any(axis=1)
    for j in np.flatnonzero(asym | zero_self | uncovered).tolist():
        line = int(k[j])
        tag = f"line {feeder.line_from[line]}-{feeder.line_to[line]}"
        if asym[j]:
            problems.append(FeederProblem(f"{tag}: impedance matrix is not symmetric",
                                          "line", line))
        if zero_self[j]:
            problems.append(FeederProblem(f"{tag}: zero self-impedance on a present phase",
                                          "line", line))
        if uncovered[j]:
            problems.append(FeederProblem(f"{tag}: phases {feeder.line_phases[line]!r} not "
                                          f"all present on parent path", "line", line, "phases"))
    return problems + _place_loads(feeder, topo)[1]


@dataclass
class FeederSolution:
    node_order: tuple[str, ...]
    v: np.ndarray  # (n, 3) complex pu, absent phases +0.0
    i_line: np.ndarray  # (L, 3) complex pu, aligned with line_names
    s_head: np.ndarray  # (3,) complex MVA drawn at the head, per phase
    iterations: int
    mask: np.ndarray
    _feeder: Feeder = field(repr=False)

    def start_for(self, feeder: Feeder) -> np.ndarray | None:
        """These voltages as a sweep ``start`` for ``feeder``, or None unless
        they were solved on the same topology object."""
        return self.v if self._feeder.topology() is feeder.topology() else None

    @property
    def line_names(self) -> tuple[tuple[str, str], ...]:
        """Each line's (from, to) node names, parent first, in node order."""
        names = self.node_order
        return tuple(zip(map(names.__getitem__, self._feeder.topology().parent.tolist()),
                         names[1:]))

    def kcl_residuals(self) -> np.ndarray:
        """Per node/phase current balance at the reported state (pu)."""
        topo = self._feeder.topology()
        s_pu = _load_array(self._feeder)
        resid = -_load_currents(s_pu, self.v, topo.mask)
        np.subtract.at(resid, topo.parent, self.i_line)
        resid[1:] += self.i_line
        resid[0] = 0.0  # the head's balance is closed by the source
        return resid


def _load_array(feeder: Feeder) -> np.ndarray:
    """Per-node per-phase (n, 3) load in pu on the per-phase power base,
    gathered from the fold."""
    return _load_fold(feeder).take(feeder.sweep_plan().slot)


def _load_fold(feeder: Feeder) -> np.ndarray:
    """The load in pu on the per-phase power base as a sweep's rows seen flat,
    pads zero, then a zero; read-only.

    ``bincount`` adds each slot's terms in load order starting from zero, so
    every sum rounds as a loop over the loads would.  The last fold is kept,
    with the ``load_s`` array it was made from, beside the topology the
    feeder's value copies share, and is made again when ``load_s`` is
    another array: a value copy never reuses its parent's, and the rounds of
    a coupled step that sweep one copy fold once.
    """
    fold = feeder._shared.fold  # read once: another copy may replace it
    if fold is not None and fold[0] is feeder.load_s:
        return fold[1]
    plan = feeder.sweep_plan()
    terms = _divide(feeder.load_s, feeder.base_mva / 3.0).view(float).ravel()
    # Each term's slot in the rows seen as floats; a phase a load does not
    # name may be absent at its node, and its zero lands past the rows.
    slots = (2 * plan.slot[plan.load_at][..., None] + np.arange(2)).ravel()
    folded = np.bincount(slots, terms, minlength=6 * plan.width + 2).view(complex)
    folded[-1] = 0.0
    folded.flags.writeable = False
    feeder._shared.fold = (feeder.load_s, folded)
    return folded


def _divide(z: np.ndarray, x: float) -> np.ndarray:
    """``z / x`` rounded part by part, as Python's ``complex / float`` is.

    NumPy divides complex by real through a reciprocal, which can differ in
    the last bit.
    """
    return (np.ascontiguousarray(z).view(float) / x).view(complex)


def _load_currents(s_pu: np.ndarray, v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``conj(s_pu / v)`` on present phases, zero elsewhere, where ``v`` is zero.

    No voltage floor is tested: callers pass voltages that passed the
    collapse floor.
    """
    quot = np.divide(s_pu, v, out=np.zeros_like(s_pu), where=mask)
    return np.conjugate(quot, out=quot)


def sweep_solve(
    feeder: Feeder,
    head_v: np.ndarray | PhaseVoltages,
    tol: float = SWEEP_TOL,
    max_iter: int = SWEEP_MAX_ITER,
    start: np.ndarray | None = None,
) -> FeederSolution:
    """Backward/forward sweep power flow from a fixed head voltage.

    ``head_v`` is the (3,) complex per-unit head voltage, or a
    :class:`PhaseVoltages`.  The sweep starts from the head voltage at every
    node or, given ``start``, from a previous solution's (n, 3) voltages on
    this topology rescaled per phase by ``head / start[0]``.  It iterates on
    the feeder's per-phase rows (see ``_SweepPlan``), so an absent phase
    takes no work; a pad holds its row's head voltage, so it carries no
    current and its change and magnitude are the head's.  The change is
    taken over present phases.  A non-finite change raises
    :class:`ConvergenceError` at once.  The smallest present |V| is taken
    exactly only when a lower bound on it, the last exact minimum less each
    iteration's change since, does not clear ``COLLAPSE_FLOOR`` by
    ``COLLAPSE_MARGIN``; a sweep that falls below the floor raises
    :class:`VoltageCollapseError` at the same iteration as a check of every
    iteration would.  The rows are read into the (n, 3) and (L, 3) results
    once, with absent phases +0.0.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if isinstance(head_v, PhaseVoltages):
        head_v = head_v.as_array()
    head_arr = np.asarray(head_v, dtype=complex)
    if head_arr.shape != (3,):
        raise ValueError(f"head voltage has shape {head_arr.shape}, not (3,)")
    head_mag = np.abs(head_arr)
    if not (COLLAPSE_FLOOR < head_mag.min() and head_mag.max() < 1.5):  # NaN fails too
        raise ValueError(
            f"head voltage magnitudes {head_mag} outside the supported "
            f"({COLLAPSE_FLOOR}, 1.5) pu band"
        )
    topo = feeder.topology()
    plan = feeder.sweep_plan()
    if start is not None:
        start = np.asarray(start, dtype=complex)
        if start.shape != topo.mask.shape:
            raise ValueError(f"start has shape {start.shape}, the feeder {topo.mask.shape}")
        if not np.isfinite(start).all():
            raise ValueError("start has a voltage that is not finite")
        if not start[0].all():  # the head has every phase
            raise ValueError(f"start has a zero head voltage: {start[0]}")
    v_ext, acc_ext, s_head_pu, iterations = _sweep_rows(feeder, plan, head_arr, start,
                                                        tol, max_iter)
    return FeederSolution(
        node_order=topo.node_order,
        v=v_ext.take(plan.slot),
        i_line=acc_ext.take(plan.slot[1:]),
        s_head=s_head_pu * (feeder.base_mva / 3.0),
        iterations=iterations,
        mask=topo.mask,
        _feeder=feeder,
    )


def _sweep_rows(feeder: Feeder, plan: _SweepPlan, head_arr: np.ndarray,
                start: np.ndarray | None, tol: float, max_iter: int):
    """The iterations of :func:`sweep_solve` and its final pass, on rows: the
    voltages and line currents as rows seen flat, each followed by a zero,
    the per-unit head power and the iteration count."""
    s_rows = _load_fold(feeder)[:-1].reshape(3, plan.width)
    # Buffers reused by every iteration.  The rows of v, v_new and acc are
    # followed by a zero, an absent phase's value when the drop product reads
    # line currents and when the results are read.  Each iteration's b holds
    # the head voltage at b[:, 0] and, at b[p, r], minus the drop on the line
    # that feeds slot r.
    ext = np.zeros((3, s_rows.size + 1), dtype=complex)
    v_ext, new_ext, acc_ext = ext
    v, v_new, acc = (x[:-1].reshape(s_rows.shape) for x in ext)
    cur = np.empty_like(v)
    work = np.empty((3, plan.width + 1), dtype=complex)
    mag = np.empty(v.shape)
    pad_v = head_arr[plan.pad_phase]
    if start is None:
        v[:] = head_arr[:, None]
    else:  # a pad starts where the head does
        start.take(plan.node_at, None, v, "clip")
        np.multiply(v, (head_arr / start[0])[:, None], out=v)
    history: list[float] = []
    low = -np.inf  # a lower bound on the smallest present |v|
    for iterations in range(1, max_iter + 1):
        np.divide(s_rows, v, out=cur)
        plan.subtree_sums(np.conjugate(cur, out=cur), acc, work)
        b = (plan.drop @ acc_ext).reshape(v.shape)
        b[:, 0] = head_arr
        plan.path_sums(b, v_new, work, cur)
        v_new.put(plan.pads, pad_v, "clip")
        np.subtract(v_new, v, out=cur)
        delta = float(np.abs(cur, out=mag).max())
        history.append(delta)
        if not delta < np.inf:
            raise ConvergenceError(
                f"feeder {feeder.name!r} sweep change is not finite ({delta}) "
                f"at iteration {iterations}",
                history,
            )
        v, v_new, v_ext, new_ext = v_new, v, new_ext, v_ext
        # No entry moved by more than delta.
        low -= delta
        if not low > COLLAPSE_FLOOR + COLLAPSE_MARGIN:
            low = float(np.abs(v, out=mag).min())
            if low < COLLAPSE_FLOOR:
                raise VoltageCollapseError(
                    f"feeder {feeder.name!r}: voltage collapsed to {low!r} pu "
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
    np.divide(s_rows, v, out=cur)
    plan.subtree_sums(np.conjugate(cur, out=cur), acc, work)
    return v_ext, acc_ext, v[:, 0] * np.conj(acc[:, 0]), iterations


def aggregate_load(feeder: Feeder) -> PhasePowers:
    """Sum of all attached loads per phase (MVA); the decoupled-model proxy."""
    return PhasePowers.from_array(feeder.load_s.sum(axis=0))


def scale_loads(feeder: Feeder, multiplier: float) -> Feeder:
    """Uniformly scale every load; used to apply loadshape multipliers."""
    if not 0 <= multiplier < np.inf:  # NaN fails too
        raise ValueError(f"load multiplier must be finite and >= 0, got {multiplier}")
    return feeder._copy(feeder._shared, load_s=feeder.load_s * multiplier)


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
    return feeder._copy(feeder._shared, load_s=load_s)


TWO_PHASE_SETS = ("ab", "bc", "ac")
SINGLE_PHASES = ("a", "b", "c")
TARGET_DROP = 0.04  # the full-load voltage drop synth_feeder aims for, pu


def synth_feeder(
    nodes: int,
    total_p_mw: float,
    total_q_mvar: float,
    base_kv: float,
    base_mva: float = 100.0,
    phase_mix: tuple[float, float, float] = (0.6, 0.15, 0.25),
    seed: int = 0,
    name: str = "synthetic",
) -> Feeder:
    """Deterministic synthetic radial feeder with the requested aggregates.

    ``phase_mix`` splits the total demand over three-, two- and single-phase
    leaves; categories without leaves fold into the widest available one.
    Impedances are rescaled so the full-load head voltage drop lands between
    2.5 and 5.5 percent; a demand that six tries cannot bring into that band,
    such as a strongly leading one, raises ``ValueError``.  Node k is
    ``n<k>``, and line k - 1 feeds it.
    """
    if nodes < 2:
        raise ValueError("a feeder needs at least two nodes")
    for label, base in (("base_kv", base_kv), ("base_mva", base_mva)):
        if not 0 < base < np.inf:  # NaN fails too
            raise ValueError(f"{label} must be finite and positive, got {base}")
    total = complex(total_p_mw, total_q_mvar)
    if not np.isfinite(total):
        raise ValueError(
            f"total demand must be finite, got {total_p_mw} MW and {total_q_mvar} MVAr"
        )
    if total.real <= 0:
        raise ValueError("total active demand must be positive")
    mix = np.asarray(phase_mix, dtype=float)
    if mix.shape != (3,):
        raise ValueError(f"phase mix needs three fractions, got {list(phase_mix)}")
    if np.any(mix < 0) or mix.sum() <= 0:
        raise ValueError("phase mix fractions must be non-negative, not all zero")
    mix = mix / mix.sum()

    rng = np.random.default_rng(seed)
    n_other = nodes - 1
    backbone_len = min(30, max(1, n_other // 4 if n_other >= 4 else n_other))

    names = ["head"] + [f"n{i}" for i in range(1, nodes)]
    line_from: list[str] = []  # line k runs to names[k + 1]
    line_phases: list[str] = []
    z_self: list[complex] = []

    # Ohm scale chosen so the trunk drop at full load starts near the target
    # band; the calibration loop below trims the remainder.
    trunk_ohm = TARGET_DROP * base_kv**2 / abs(total) / backbone_len

    def draw_z(scale: float) -> complex:
        """A line's self-impedance; its mutual impedances are a quarter of it."""
        return trunk_ohm * (0.45 + 0.9j) * scale * rng.uniform(0.5, 1.5)

    def grow(parent: str, phases: str, zs: list[complex]) -> str:
        """A chain of new nodes from ``parent``, one line per impedance; its leaf."""
        for z in zs:
            line_from.append(parent)
            line_phases.append(phases)
            z_self.append(z)
            parent = names[len(line_from)]
        return parent

    grow("head", "abc", [draw_z(1.0) for _ in range(backbone_len)])
    backbone = names[:backbone_len + 1]

    # Laterals hang off random backbone nodes.  Single- and two-phase
    # laterals are generated as phase-rotated triples sharing one impedance
    # draw, so the feeder's response at alpha = 0 is exactly balanced even
    # though individual customers are not three-phase (Table-1 behaviour:
    # near-identical phase voltages before unbalance is applied).
    leaf_groups: list[tuple[int, list[str]]] = []  # (category, leaf of each chain)
    while len(line_from) < n_other:
        anchor = backbone[int(rng.integers(0, len(backbone)))]
        cat = int(rng.choice(3, p=[0.5, 0.2, 0.3]))
        chain_len = int(rng.integers(1, 4))
        left = n_other - len(line_from)
        if cat != 0 and 3 * chain_len > left:
            cat = 0  # no room for a symmetric triple; fall back to three-phase
        if cat == 0:
            leaves = [grow(anchor, "abc", [draw_z(2.0) for _ in range(min(chain_len, left))])]
        else:
            z_draws = [draw_z(2.0) for _ in range(chain_len)]
            leaves = [grow(anchor, phases, z_draws)
                      for phases in (TWO_PHASE_SETS if cat == 1 else SINGLE_PHASES)]
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

    node_phases = dict(zip(names, ["abc"] + line_phases))
    load_nodes: list[str] = []
    load_rows: list[list[complex]] = []
    for cat, groups in by_cat.items():
        if not groups or shares[cat] == 0:
            continue
        w = rng.uniform(0.5, 1.5, size=len(groups))
        w = w / w.sum()
        for leaves, wi in zip(groups, w):
            s_group = shares[cat] * wi
            for leaf in leaves:
                phases = node_phases[leaf]
                s_leaf = s_group / len(leaves)
                load_nodes.append(leaf)
                load_rows.append([s_leaf / len(phases) if ph in phases else 0j for ph in "abc"])
    load_phases = _PHASE_MASKS[[_PHASE_ROW[node_phases[node]] for node in load_nodes]]
    load_s = np.array(load_rows, dtype=complex)

    # Close the floating-point gap so aggregates equal the spec exactly.  The
    # sums run over NumPy scalars, so the residual divides as NumPy does.
    widest = int(np.argmax(load_phases.sum(axis=1)))
    named = load_phases[widest]
    for _ in range(3):
        residual = total - sum(map(sum, load_s))
        if residual == 0:
            break
        load_s[widest, named] += residual / int(named.sum())

    on = _PHASE_MASKS[[_PHASE_ROW[ps] for ps in line_phases]]
    z = np.array(z_self, dtype=complex)
    line_z = np.where(on[:, :, None] & on[:, None, :], (0.25 * z)[:, None, None], 0j)
    line_z[:, [0, 1, 2], [0, 1, 2]] = np.where(on, z[:, None], 0j)
    feeder = Feeder.from_arrays(base_kv, base_mva, "head", tuple(line_from), tuple(names[1:]),
                                tuple(line_phases), line_z, tuple(load_nodes), load_phases,
                                load_s, name)

    # Rescale impedances so the full-load drop hits the target band.
    for _ in range(6):
        try:
            sol = sweep_solve(feeder, PhaseVoltages.balanced(1.0), tol=1e-8, max_iter=200)
        except ConvergenceError:
            factor = 0.25  # overshot badly; soften and retry
        else:
            drop = 1.0 - float(np.min(np.abs(sol.v[sol.mask])))
            if 0.025 <= drop <= 0.055:
                return feeder
            factor = TARGET_DROP / max(drop, 1e-9)
        feeder = feeder._copy(_Shared(feeder.topology()), line_z=feeder.line_z * factor)
    raise ValueError(
        f"cannot calibrate a feeder for {total_p_mw} MW and {total_q_mvar} MVAr: "
        f"no full-load voltage drop in 2.5-5.5 % after 6 tries"
    )
