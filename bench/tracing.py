"""Per-layer spans for the traced benchmark run.

Wrappers are installed from the benchmark on the module attributes through
which callers reach each layer (``tsolve.*``, ``dsolve.*``, ``ed.dispatch``,
``cosim.*``, ``io.*``), so no program file changes.  Names bound with
``from ... import`` (``to_per_unit``, ``sequence_to_phase``) cannot be
intercepted: ``netmodel`` and ``seqxform`` time counts as their callers'
self time.

A span's self time is its duration minus the union of its children's
intervals.  Children are found by time containment: within one thread,
spans nest like the call stack; a span from a pool thread belongs to the
innermost main-thread span that contains it, because the main thread waits
inside that call while the pool works.
"""
from __future__ import annotations

import bisect
import functools
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tdcosim import cli, cosim, dsolve, ed, io, tsolve


def _size(path) -> int:
    return Path(path).stat().st_size


def _sizes(paths) -> int:
    return sum(_size(p) for p in paths)


# (span name, owner, attribute, count taken from (args, result) or None)
WRAPPED = (
    ("tsolve.ybus_build", tsolve, "build_sequence_ybus", None),
    ("tsolve.three_seq", tsolve, "solve_three_sequence", lambda a, r: r.passes),
    ("tsolve.nr", tsolve, "nr_positive_sequence", lambda a, r: r.iterations),
    ("tsolve.neg_solve", tsolve, "solve_negative", None),
    ("tsolve.zero_solve", tsolve, "solve_zero", None),
    ("dsolve.sweep", dsolve, "sweep_solve", lambda a, r: r.iterations),
    ("dsolve.load_prep", dsolve, "scale_loads", None),
    ("dsolve.load_prep", dsolve, "apply_unbalance", None),
    ("dsolve.load_prep", dsolve, "aggregate_load", None),
    ("dsolve.topology", dsolve.Feeder, "topology", None),
    ("ed.dispatch", ed, "dispatch", None),
    ("cosim", cosim, "run_timeseries", None),
    ("cosim", cosim, "run_decoupled_baseline", None),
    ("cosim", cosim, "sweep_unbalance", None),
    ("cosim.couple_step", cosim, "couple_step", lambda a, r: r[1].overall_iterations),
    ("io.parse", io, "load_case", lambda a, r: _size(a[0])),
    ("io.parse", io, "load_feeder", lambda a, r: _size(a[0])),
    ("io.parse", io, "load_loadshape", lambda a, r: _size(a[0])),
    ("io.write", io, "write_results", lambda a, r: _sizes(r)),
    ("io.write", io, "write_convergence_table", lambda a, r: _size(r)),
    ("io.write", cli, "_write_comparison", lambda a, r: _size(Path(a[2]) / "pcc_compare.csv")),
)

_COMMON = {
    "tsolve.build_sequence_ybus", "tsolve.solve_three_sequence",
    "tsolve.nr_positive_sequence", "tsolve.solve_negative", "tsolve.solve_zero",
    "dsolve.sweep_solve", "dsolve.aggregate_load", "Feeder.topology", "ed.dispatch",
    "cosim.couple_step", "io.load_case", "io.load_feeder",
}
# Wrapped functions each workload must reach (the coverage check).
EXPECTED = {
    "day": _COMMON | {
        "dsolve.scale_loads", "cosim.run_timeseries", "cosim.run_decoupled_baseline",
        "io.load_loadshape", "io.write_results", "cli._write_comparison",
    },
    "wide": _COMMON | {
        "dsolve.apply_unbalance", "cosim.sweep_unbalance", "io.write_convergence_table",
    },
    "deep": _COMMON | {"io.write_results"},
}


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', '').rpartition('.')[2]}.{attr}"


@dataclass
class Span:
    name: str
    label: str
    start: float
    end: float
    thread: int
    count: float = 0.0
    parent: "Span | None" = field(default=None, repr=False)
    children: list = field(default_factory=list, repr=False)

    @property
    def dur(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Install span-recording wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.main_thread = threading.main_thread().ident
        self._saved = []

    def _wrap(self, name, label, fn, count):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span = Span(name, label, start, end, threading.get_ident())
                spans.append(span)
            if count is not None:
                span.count = count(args, result)
            return result

        return wrapper

    def __enter__(self):
        for name, owner, attr, count in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, _label(owner, attr), fn, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def calls(self) -> dict[str, int]:
        out = {_label(owner, attr): 0 for _, owner, attr, _ in WRAPPED}
        for s in self.spans:
            out[s.label] += 1
        return out


def link(spans: list[Span], main_thread: int) -> None:
    """Set each span's parent and children by time containment."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    stacks: dict[int, list[Span]] = {}
    for s in ordered:
        stack = stacks.setdefault(s.thread, [])
        while stack and stack[-1].end < s.end:
            stack.pop()
        if stack:
            s.parent = stack[-1]
        stack.append(s)
    main = [s for s in ordered if s.thread == main_thread]
    main_starts = [s.start for s in main]
    for s in ordered:
        if s.parent is not None or s.thread == main_thread:
            continue
        i = bisect.bisect_right(main_starts, s.start) - 1
        cand = main[i] if i >= 0 else None
        while cand is not None and cand.end < s.end:
            cand = cand.parent
        s.parent = cand
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)


def self_time(span: Span) -> float:
    return span.dur - union_length((c.start, c.end) for c in span.children)


def sweep_rounds(spans: list[Span]) -> list[list[Span]]:
    """Group sweep spans by coupling round.

    Round k of a ``couple_step`` runs from the end of its k-th
    ``solve_three_sequence`` to the start of the next one.
    """
    rounds = []
    for step in spans:
        if step.name != "cosim.couple_step":
            continue
        bounds = sorted(c.end for c in step.children if c.name == "tsolve.three_seq")
        groups: dict[int, list[Span]] = {}
        for c in step.children:
            if c.name == "dsolve.sweep":
                groups.setdefault(bisect.bisect_right(bounds, c.start), []).append(c)
        rounds.extend(groups[k] for k in sorted(groups))
    return rounds


@dataclass
class LayerReport:
    metrics: dict[str, float]
    shares: dict[str, float]  # layer self time over traced wall
    problems: list[str]


def report(tracer: Tracer, workload: str, windows: list[tuple[float, float]],
           untraced_walls: list[float]) -> LayerReport:
    """Per-layer metrics over all recorded spans, checks over the timed windows.

    ``windows`` are the traced passes; ``untraced_walls`` the same work
    timed without wrappers, pass for pass.
    """
    spans = tracer.spans
    link(spans, tracer.main_thread)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.dur for s in by_name.get(name, ()))

    def n(name):
        return len(by_name.get(name, ()))

    def counted(name):
        return sum(s.count for s in by_name.get(name, ()))

    rounds = sweep_rounds(spans)
    round_wall = sum(max(s.end for s in r) - min(s.start for s in r) for r in rounds)
    steps = n("cosim.couple_step")
    cosim_spans = by_name.get("cosim", []) + by_name.get("cosim.couple_step", [])
    walls = [t1 - t0 for t0, t1 in windows]
    wall = sum(walls)
    m = {
        "tsolve.ybus_build.calls": n("tsolve.ybus_build"),
        "tsolve.ybus_build.s": busy("tsolve.ybus_build"),
        "tsolve.three_seq.calls": n("tsolve.three_seq"),
        "tsolve.three_seq.self_s": sum(self_time(s) for s in by_name.get("tsolve.three_seq", ())),
        "tsolve.three_seq.passes": counted("tsolve.three_seq"),
        "tsolve.nr.calls": n("tsolve.nr"),
        "tsolve.nr.s": busy("tsolve.nr"),
        "tsolve.nr.iterations": counted("tsolve.nr"),
        "tsolve.neg_solve.calls": n("tsolve.neg_solve"),
        "tsolve.neg_solve.s": busy("tsolve.neg_solve"),
        "tsolve.zero_solve.calls": n("tsolve.zero_solve"),
        "tsolve.zero_solve.s": busy("tsolve.zero_solve"),
        "dsolve.sweep.calls": n("dsolve.sweep"),
        "dsolve.sweep.busy_s": busy("dsolve.sweep"),
        "dsolve.sweep.iterations": counted("dsolve.sweep"),
        "dsolve.sweep.round_wall_s": round_wall,
        "dsolve.sweep.concurrency": busy("dsolve.sweep") / round_wall if round_wall else 0.0,
        "dsolve.load_prep.s": busy("dsolve.load_prep"),
        "dsolve.topology.s": busy("dsolve.topology"),
        "ed.dispatch.calls": n("ed.dispatch"),
        "ed.dispatch.s": busy("ed.dispatch"),
        "cosim.steps": steps,
        "cosim.rounds": counted("cosim.couple_step"),
        "cosim.rounds_per_step": counted("cosim.couple_step") / steps if steps else 0.0,
        "cosim.self_s": sum(self_time(s) for s in cosim_spans),
        "io.parse.s": busy("io.parse"),
        "io.parse.bytes": counted("io.parse"),
        "io.write.s": busy("io.write"),
        "io.write.bytes": counted("io.write"),
        "trace.overhead_ratio": statistics.median(
            t / u for t, u in zip(walls, untraced_walls)
        ),
    }

    problems = []
    calls = tracer.calls()
    for label in sorted(EXPECTED[workload]):
        if calls[label] == 0:
            problems.append(f"coverage: {label} recorded no calls on {workload}")

    # Consistency over each traced pass: the self times of its spans plus the
    # time no span covers equal its wall, once the part of concurrent sweeps
    # that ran in parallel (busy minus round wall) is taken out.
    shares: dict[str, float] = {}
    for t0, t1 in windows:
        inside = [s for s in spans if s.start >= t0 and s.end <= t1]
        self_sum = sum(self_time(s) for s in inside)
        uncovered = (t1 - t0) - union_length((s.start, s.end) for s in inside)
        parallel = sum(
            sum(s.dur for s in r) - union_length((s.start, s.end) for s in r)
            for r in rounds if t0 <= r[0].start < t1
        )
        gap = self_sum - parallel + uncovered - (t1 - t0)
        if abs(gap) > 1e-9 * (len(inside) + 1):
            problems.append(f"consistency: self times + remainder - wall = {gap:.3e} s")
        shares["untraced remainder"] = shares.get("untraced remainder", 0.0) + uncovered / wall
        for s in inside:
            layer = s.name if s.name == "dsolve.sweep" else s.name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + self_time(s) / wall
    return LayerReport(m, shares, problems)
