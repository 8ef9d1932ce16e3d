"""Equal-incremental-cost economic dispatch with capacity limits.

Generators carry costs ``a*P^2 + b*P + c``; ``a = 0`` is a linear unit.  A
quadratic unit leaves ``p_min`` at the marginal cost ``b + 2*a*p_min`` and
reaches ``p_max`` at ``b + 2*a*p_max``; a linear unit jumps between the two
at ``b``.  Between these knots the fleet's output is linear in the system
lambda, so the dispatch is exact: at the first knot whose output reaches the
demand, either the linear units priced there cover it, filled in generator
order, or the quadratic units share the stretch below it in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DispatchError

BALANCE_TOL = 1e-6  # MW


@dataclass(frozen=True)
class DispatchResult:
    p_set: tuple[float, ...]  # MW, aligned with the generator sequence
    lam: float  # $/MWh system marginal cost
    binding: frozenset[int]  # generator indices at a limit


def dispatch(generators, demand_mw: float) -> DispatchResult:
    """Allocate ``demand_mw`` over the generators at minimum total cost.

    Raises :class:`DispatchError` when the demand falls outside the fleet's
    capacity range.  The returned outputs sum to the demand within
    ``BALANCE_TOL``; losses are left for the slack bus at power-flow time.
    Linear units priced alike are filled in generator order.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("cannot dispatch an empty generator set")
    p_min_total = sum(g.p_min for g in gens)
    p_max_total = sum(g.p_max for g in gens)
    if not (p_min_total - BALANCE_TOL <= demand_mw <= p_max_total + BALANCE_TOL):
        raise DispatchError(demand_mw, p_min_total, p_max_total)
    demand = min(max(demand_mw, p_min_total), p_max_total)

    knots = [(g.cost.b + 2.0 * g.cost.a * g.p_min, g.cost.b + 2.0 * g.cost.a * g.p_max)
             for g in gens]
    below = None  # the knot before lam
    for lam in sorted({k for pair in knots for k in pair}):
        # The upper total at lam: linear units priced at lam run at p_max.
        p = [
            g.p_max if hi <= lam else g.p_min if lo >= lam else (lam - g.cost.b) / (2.0 * g.cost.a)
            for g, (lo, hi) in zip(gens, knots)
        ]
        if sum(p) >= demand:
            break
        below = lam
    step = [i for i, (lo, hi) in enumerate(knots) if lo == hi == lam]
    for i in step:
        p[i] = gens[i].p_min
    residual = demand - sum(p)
    if residual >= 0.0:
        # The demand falls inside the step of the units priced at lam.
        for i in step:
            p[i] = min(gens[i].p_max, gens[i].p_min + residual)
            residual -= p[i] - gens[i].p_min
    else:
        # The demand lies on the linear stretch (below, lam), which the
        # quadratic units whose knots enclose it share at one lambda.
        inside = [i for i, (lo, hi) in enumerate(knots) if lo <= below and hi >= lam]
        fixed = sum(x for i, x in enumerate(p) if i not in inside)
        w = [0.5 / gens[i].cost.a for i in inside]  # dP/dlambda of each
        lam = (demand - fixed + sum(wi * gens[i].cost.b for wi, i in zip(w, inside))) / sum(w)
        for i, wi in zip(inside, w):
            p[i] = min(max(wi * (lam - gens[i].cost.b), gens[i].p_min), gens[i].p_max)

    binding = frozenset(i for i, g in enumerate(gens) if not g.p_min + 1e-9 < p[i] < g.p_max - 1e-9)
    return DispatchResult(p_set=tuple(map(float, p)), lam=float(lam), binding=binding)
