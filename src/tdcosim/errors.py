"""Exception types shared across the package."""
from __future__ import annotations


class TdcosimError(Exception):
    """Base class for all package errors."""


class DegenerateVoltageError(TdcosimError):
    """A power-to-current conversion hit a voltage below the safe floor."""

    def __init__(self, phase: str, magnitude: float):
        self.phase = phase
        self.magnitude = magnitude
        super().__init__(
            f"voltage magnitude {magnitude:.3e} pu on phase {phase} is below the "
            f"conversion floor; cannot form load current"
        )


class ConvergenceError(TdcosimError):
    """An iterative solve exhausted its iteration budget.

    ``history`` holds the per-iteration mismatch (or voltage-change) values so
    divergence can be diagnosed after the fact.
    """

    def __init__(self, message: str, history: list[float] | None = None):
        self.history = list(history) if history is not None else []
        super().__init__(message)


class SingularNetworkError(TdcosimError):
    """A sequence network has no solvable path for the requested injection."""


class VoltageCollapseError(ConvergenceError):
    """A feeder sweep drove some node voltage below the collapse threshold.

    A numerical failure like running out of iterations: it carries the
    sweep's voltage-change history.
    """


class ParseError(TdcosimError):
    """Input text could not be parsed; carries a 1-based source location."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class DispatchError(TdcosimError):
    """Economic dispatch demand is infeasible for the given generator set."""

    def __init__(self, demand: float, p_min_total: float, p_max_total: float):
        self.demand = demand
        self.feasible_range = (p_min_total, p_max_total)
        super().__init__(
            f"demand {demand:.3f} MW outside feasible range "
            f"[{p_min_total:.3f}, {p_max_total:.3f}] MW"
        )
