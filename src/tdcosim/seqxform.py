"""Symmetrical-component algebra shared by every solver in the package.

Conventions (fixed project-wide):

* Transform matrix ``A`` has an all-ones first column (zero sequence) and
  ``a = exp(j*2*pi/3)``; ``v_abc = A @ v_012`` and ``v_012 = A^-1 @ v_abc``
  with the ``1/3`` factor on the inverse.  The same matrix is applied to
  voltages and currents, so total phase power equals
  ``3 * sum_s v_s * conj(i_s)``.
* Per-unit phase quantities use a line-to-neutral voltage base and a
  per-phase power base of one third of the system MVA base.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVoltageError

ALPHA = cmath.exp(2j * cmath.pi / 3)

# v_abc = FORTESCUE @ (v0, v1, v2)
FORTESCUE = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, ALPHA**2, ALPHA],
        [1.0, ALPHA, ALPHA**2],
    ],
    dtype=complex,
)
FORTESCUE_INV = (
    np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, ALPHA, ALPHA**2],
            [1.0, ALPHA**2, ALPHA],
        ],
        dtype=complex,
    )
    / 3.0
)

# Guard for power -> current division in degenerate states (pu).
VOLTAGE_FLOOR = 1e-6

PHASES = "abc"


@dataclass(frozen=True)
class PhaseVoltages:
    """Complex per-unit voltages in the a/b/c frame."""

    va: complex
    vb: complex
    vc: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.va, self.vb, self.vc], dtype=complex)

    @classmethod
    def from_array(cls, v: np.ndarray) -> "PhaseVoltages":
        return cls(complex(v[0]), complex(v[1]), complex(v[2]))

    @classmethod
    def balanced(cls, magnitude: float = 1.0, angle: float = 0.0) -> "PhaseVoltages":
        """Positive-sequence balanced set at the given magnitude/angle."""
        va = magnitude * cmath.exp(1j * angle)
        return cls(va, va * ALPHA**2, va * ALPHA)


@dataclass(frozen=True)
class PhasePowers:
    """Complex power per phase (P + jQ); MVA at module boundaries, per-unit
    inside the solvers — callers keep track of which frame they are in."""

    sa: complex
    sb: complex
    sc: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.sa, self.sb, self.sc], dtype=complex)

    @classmethod
    def from_array(cls, s: np.ndarray) -> "PhasePowers":
        return cls(complex(s[0]), complex(s[1]), complex(s[2]))

    def total(self) -> complex:
        return self.sa + self.sb + self.sc


def phase_currents_from_power(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-phase load currents ``i_p = conj(s_p / v_p)``.

    ``s`` and ``v`` are (..., 3) per-phase arrays in one per-unit frame.
    Raises :class:`DegenerateVoltageError` if any phase voltage magnitude is
    below :data:`VOLTAGE_FLOOR`.
    """
    mags = np.abs(v)
    if np.count_nonzero(mags < VOLTAGE_FLOOR):
        low = np.argwhere(mags < VOLTAGE_FLOOR)[0]
        raise DegenerateVoltageError(PHASES[low[-1]], float(mags[tuple(low)]))
    return np.conj(s / v)
