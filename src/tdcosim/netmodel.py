"""Transmission network domain types and validation.

A case carries its powers (loads, generator limits and setpoints) in
MW/MVAr, as the case files state them; the transmission solve reads them
into per-unit arrays once per solve.  Branch impedances are per-unit on the
system MVA base.  Generator cost coefficients are on a $/MWh basis.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


class ZeroSeqPath(enum.Enum):
    """Transformer winding effect on the zero-sequence network.

    THROUGH stamps the branch normally; OPEN contributes nothing (both ends
    isolated); GROUNDED stamps ``1/z0`` as a shunt at the *to* bus only,
    modelling a delta / wye-grounded unit with the wye on the *to* side.
    """

    OPEN = "open"
    GROUNDED = "grounded"
    THROUGH = "through"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    base_kv: float
    v_setpoint: float | None = None  # pu, PV and slack
    angle_setpoint: float | None = None  # rad, slack only


@dataclass(frozen=True, eq=False)
class Branch:
    from_bus: int
    to_bus: int
    z1: complex
    z2: complex | None = None  # defaults to z1
    z0: complex | None = None  # defaults to z1
    b1_shunt: float = 0.0  # total line charging, pu
    b0_shunt: float = 0.0
    tap: float = 1.0  # off-nominal ratio at the from bus, positive
    zero_seq_path: ZeroSeqPath = ZeroSeqPath.THROUGH
    coupling: np.ndarray | None = None  # 3x3 off-diagonal sequence Z block of an untransposed line

    @property
    def z2_eff(self) -> complex:
        return self.z1 if self.z2 is None else self.z2

    @property
    def z0_eff(self) -> complex:
        return self.z1 if self.z0 is None else self.z0


@dataclass(frozen=True)
class CostCurve:
    """Quadratic production cost a*P^2 + b*P + c with P in MW."""

    a: float  # $/MW^2 h
    b: float  # $/MWh
    c: float  # $/h


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost: CostCurve
    p_set: float = 0.0
    q_set: float = 0.0


@dataclass(frozen=True)
class LoadAttachment:
    """Either a lumped PQ load or a feeder binding that makes the bus a PCC."""

    bus: int
    p: float = 0.0
    q: float = 0.0
    feeder_id: str | None = None
    loadshape_id: str | None = None

    @property
    def is_feeder(self) -> bool:
        return self.feeder_id is not None


@dataclass(frozen=True)
class TransmissionCase:
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[LoadAttachment, ...]
    # The sequence network of ``buses`` and ``branches``, held by
    # ``tsolve.build_sequence_ybus``; ``replace`` copies share the holder.
    _network: list = field(default_factory=list, compare=False, repr=False)

    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]

    def pcc_buses(self) -> list[int]:
        return [ld.bus for ld in self.loads if ld.is_feeder]


def validate_case(case: TransmissionCase) -> list[str]:
    """Check every structural invariant; violations are returned, not raised."""
    violations = network_violations(case.buses, case.branches)
    id_set = set(case.bus_ids())
    if not 0 < case.base_mva < np.inf:  # NaN fails too
        violations.append(f"base_mva must be finite and positive, got {case.base_mva}")

    gen_buses = {g.bus for g in case.generators}
    for b in case.buses:
        if b.kind is BusKind.PV and b.id not in gen_buses:
            # nothing would limit the Q that holds its voltage
            violations.append(f"bus {b.id}: pv bus has no generator")

    for g in case.generators:
        if g.bus not in id_set:
            violations.append(f"generator at nonexistent bus {g.bus}")
        if not (g.p_min <= g.p_set <= g.p_max):
            violations.append(
                f"generator at bus {g.bus}: p_set {g.p_set} outside "
                f"[{g.p_min}, {g.p_max}]"
            )
        if g.q_min > g.q_max:
            violations.append(
                f"generator at bus {g.bus}: q_min {g.q_min} above q_max {g.q_max}"
            )
        if g.cost.a < 0:
            violations.append(f"generator at bus {g.bus}: cost a must be >= 0")

    feeder_buses: list[int] = []
    for ld in case.loads:
        if ld.bus not in id_set:
            violations.append(f"load at nonexistent bus {ld.bus}")
        if ld.is_feeder:
            feeder_buses.append(ld.bus)
    dupes = sorted({b for b in feeder_buses if feeder_buses.count(b) > 1})
    if dupes:
        violations.append(f"more than one feeder attached at buses {dupes}")
    return violations


def network_violations(buses, branches) -> list[str]:
    """The bus, branch and connectivity checks that building a Y-bus relies on."""
    violations: list[str] = []
    ids = [b.id for b in buses]
    id_set = set(ids)
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(f"duplicate bus ids: {dupes}")

    slacks = [b.id for b in buses if b.kind is BusKind.SLACK]
    if len(slacks) != 1:
        violations.append(f"expected exactly one slack bus, found {slacks}")

    for b in buses:  # NaN fails each test
        if not 0 < b.base_kv < np.inf:
            violations.append(f"bus {b.id}: base_kv must be finite and positive, got {b.base_kv}")
        if b.kind in (BusKind.PV, BusKind.SLACK):
            if b.v_setpoint is None or not 0 < b.v_setpoint < np.inf:
                violations.append(f"bus {b.id}: {b.kind.value} bus needs a finite "
                                  f"v_setpoint > 0, got {b.v_setpoint}")
        if b.kind is BusKind.SLACK and (b.angle_setpoint is None
                                        or not -np.inf < b.angle_setpoint < np.inf):
            violations.append(f"bus {b.id}: slack bus needs a finite angle_setpoint, "
                              f"got {b.angle_setpoint}")

    adj: dict[int, list[int]] = {i: [] for i in id_set}
    for br in branches:
        tag = f"branch {br.from_bus}-{br.to_bus}"
        if br.from_bus == br.to_bus:
            violations.append(f"{tag}: from and to bus coincide")
        for end in (br.from_bus, br.to_bus):
            if end not in id_set:
                violations.append(f"{tag}: references nonexistent bus {end}")
        for name, z in (("z1", br.z1), ("z2", br.z2_eff), ("z0", br.z0_eff)):
            if abs(z) == 0.0:
                violations.append(f"{tag}: |{name}| must be nonzero")
        if not br.tap > 0:
            violations.append(f"{tag}: tap must be positive, got {br.tap}")
        if br.coupling is not None and np.asarray(br.coupling).shape != (3, 3):
            violations.append(f"{tag}: coupling block must be 3x3")
        if br.from_bus in id_set and br.to_bus in id_set:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)

    seen, stack = set(ids[:1]), ids[:1]
    while stack:
        reached = set(adj[stack.pop()]) - seen
        seen |= reached
        stack += reached
    if seen != id_set:
        violations.append("network graph is not connected")
    return violations


def with_dispatch(case: TransmissionCase, p_set_mw) -> TransmissionCase:
    """Return a copy with generator active-power setpoints replaced.

    ``p_set_mw`` is a sequence of MW setpoints aligned with ``case.generators``.
    """
    if len(p_set_mw) != len(case.generators):
        raise ValueError("one setpoint per generator required")
    gens = tuple(
        replace(g, p_set=p) for g, p in zip(case.generators, p_set_mw)
    )
    return replace(case, generators=gens)
