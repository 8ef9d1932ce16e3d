import sys
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tdcosim import dsolve, io
from tdcosim.dsolve import Feeder, FeederLine, PhaseLoad
from tdcosim.netmodel import LoadAttachment

DATA = files("tdcosim") / "data"


@pytest.fixture(scope="session")
def data_dir():
    return Path(str(DATA))


@pytest.fixture(scope="session")
def case9_doc():
    return io.parse_case((DATA / "case9.td").read_text())


@pytest.fixture(scope="session")
def case9(case9_doc):
    return case9_doc.case


@pytest.fixture(scope="session")
def ckt_feeder():
    return io.parse_feeder((DATA / "ckt24_synth.td").read_text())


def _as_pcc(case, buses):
    loads = []
    for ld in case.loads:
        if ld.bus in buses:
            loads.append(
                LoadAttachment(
                    ld.bus, feeder_id=f"ckt24_{ld.bus}", loadshape_id=ld.loadshape_id
                )
            )
        else:
            loads.append(ld)
    return replace(case, loads=tuple(loads))


@pytest.fixture(scope="session")
def system1(case9):
    """9-bus with the bus-6 load replaced by a feeder attachment."""
    return _as_pcc(case9, {6})


@pytest.fixture(scope="session")
def system2(case9):
    """9-bus with feeders replacing all three load points."""
    return _as_pcc(case9, {5, 6, 8})


@pytest.fixture(scope="session")
def feeders3():
    """One synthetic Ckt-24 stand-in per load bus (deterministic seeds)."""
    return {
        bus: dsolve.synth_feeder(
            nodes=240,
            total_p_mw=52.1,
            total_q_mvar=11.7,
            base_kv=34.5,
            seed=seed,
            name=f"ckt24_{bus}",
        )
        for bus, seed in ((5, 5), (6, 24), (8, 8))
    }


@pytest.fixture(scope="session")
def day_shape():
    return io.parse_loadshape((DATA / "loadshape_day.csv").read_text(), "day")


@pytest.fixture(scope="session")
def flat_shape():
    return io.parse_loadshape((DATA / "loadshape_flat.csv").read_text(), "day")


def _z3(self_z, mutual):
    z = np.full((3, 3), mutual, dtype=complex)
    np.fill_diagonal(z, self_z)
    return z


def make_small_feeders():
    """Hand-built feeders with at most 10 nodes, used against the dense oracle."""
    feeders = []

    feeders.append(
        Feeder(
            12.47, 100.0, "head",
            (FeederLine("head", "n1", "abc", _z3(0.5 + 1.0j, 0.12 + 0.3j)),),
            (PhaseLoad("n1", {"a": 1.0 + 0.2j, "b": 1.0 + 0.2j, "c": 1.0 + 0.2j}),),
            name="two_node_balanced",
        )
    )

    feeders.append(
        Feeder(
            12.47, 100.0, "head",
            (
                FeederLine("head", "n1", "abc", _z3(0.4 + 0.9j, 0.1 + 0.25j)),
                FeederLine("n1", "n2", "abc", _z3(0.6 + 1.1j, 0.15 + 0.3j)),
                FeederLine("n1", "n3", "abc", _z3(0.5 + 0.8j, 0.1 + 0.2j)),
            ),
            (
                PhaseLoad("n2", {"a": 1.4 + 0.4j, "b": 0.8 + 0.1j, "c": 1.1 + 0.3j}),
                PhaseLoad("n3", {"a": 0.4 + 0.1j, "b": 0.9 + 0.25j, "c": 0.6 + 0.2j}),
            ),
            name="four_node_unbalanced",
        )
    )

    z2ph = np.array([[0.8 + 1.4j, 0.2 + 0.4j], [0.2 + 0.4j, 0.8 + 1.4j]])
    z1ph = np.array([[0.9 + 1.6j]])
    feeders.append(
        Feeder(
            12.47, 100.0, "head",
            (
                FeederLine("head", "n1", "abc", _z3(0.4 + 0.9j, 0.1 + 0.25j)),
                FeederLine("n1", "n2", "abc", _z3(0.5 + 1.0j, 0.12 + 0.28j)),
                FeederLine("n1", "n3", "ab", z2ph),
                FeederLine("n3", "n4", "b", z1ph),
                FeederLine("n2", "n5", "c", z1ph * 1.2),
            ),
            (
                PhaseLoad("n2", {"a": 0.8 + 0.2j, "b": 0.7 + 0.15j, "c": 0.5 + 0.1j}),
                PhaseLoad("n3", {"a": 0.6 + 0.2j}),
                PhaseLoad("n4", {"b": 0.9 + 0.3j}),
                PhaseLoad("n5", {"c": 0.4 + 0.1j}),
            ),
            name="six_node_mixed_phase",
        )
    )

    lines = [FeederLine("head", "n1", "abc", _z3(0.3 + 0.7j, 0.08 + 0.2j))]
    prev = "n1"
    for k in range(2, 8):
        lines.append(FeederLine(prev, f"n{k}", "abc", _z3(0.35 + 0.75j, 0.09 + 0.22j)))
        prev = f"n{k}"
    lines.append(FeederLine("n3", "n8", "bc", z2ph))
    lines.append(FeederLine("n5", "n9", "a", z1ph))
    feeders.append(
        Feeder(
            12.47, 100.0, "head",
            tuple(lines),
            (
                PhaseLoad("n7", {"a": 0.7 + 0.2j, "b": 0.75 + 0.2j, "c": 0.72 + 0.21j}),
                PhaseLoad("n4", {"a": 0.3 + 0.1j, "b": 0.32 + 0.1j, "c": 0.31 + 0.1j}),
                PhaseLoad("n8", {"b": 0.5 + 0.12j, "c": 0.45 + 0.1j}),
                PhaseLoad("n9", {"a": 0.6 + 0.18j}),
            ),
            name="ten_node_laterals",
        )
    )

    # n1 fans out to children on abc, ab and c, so siblings' currents of
    # mixed phase sets are summed into one parent; the head has two children.
    feeders.append(
        Feeder(
            12.47, 100.0, "head",
            (
                FeederLine("head", "n1", "abc", _z3(0.4 + 0.9j, 0.1 + 0.25j)),
                FeederLine("n1", "n2", "abc", _z3(0.5 + 1.0j, 0.12 + 0.28j)),
                FeederLine("n1", "n3", "ab", z2ph),
                FeederLine("n1", "n4", "c", z1ph),
                FeederLine("n2", "n5", "a", z1ph * 0.8),
                FeederLine("n3", "n6", "b", z1ph * 1.1),
                FeederLine("head", "n7", "abc", _z3(0.3 + 0.6j, 0.07 + 0.18j)),
            ),
            (
                PhaseLoad("n2", {"a": 0.6 + 0.2j, "b": 0.5 + 0.1j, "c": 0.4 + 0.1j}),
                PhaseLoad("n3", {"a": 0.5 + 0.15j, "b": 0.3 + 0.1j}),
                PhaseLoad("n4", {"c": 0.7 + 0.2j}),
                PhaseLoad("n5", {"a": 0.3 + 0.05j}),
                PhaseLoad("n6", {"b": 0.4 + 0.1j}),
                PhaseLoad("n1", {"a": 0.2 + 0.05j, "b": 0.2 + 0.05j, "c": 0.2 + 0.05j}),
                PhaseLoad("n7", {"a": 0.5 + 0.1j, "b": 0.45 + 0.1j, "c": 0.55 + 0.12j}),
            ),
            name="eight_node_fan_out",
        )
    )
    return feeders


@pytest.fixture(scope="session")
def small_feeders():
    return make_small_feeders()
