"""The CLI's artifacts equal the golden files under ``tests/golden/``.

Each run of ``tests/golden/MANIFEST.json`` goes through ``cli.main`` in a
temporary directory.  Its files are compared byte for byte when NumPy and
SciPy have the versions the golden files were made with.  Under other
versions the last bits may differ, so every number is compared within the
manifest's ``rel_tol`` (or ``abs_tol`` near zero) and every other cell
exactly.  A mismatch names the file, the row, the column and the numeric
difference.  ``tests/golden/regenerate.py`` rewrites the golden files.
"""
import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = golden.manifest()
SAME_BUILD = MANIFEST["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode().splitlines()))


def differences(expected: bytes, got: bytes, close=None) -> list[str]:
    """Each cell at which ``got`` differs from ``expected``, as ``row R,
    column C: expected E, got G (difference D)``; rows count from the header
    as row 0.  ``close(e, g)``, when given, forgives two numbers."""
    if expected == got:
        return []
    want, have = _rows(expected), _rows(got)
    header = want[0] if want else []
    found = []
    if len(want) != len(have):
        found.append(f"{len(have)} rows, expected {len(want)}")
    for r, (w_row, h_row) in enumerate(zip(want, have)):
        if len(w_row) != len(h_row):
            found.append(f"row {r}: {h_row}, expected {w_row}")
            continue
        for c, (w, h) in enumerate(zip(w_row, h_row)):
            if w == h:
                continue
            try:
                e, g = float(w), float(h)
            except ValueError:
                found.append(f"row {r}, column {header[c]}: expected {w!r}, got {h!r}")
                continue
            if close is None or not close(e, g):
                found.append(f"row {r}, column {header[c]}: expected {w}, got {h} "
                             f"(difference {g - e:.3g})")
    if not found and close is None:
        found.append("the bytes differ, the cells do not")
    return found


def _close(e: float, g: float) -> bool:
    return math.isclose(e, g, rel_tol=MANIFEST["rel_tol"], abs_tol=MANIFEST["abs_tol"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return golden.make_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("entry", MANIFEST["runs"], ids=lambda entry: entry["dir"])
def test_cli_artifacts_match_the_golden_files(entry, inputs, tmp_path):
    out = tmp_path / entry["dir"]
    assert golden.run(entry, inputs, out) == entry["exit"]
    problems = []
    for name in entry["files"]:
        expected = (golden.GOLDEN / entry["dir"] / name).read_bytes()
        found = differences(expected, (out / name).read_bytes(),
                            None if SAME_BUILD else _close)
        problems += [f"{entry['dir']}/{name}: {line}" for line in found]
    assert not problems, "\n".join(problems)


def test_a_moved_value_is_named_with_its_row_column_and_difference():
    expected = b"time_min,pcc_bus,v_pu\r\n0,6,1.0\r\n1,6,0.5\r\n"
    moved = b"time_min,pcc_bus,v_pu\r\n0,6,1.0\r\n1,6,0.5000001\r\n"
    assert differences(expected, moved) == [
        "row 2, column v_pu: expected 0.5, got 0.5000001 (difference 1e-07)"]
    assert differences(expected, moved, lambda e, g: abs(g - e) < 1e-6) == []
    assert differences(expected, expected.replace(b"\r\n", b"\n")) == [
        "the bytes differ, the cells do not"]
    assert differences(expected, expected[:-len(b"1,6,0.5\r\n")]) == ["2 rows, expected 3"]
    assert differences(expected, expected.replace(b",0.5", b"")) == [
        "row 2: ['1', '6'], expected ['1', '6', '0.5']"]
