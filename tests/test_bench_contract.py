"""What the benchmark harness reads of the package still works.

``bench/workloads.py`` builds its inputs, sets up and runs its units through
the package's public names and checks the PCC voltages against the committed
references.  One unit of ``day`` and ``deep`` runs here on the holdout
variant, with every generated file under a temporary directory.
"""
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def workloads(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("workloads")
    monkeypatch.setattr(module, "CACHE", tmp_path / "cache")
    return module


@pytest.mark.parametrize("workload", ["day", "deep"])
def test_a_unit_matches_the_committed_reference(workloads, tmp_path, workload):
    v = workloads.variant(workloads.HOLDOUT_SEED)
    workloads.build_inputs(workload, v)
    assert workloads.missing_inputs(workload, v) == []
    system = workloads.setup(workload, v)
    outcomes = workloads.run_unit(workload, system, tmp_path / "out")
    assert len(outcomes) == workloads.STEPS_PER_UNIT[workload]
    assert workloads.check(outcomes, workloads.load_reference(workload, v)) == []
