from pathlib import Path

import pytest

from tdcosim import cosim, dsolve, io
from tdcosim.cli import main
from tdcosim.errors import ConvergenceError


@pytest.fixture()
def paths(data_dir, tmp_path):
    return {
        "case": str(data_dir / "case9.td"),
        "feeder": str(data_dir / "ckt24_synth.td"),
        "flat": str(data_dir / "loadshape_flat.csv"),
        "day": str(data_dir / "loadshape_day.csv"),
        "out": str(tmp_path / "out"),
    }


def test_snapshot_exit_zero_and_table(paths, capsys):
    rc = main(
        ["snapshot", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--eps", "1e-4", "--out", paths["out"]]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Voltage convergence at T&D PCC (bus 6)" in out
    assert "transmission" in out and "distribution" in out
    assert "N (bus 6) =" in out
    assert int(out.split("overall N = ")[1].split()[0]) <= 4
    assert (Path(paths["out"]) / "pcc_voltages.csv").exists()
    assert (Path(paths["out"]) / "coupling_trace.csv").exists()


def test_snapshot_with_alpha_in_band(paths, capsys):
    rc = main(
        ["snapshot", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--alpha", "0.15"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    n = int(out.split("overall N = ")[1].strip())
    assert n <= 8  # paper band for the 15 percent case


def test_missing_feeder_file_exit_2(paths, capsys):
    rc = main(
        ["snapshot", "--case", paths["case"], "--feeder", "/nonexistent.td@6"]
    )
    assert rc == 2


def test_corrupt_case_exit_2(tmp_path, paths, capsys):
    bad = tmp_path / "bad.td"
    bad.write_text("tdcase 1\nbase_mva 100.0\nbus 1 slack\n")
    rc = main(["snapshot", "--case", str(bad), "--feeder", f"{paths['feeder']}@6"])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


@pytest.fixture()
def heavy_feeder(paths, tmp_path):
    """The bundled feeder at 4x load: its first sweep collapses."""
    path = tmp_path / "heavy.td"
    heavy = dsolve.scale_loads(io.load_feeder(paths["feeder"]), 4.0)
    path.write_text(io.serialize_feeder(heavy))
    return f"{path}@6"


def test_feeder_collapse_exit_1(paths, heavy_feeder, capsys):
    rc = main(["snapshot", "--case", paths["case"], "--feeder", heavy_feeder,
               "--out", paths["out"]])
    assert rc == 1
    assert "PCC bus 6" in capsys.readouterr().err
    assert (Path(paths["out"]) / "coupling_trace.csv").exists()
    rc = main(["sweep-unbalance", "--case", paths["case"], "--feeder", heavy_feeder,
               "--alphas", "0"])
    assert rc == 1
    assert "did not converge" in capsys.readouterr().out


def test_timeseries_collapse_continue_exit_1(paths, heavy_feeder):
    rc = main(
        ["timeseries", "--case", paths["case"], "--feeder", heavy_feeder,
         "--loadshape", f"day={paths['flat']}", "--minutes", "2",
         "--on-fail", "continue", "--out", paths["out"]]
    )
    assert rc == 1
    # each collapsed step keeps its partial trace, up to the failing round
    rows = (Path(paths["out"]) / "pcc_voltages.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0"] * 3 + ["1"] * 3


def test_jobs_flag_is_gone(paths):
    with pytest.raises(SystemExit) as err:
        main(["snapshot", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
              "--jobs", "2"])
    assert err.value.code == 2


def test_nonconvergence_exit_1(paths):
    rc = main(
        ["snapshot", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--eps", "1e-13", "--max-rounds", "2"]
    )
    assert rc == 1


def test_validate_ok_and_bad(paths, tmp_path, capsys):
    assert main(["validate", paths["case"], paths["feeder"]]) == 0
    bad = tmp_path / "cycle.td"
    bad.write_text(
        "tdfeeder 1\nbase_kv 12.47\nbase_mva 100.0\nhead h\n"
        "line h a phases=a zaa=1.0j\nline a b phases=a zaa=1.0j\n"
        "line b h phases=a zaa=1.0j\n"
    )
    rc = main(["validate", str(bad)])
    assert rc == 2
    assert "not radial" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bases", ["base_kv\nbase_mva 100", "base_kv 12.47\nbase_mva", "base_kv 12.47 99\nbase_mva 100"]
)
def test_validate_base_directive_arity_exit_2(tmp_path, bases, capsys):
    bad = tmp_path / "arity.td"
    bad.write_text(f"tdfeeder 1\n{bases}\nhead h\n")
    assert main(["validate", str(bad)]) == 2
    assert "takes a single value" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [["--eps", "nan"], ["--max-rounds", "0"]])
def test_unworkable_budget_exit_2(paths, budget):
    rc = main(["snapshot", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
               *budget])
    assert rc == 2


def test_sweep_unbalance_table(paths, capsys):
    rc = main(
        ["sweep-unbalance", "--case", paths["case"],
         "--feeder", f"{paths['feeder']}@6", "--alphas", "0,0.15",
         "--out", paths["out"]]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall N" in out
    table = Path(paths["out"], "convergence_table.csv").read_text().splitlines()
    assert table[0] == "alpha,n_bus6,overall_n"
    assert len(table) == 3
    # overall equals the single-PCC N on every row
    for line in table[1:]:
        _, n6, overall = line.split(",")
        assert n6 == overall


def test_timeseries_run_and_artifacts(paths):
    rc = main(
        ["timeseries", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--loadshape", f"day={paths['day']}", "--start", "1245", "--minutes", "5",
         "--decoupled", "--out", paths["out"]]
    )
    assert rc == 0
    root = Path(paths["out"])
    for name in ("pcc_voltages.csv", "coupling_trace.csv", "dispatch.csv",
                 "pcc_compare.csv"):
        assert (root / name).exists()
    assert (root / "decoupled" / "pcc_voltages.csv").exists()


def test_timeseries_decoupled_failure_exit_1(paths, monkeypatch):
    def fail(*args, **kwargs):
        raise ConvergenceError("forced transmission failure", [])

    monkeypatch.setattr(cosim, "_aggregate_pq_boundary", fail)
    rc = main(
        ["timeseries", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--loadshape", f"day={paths['day']}", "--start", "1245", "--minutes", "5",
         "--decoupled", "--out", paths["out"]]
    )
    assert rc == 1


def test_timeseries_zero_window_usage_error(paths):
    rc = main(
        ["timeseries", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--loadshape", f"day={paths['flat']}", "--minutes", "0",
         "--out", paths["out"]]
    )
    assert rc == 2


def test_make_feeder_seed_determinism(tmp_path, capsys):
    a = tmp_path / "a.td"
    b = tmp_path / "b.td"
    for target in (a, b):
        rc = main(
            ["make-feeder", "--nodes", "60", "--p", "10", "--q", "2",
             "--kv", "12.47", "--seed", "7", "--out", str(target)]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.td"
    main(["make-feeder", "--nodes", "60", "--p", "10", "--q", "2",
          "--kv", "12.47", "--seed", "8", "--out", str(c)])
    assert c.read_bytes() != a.read_bytes()


def test_snapshot_artifacts_identical_across_jobs(paths, tmp_path):
    # the feeder round is serial in PCC order, so the artifacts must not
    # depend on the order in which the feeders are bound
    outs = []
    for order in ((5, 6, 8), (8, 5, 6)):
        bindings = []
        for bus in order:
            bindings += ["--feeder", f"{paths['feeder']}@{bus}"]
        out = tmp_path / ("order" + "".join(map(str, order)))
        rc = main(["snapshot", "--case", paths["case"], *bindings, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "pcc_voltages.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
