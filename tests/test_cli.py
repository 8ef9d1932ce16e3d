import re
from pathlib import Path

import pytest

from tdcosim import cosim, dsolve, io
from tdcosim.cli import _attach_feeders, main
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


def test_transmission_failure_writes_the_partial_trace(paths, tmp_path, capsys):
    # with 3x load on feeders at buses 5, 6 and 8 and alpha 0.1 the feeder at
    # bus 5 collapses in the sweeps of round 21, after 21 rounds of one trace
    # row per PCC; a collapse is a ConvergenceError, so the trace is written
    path = tmp_path / "triple.td"
    path.write_text(io.serialize_feeder(dsolve.scale_loads(io.load_feeder(paths["feeder"]), 3.0)))
    rc = main(["snapshot", "--case", paths["case"], "--feeder", f"{path}@5",
               "--feeder", f"{path}@6", "--feeder", f"{path}@8",
               "--alpha", "0.1", "--out", paths["out"]])
    assert rc == 1
    err = capsys.readouterr().err
    match = re.fullmatch(r"error: round 21: PCC bus 5: feeder 'ckt24_synth': voltage "
                         r"collapsed to (\S+) pu during sweep 20\n", err)
    assert match, err
    assert float(match[1]) < dsolve.COLLAPSE_FLOOR  # the minimum itself, not rounded to 0.500
    rows = (Path(paths["out"]) / "coupling_trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 63


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


def test_no_dispatch_is_gone_from_timeseries(paths):
    with pytest.raises(SystemExit) as err:
        main(["timeseries", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
              "--loadshape", f"day={paths['flat']}", "--minutes", "1", "--no-dispatch",
              "--out", paths["out"]])
    assert err.value.code == 2


def test_snapshot_no_dispatch_keeps_the_case_setpoints(paths, tmp_path):
    args = ["snapshot", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6"]
    assert main(args + ["--out", str(tmp_path / "ed")]) == 0
    assert main(args + ["--no-dispatch", "--out", str(tmp_path / "kept")]) == 0

    def lines(run, name):
        return (tmp_path / run / name).read_text().splitlines()

    assert len(lines("ed", "dispatch.csv")) == 4
    assert lines("kept", "dispatch.csv") == lines("ed", "dispatch.csv")[:1]  # header only
    case, feeders = _attach_feeders(io.load_case(paths["case"]).case, [(paths["feeder"], 6)])
    _, trace = cosim.couple_step(case, feeders)  # at the case file's setpoints
    v_trans = [row.split(",")[3] for row in lines("kept", "pcc_voltages.csv")[1:]]
    (last,) = trace.v_trans[-1].tolist()  # the one PCC's final round
    assert v_trans == [repr(v) for v in last]
    assert lines("kept", "pcc_voltages.csv") != lines("ed", "pcc_voltages.csv")


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


def test_validate_rejects_a_pv_bus_without_generator(tmp_path, capsys):
    bad = tmp_path / "pv.td"
    bad.write_text(
        "tdcase 1\nbase_mva 100.0\n"
        "bus 1 slack base_kv=230.0 v=1.0 angle=0.0\nbus 2 pv base_kv=230.0 v=1.05\n"
        "bus 3 pq base_kv=230.0\n"
        "branch 1 2 r1=0.02 x1=0.1\nbranch 2 3 r1=0.02 x1=0.1\n"
        "gen 1 pmin=0.0 pmax=500.0 qmin=-500.0 qmax=500.0 cost_a=0.01 cost_b=10.0 cost_c=0.0\n"
        "load 3 p=100.0 q=60.0\n"
    )
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().out == f"{bad}: bus 2: pv bus has no generator\n"


def test_validate_rejects_a_zero_tap(paths, tmp_path, capsys):
    text = Path(paths["case"]).read_text()
    line = next(ln for ln in text.splitlines() if ln.startswith("branch "))
    bad = tmp_path / "tap0.td"
    bad.write_text(text.replace(line, line + " tap=0", 1))
    assert main(["validate", str(bad)]) == 2
    branch = "-".join(line.split()[1:3])
    assert capsys.readouterr().out == f"{bad}: branch {branch}: tap must be positive, got 0.0\n"


@pytest.mark.parametrize("kind", ["case", "feeder"])
def test_validate_reads_the_header_past_comments(paths, tmp_path, capsys, kind):
    commented = tmp_path / f"commented-{kind}.td"
    commented.write_text("# c\n\n" + Path(paths[kind]).read_text())
    assert main(["validate", str(commented)]) == 0
    assert capsys.readouterr().out == f"{commented}: ok\n"


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


@pytest.mark.parametrize("alphas", ["", ","])
def test_sweep_unbalance_refuses_an_empty_alpha_list(paths, capsys, alphas):
    with pytest.raises(SystemExit) as err:
        main(["sweep-unbalance", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
              "--alphas", alphas, "--out", paths["out"]])
    assert err.value.code == 2
    assert f"argument --alphas: bad alpha list {alphas!r}" in capsys.readouterr().err
    assert not Path(paths["out"]).exists()


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


def test_a_shorter_timeseries_over_a_longer_one_reads_as_a_fresh_one(paths, tmp_path):
    def run(minutes, out):
        assert main(["timeseries", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
                     "--loadshape", f"day={paths['day']}", "--start", "1245",
                     "--minutes", str(minutes), "--decoupled", "--out", str(out)]) == 0

    run(10, tmp_path / "ts")
    longer = {p: p.read_bytes() for p in (tmp_path / "ts").rglob("*.csv")}
    run(3, tmp_path / "ts")
    run(3, tmp_path / "ts3")
    names = sorted(p.relative_to(tmp_path / "ts3") for p in (tmp_path / "ts3").rglob("*.csv"))
    assert [str(n) for n in names] == [
        "coupling_trace.csv", "decoupled/coupling_trace.csv", "decoupled/dispatch.csv",
        "decoupled/pcc_voltages.csv", "dispatch.csv", "pcc_compare.csv", "pcc_voltages.csv"]
    for name in names:
        assert len((tmp_path / "ts" / name).read_bytes()) < len(longer[tmp_path / "ts" / name])
        assert (tmp_path / "ts" / name).read_bytes() == (tmp_path / "ts3" / name).read_bytes()


def test_coupled_abort_exit_1(paths, heavy_feeder, capsys):
    rc = main(["timeseries", "--case", paths["case"], "--feeder", heavy_feeder,
               "--loadshape", f"day={paths['flat']}", "--minutes", "2", "--out", paths["out"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"aborted at minute 0 \(coupling failure\): round 4: PCC bus 6: "
                        r"feeder 'ckt24_synth': voltage collapsed to \S+ pu during sweep 1\n",
                        err), err
    # the clock stops at the failed step
    rows = (Path(paths["out"]) / "pcc_voltages.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0"] * 3


def test_timeseries_decoupled_failure_exit_1(paths, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ConvergenceError("forced transmission failure", [])

    monkeypatch.setattr(cosim, "_aggregate_pq_boundary", fail)
    rc = main(
        ["timeseries", "--case", paths["case"], "--feeder", f"{paths['feeder']}@6",
         "--loadshape", f"day={paths['day']}", "--start", "1245", "--minutes", "5",
         "--decoupled", "--out", paths["out"]]
    )
    assert rc == 1
    assert ("decoupled baseline aborted at minute 1245: forced transmission failure"
            in capsys.readouterr().err)


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


def test_make_feeder_reproduces_the_packaged_ckt24_synth(paths, tmp_path):
    out = tmp_path / "ckt24.td"
    rc = main(["make-feeder", "--nodes", "240", "--p", "52.1", "--q", "11.7", "--kv", "34.5",
               "--seed", "24", "--name", "ckt24_synth", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == Path(paths["feeder"]).read_bytes()


@pytest.mark.parametrize("name", ["my feeder", "a#b", "", "tab\there", "new\nline"])
def test_make_feeder_refuses_a_name_it_cannot_write_back(tmp_path, capsys, name):
    out = tmp_path / "f.td"
    rc = main(["make-feeder", "--nodes", "5", "--p", "1", "--q", "0.2", "--kv", "12.47",
               "--name", name, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: feeder name {name!r} would not read back as one token\n")
    assert not out.exists()


@pytest.mark.parametrize("mix, message", [
    ("x", "argument --mix: bad phase mix 'x'"),
    ("", "argument --mix: bad phase mix ''"),
    ("0.5,0.5", "error: phase mix needs three fractions, got [0.5, 0.5]"),
    ("0.2,0.2,0.3,0.3", "error: phase mix needs three fractions, got [0.2, 0.2, 0.3, 0.3]"),
])
def test_make_feeder_names_a_bad_mix(tmp_path, capsys, mix, message):
    out = tmp_path / "f.td"
    argv = ["make-feeder", "--nodes", "5", "--p", "1", "--q", "0.2", "--kv", "12.47",
            "--mix", mix, "--out", str(out)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects what it cannot read
        rc = exc.code
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--kv", "0", "base_kv must be finite and positive, got 0.0"),
    ("--kv", "-5", "base_kv must be finite and positive, got -5.0"),
    ("--kv", "nan", "base_kv must be finite and positive, got nan"),
    ("--kv", "inf", "base_kv must be finite and positive, got inf"),
    ("--base-mva", "0", "base_mva must be finite and positive, got 0.0"),
    ("--base-mva", "-100", "base_mva must be finite and positive, got -100.0"),
    ("--p", "inf", "total demand must be finite, got inf MW and 0.2 MVAr"),
    ("--q", "nan", "total demand must be finite, got 1.0 MW and nan MVAr"),
    ("--q", "-3", "cannot calibrate a feeder for 1.0 MW and -3.0 MVAr: no full-load voltage "
                  "drop in 2.5-5.5 % after 6 tries"),
])
def test_make_feeder_refuses_a_base_or_demand_it_cannot_build(
    tmp_path, capsys, flag, value, message
):
    out = tmp_path / "f.td"
    opts = {"--nodes": "5", "--p": "1", "--q": "0.2", "--kv": "12.47", "--out": str(out)}
    opts[flag] = value
    rc = main(["make-feeder", *(tok for pair in opts.items() for tok in pair)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_refused_make_feeder_leaves_the_old_file(tmp_path, capsys):
    out = tmp_path / "f.td"
    out.write_bytes(b"kept\r\n")
    rc = main(["make-feeder", "--nodes", "5", "--p", "1", "--q", "0.2", "--kv", "0",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: base_kv must be finite and positive, got 0.0\n"
    assert out.read_bytes() == b"kept\r\n"


def test_make_feeder_over_a_longer_file_writes_the_fresh_bytes(tmp_path):
    argv = ["make-feeder", "--nodes", "60", "--p", "10", "--q", "2", "--kv", "12.47"]
    assert main([*argv, "--nodes", "400", "--out", str(tmp_path / "over.td")]) == 0
    assert main([*argv, "--out", str(tmp_path / "over.td")]) == 0
    assert main([*argv, "--out", str(tmp_path / "fresh.td")]) == 0
    assert (tmp_path / "over.td").read_bytes() == (tmp_path / "fresh.td").read_bytes()


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
