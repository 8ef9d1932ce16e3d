"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 numerical non-convergence,
2 input/usage error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cosim, dsolve, ed, io
from .errors import ConvergenceError, ParseError, TdcosimError
from .netmodel import LoadAttachment, TransmissionCase, validate_case

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2


def _parse_feeder_binding(arg: str) -> tuple[str, int]:
    path, sep, bus = arg.rpartition("@")
    if not sep or not path:
        raise argparse.ArgumentTypeError(
            f"feeder binding must look like PATH@BUS, got {arg!r}"
        )
    try:
        return path, int(bus)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bus id in feeder binding {arg!r}") from None


def _parse_shape_binding(arg: str) -> tuple[str, str]:
    shape_id, sep, path = arg.partition("=")
    if not sep or not shape_id or not path:
        raise argparse.ArgumentTypeError(
            f"loadshape binding must look like ID=PATH, got {arg!r}"
        )
    return shape_id, path


def _float_list(what: str):
    """An argparse type for a comma-separated list of at least one float,
    called ``what`` in its error."""

    def parse(arg: str) -> list[float]:
        try:
            values = [float(tok) for tok in arg.split(",") if tok.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"bad {what} {arg!r}")
        return values

    return parse


def _attach_feeders(
    case: TransmissionCase, bindings: list[tuple[str, int]]
) -> tuple[TransmissionCase, dict[int, dsolve.Feeder]]:
    """Bind feeder files to PCC buses, replacing lumped loads there."""
    feeders: dict[int, dsolve.Feeder] = {}
    loads = list(case.loads)
    for path, bus in bindings:
        if bus in feeders:
            raise ValueError(f"more than one feeder bound to bus {bus}")
        feeder = io.load_feeder(path)
        feeders[bus] = feeder
        existing = [i for i, ld in enumerate(loads) if ld.bus == bus]
        shape_id = None
        for i in existing:
            shape_id = loads[i].loadshape_id or shape_id
        for i in reversed(existing):
            del loads[i]
        loads.append(
            LoadAttachment(bus, feeder_id=feeder.name, loadshape_id=shape_id)
        )
    case = replace(case, loads=tuple(loads))
    problems = validate_case(case)
    if problems:
        raise ValueError("; ".join(problems))
    return case, feeders


def _load_shapes(bindings: list[tuple[str, str]]) -> dict[str, io.LoadshapeSeries]:
    return {shape_id: io.load_loadshape(path, shape_id) for shape_id, path in bindings}


def _dispatch(args, case, feeders) -> ed.DispatchResult | None:
    """The snapshot/sweep dispatch on the unscaled forecast, unless disabled."""
    if args.no_dispatch:
        return None
    return ed.dispatch(case.generators, cosim.forecast_demand_mw(case, feeders))


def _print_snapshot_table(trace: cosim.CouplingTrace, eps: float) -> None:
    for i, bus in enumerate(trace.pcc_buses):
        print(f"Voltage convergence at T&D PCC (bus {bus}), eps={eps:g} pu")
        rounds = "".join(f"it{k:<8}" for k in range(1, len(trace.v_trans) + 1))
        print(f"  {'network':<14}{'phase':<7}{rounds}")
        for side, mags in (("transmission", trace.v_trans), ("distribution", trace.v_dist)):
            for p, phase in enumerate("abc"):
                vals = "".join(f"{m[i, p]:<10.4f}" for m in mags)
                print(f"  {side:<14}{phase:<7}{vals}")
        print(f"  N (bus {bus}) = {trace.iterations_to_converge.get(bus, '-')}")
    print(f"  overall N = {trace.overall_iterations}")


def cmd_snapshot(args) -> int:
    doc = io.load_case(args.case)
    case, feeders = _attach_feeders(doc.case, args.feeder)
    if not feeders:
        print("snapshot needs at least one --feeder PATH@BUS", file=sys.stderr)
        return EXIT_INPUT
    if args.alpha:
        feeders = {b: dsolve.apply_unbalance(f, args.alpha) for b, f in feeders.items()}
    dispatch = _dispatch(args, case, feeders)

    def write(state, trace):
        step = cosim.StepResult(
            t_min=0, converged=state is not None, trace=trace, state=state,
            dispatch=dispatch, dispatched=dispatch is not None,
            gen_buses=tuple(g.bus for g in case.generators), wall_s=0.0,
        )
        io.write_results(cosim.CosimResult([step], args.eps), args.out)

    try:
        state, trace = cosim.couple_step(
            case, feeders, dispatch=dispatch, eps=args.eps,
            max_rounds=args.max_rounds,
        )
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        trace = getattr(exc, "trace", None)
        if trace is not None and args.out:
            write(None, trace)
        return EXIT_NUMERIC
    _print_snapshot_table(trace, args.eps)
    if args.out:
        write(state, trace)
        print(f"artifacts written to {args.out}")
    return EXIT_OK


def cmd_timeseries(args) -> int:
    doc = io.load_case(args.case)
    case, feeders = _attach_feeders(doc.case, args.feeder)
    shapes = _load_shapes(args.loadshape)
    if args.minutes <= 0:
        print("window must be at least one minute", file=sys.stderr)
        return EXIT_INPUT
    result = cosim.run_timeseries(
        case, feeders, shapes,
        start_min=args.start, horizon_min=args.minutes,
        ed_interval_min=args.ed_interval, pf_interval_min=args.pf_interval,
        eps=args.eps, max_rounds=args.max_rounds, on_fail=args.on_fail,
    )
    outdir = Path(args.out)
    io.write_results(result, outdir)
    n_fail = sum(1 for s in result.steps if not s.converged)
    print(
        f"{len(result.steps)} steps, {sum(1 for s in result.steps if s.dispatched)} "
        f"dispatches, {n_fail} failures; artifacts in {outdir}"
    )
    if args.decoupled:
        baseline = cosim.run_decoupled_baseline(
            case, feeders, shapes,
            start_min=args.start, horizon_min=args.minutes,
            ed_interval_min=args.ed_interval, eps=args.eps,
        )
        io.write_results(baseline, outdir / "decoupled")
        _write_comparison(result, baseline, outdir)
        print(f"decoupled baseline in {outdir / 'decoupled'}")
        if baseline.aborted_at is not None:
            print(f"decoupled baseline aborted at minute {baseline.aborted_at}: "
                  f"{baseline.steps[-1].error}", file=sys.stderr)
            return EXIT_NUMERIC
    if result.aborted_at is not None:
        print(f"aborted at minute {result.aborted_at} (coupling failure): "
              f"{result.steps[-1].error}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_NUMERIC if n_fail else EXIT_OK


def _write_comparison(coupled, baseline, outdir) -> None:
    """Per-phase |V| of both runs at the instants both solved (Fig-6 data)."""
    by_t = {s.t_min: s for s in baseline.steps if s.converged}
    rows = []
    for step in coupled.steps:
        if not step.converged or step.t_min not in by_t:
            continue
        vc = np.abs(step.state.v_pcc).tolist()
        vd = np.abs(by_t[step.t_min].state.v_pcc).tolist()
        for bus, coupled_v, decoupled_v in zip(step.state.pcc_buses, vc, vd):
            for phase, c, d in zip("abc", coupled_v, decoupled_v):
                rows.append([step.t_min, bus, phase, repr(c), repr(d)])
    header = ["time_min", "pcc_bus", "phase", "v_coupled_pu", "v_decoupled_pu"]
    io.write_csv(Path(outdir) / "pcc_compare.csv", header, rows)


def cmd_sweep_unbalance(args) -> int:
    doc = io.load_case(args.case)
    case, feeders = _attach_feeders(doc.case, args.feeder)
    if not feeders:
        print("sweep-unbalance needs at least one --feeder PATH@BUS", file=sys.stderr)
        return EXIT_INPUT
    sweep = cosim.sweep_unbalance(
        case, feeders, args.alphas, dispatch=_dispatch(args, case, feeders),
        eps=args.eps, max_rounds=args.max_rounds,
    )
    buses = sweep.pcc_buses
    print("alpha    " + "".join(f"N(bus {b})  " for b in buses) + "overall N")
    failed = False
    for row in sweep.rows:
        if row.converged:
            cells = "".join(f"{row.n_per_pcc[b]:<10}" for b in buses)
            print(f"{row.alpha:<9.2f}{cells}{row.overall_n}")
        else:
            failed = True
            print(f"{row.alpha:<9.2f}did not converge: {row.error}")
    if args.out:
        io.write_convergence_table(sweep, args.out)
        print(f"table written to {Path(args.out) / 'convergence_table.csv'}")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.paths:
        try:
            header = next((toks[0] for _, toks in io._Lines(Path(path).read_text())), "")
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = EXIT_INPUT
            continue
        try:
            if header == "tdfeeder":
                io.load_feeder(path)  # raises on any problem
                problems = []
            else:
                problems = validate_case(io.load_case(path).case)
            if problems:
                for p in problems:
                    print(f"{path}: {p}")
                status = EXIT_INPUT
            else:
                print(f"{path}: ok")
        except ParseError as exc:
            print(exc, file=sys.stderr)
            status = EXIT_INPUT
    return status


def cmd_make_feeder(args) -> int:
    feeder = dsolve.synth_feeder(
        nodes=args.nodes,
        total_p_mw=args.p,
        total_q_mvar=args.q,
        base_kv=args.kv,
        base_mva=args.base_mva,
        phase_mix=tuple(args.mix),
        seed=args.seed,
        name=args.name,
    )
    io.write_text(args.out, io.serialize_feeder(feeder))
    agg = dsolve.aggregate_load(feeder)
    print(
        f"wrote {args.out}: {len(feeder.nodes())} nodes, "
        f"{agg.total().real:.3f} MW / {agg.total().imag:.3f} MVAr"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcosim",
        description="Iteratively coupled transmission-distribution co-simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, no_dispatch=False):
        p.add_argument("--case", required=True, help="transmission case file")
        p.add_argument(
            "--feeder", action="append", type=_parse_feeder_binding, default=[],
            metavar="PATH@BUS", help="bind a feeder file to a PCC bus",
        )
        p.add_argument("--eps", type=float, default=cosim.COUPLING_EPS,
                       help="PCC voltage convergence bound, pu")
        p.add_argument("--max-rounds", type=int, default=cosim.MAX_ROUNDS)
        if no_dispatch:
            p.add_argument("--no-dispatch", action="store_true",
                           help="keep the case file generator setpoints")

    p = sub.add_parser("snapshot", help="one coupled solve at a fixed instant")
    common(p, no_dispatch=True)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="load unbalance fraction applied to every feeder")
    p.add_argument("--out", default=None, help="artifact directory")
    p.set_defaults(fn=cmd_snapshot)

    p = sub.add_parser("timeseries", help="coupled time-series simulation")
    common(p)
    p.add_argument("--loadshape", action="append", type=_parse_shape_binding,
                   default=[], metavar="ID=PATH")
    p.add_argument("--start", type=int, default=0, help="start minute")
    p.add_argument("--minutes", type=int, required=True, help="window length")
    p.add_argument("--ed-interval", type=int, default=5)
    p.add_argument("--pf-interval", type=int, default=1)
    p.add_argument("--decoupled", action="store_true",
                   help="also run the 5-min decoupled baseline")
    p.add_argument("--on-fail", choices=("abort", "continue"), default="abort")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_timeseries)

    p = sub.add_parser("sweep-unbalance", help="iteration counts vs load unbalance")
    common(p, no_dispatch=True)
    p.add_argument("--alphas", type=_float_list("alpha list"), default=[0.0, 0.05, 0.10, 0.15],
                   metavar="A1,A2,...")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep_unbalance)

    p = sub.add_parser("validate", help="parse and validate case/feeder files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("make-feeder", help="write a synthetic feeder file")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="total MW")
    p.add_argument("--q", type=float, required=True, help="total MVAr")
    p.add_argument("--kv", type=float, required=True, help="base kV")
    p.add_argument("--base-mva", type=float, default=100.0)
    p.add_argument("--mix", type=_float_list("phase mix"), default=[0.6, 0.15, 0.25],
                   help="load fractions on 3/2/1-phase leaves")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_feeder)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TdcosimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
