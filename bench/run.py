"""tdcosim benchmark.

One workload per run, the form `BENCHMARK.json` declares::

    python3 bench/run.py --workload day --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  All three workloads, each in its own process, and
a fresh ``BENCHMARK.json`` from the definitions below::

    python3 bench/run.py --all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md
for what every metric and workload means.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUN_SECONDS = 20

WORKLOADS = [
    {"name": "day", "why": "paper use case: 60 one-minute coupled steps, 5-min dispatch, decoupled baseline, CSV writes; 9-bus + 240-node feeder; tsolve dominates. Check |V-Vref| <= eps = 1e-4 pu"},
    {"name": "wide", "why": "3 x 10000-node feeders, Table-2 alpha sweep: sweeps in the feeder pool, 30k-load prep, 4 s parse in set-up. Check |V-Vref| <= eps = 1e-4 pu"},
    {"name": "deep", "why": "1000-level chain, cold couple_step snapshots: the per-level sweep loop is >90% of a step; one PCC, no pool. Check |V-Vref| <= eps = 1e-4 pu"},
]

# Bounds: on the shared 2-vCPU machine this was tuned on, the host's load
# moves step times by up to 1.8x for seconds to minutes at a time, and runs of
# 15, 20 and 30 s showed the same spread over 5-10 seeds.  Timings therefore
# get the widest bound BENCHMARK.json permits (0.25); peak RSS repeats to
# within 1 %.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "step_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Printed on every run but not bounded.  The step-time distribution is a
# mixture of the host's fast and slow periods, so its median jumps between
# them (ten-seed spreads up to 0.34); the ratio reads 0 on a correct run.
REPORTED = {"step_ms_p50": "ms", "failed_step_ratio": "1"}

PER_LAYER = [
    {"name": "tsolve.ybus_build.calls", "unit": "count", "better": "lower"},
    {"name": "tsolve.ybus_build.s", "unit": "s", "better": "lower"},
    {"name": "tsolve.three_seq.calls", "unit": "count", "better": "lower"},
    {"name": "tsolve.three_seq.self_s", "unit": "s", "better": "lower"},
    {"name": "tsolve.three_seq.passes", "unit": "count", "better": "lower"},
    {"name": "tsolve.nr.calls", "unit": "count", "better": "lower"},
    {"name": "tsolve.nr.s", "unit": "s", "better": "lower"},
    {"name": "tsolve.nr.iterations", "unit": "count", "better": "lower"},
    {"name": "tsolve.neg_solve.calls", "unit": "count", "better": "lower"},
    {"name": "tsolve.neg_solve.s", "unit": "s", "better": "lower"},
    {"name": "tsolve.zero_solve.calls", "unit": "count", "better": "lower"},
    {"name": "tsolve.zero_solve.s", "unit": "s", "better": "lower"},
    {"name": "dsolve.sweep.calls", "unit": "count", "better": "lower"},
    {"name": "dsolve.sweep.busy_s", "unit": "s", "better": "lower"},
    {"name": "dsolve.sweep.iterations", "unit": "count", "better": "lower"},
    {"name": "dsolve.sweep.round_wall_s", "unit": "s", "better": "lower"},
    {"name": "dsolve.sweep.concurrency", "unit": "1", "better": "higher"},
    {"name": "dsolve.load_prep.s", "unit": "s", "better": "lower"},
    {"name": "dsolve.topology.s", "unit": "s", "better": "lower"},
    {"name": "ed.dispatch.calls", "unit": "count", "better": "lower"},
    {"name": "ed.dispatch.s", "unit": "s", "better": "lower"},
    {"name": "cosim.steps", "unit": "count", "better": "higher"},
    {"name": "cosim.rounds", "unit": "count", "better": "lower"},
    {"name": "cosim.rounds_per_step", "unit": "1", "better": "lower"},
    {"name": "cosim.self_s", "unit": "s", "better": "lower"},
    {"name": "io.parse.s", "unit": "s", "better": "lower"},
    {"name": "io.parse.bytes", "unit": "B", "better": "lower"},
    {"name": "io.write.s", "unit": "s", "better": "lower"},
    {"name": "io.write.bytes", "unit": "B", "better": "lower"},
    {"name": "trace.overhead_ratio", "unit": "1", "better": "lower"},
]

MANIFEST = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": RUN_SECONDS,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": PER_LAYER,
}

# Set-up is repeated and its median reported: at least SETUP_MIN_REPS times,
# more while under SETUP_MIN_S in total, never more than SETUP_MAX_REPS.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 100, 3.0

# Fixed work of a traced run, so per-layer totals compare exactly between
# commits: TRACE_PAIRS pairs of an untraced and a traced pass, in alternating
# order, each pass one day window, one alpha sweep or eight snapshots.  The
# overhead ratio is the median over the pairs.
TRACE_UNITS = {"day": 1, "wide": 1, "deep": 8}
TRACE_PAIRS = 5

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(system) -> dict:
    import numpy
    import scipy
    from tdcosim import cosim

    resolve = getattr(cosim, "_default_jobs", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "feeder_jobs": resolve(len(system.feeders)) if resolve else None,
        "TDCOSIM_JOBS": os.environ.get("TDCOSIM_JOBS"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def _ensure_inputs(workloads, name: str, v: int) -> None:
    """Build missing seeded inputs in a child process, so that generation
    neither counts in this process's peak RSS nor shares its timing."""
    if workloads.missing_inputs(name, v):
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), name, str(v)],
            check=True, timeout=600,
        )


def _timed_setup(workloads, name: str, v: int):
    times = []
    system = None
    began = perf_counter()
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or perf_counter() - began < SETUP_MIN_S
    ):
        system = None
        gc.collect()
        t0 = perf_counter()
        system = workloads.setup(name, v)
        times.append(perf_counter() - t0)
    return system, times


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def _emit(correct, attempted, failed, metrics, units) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def run_untraced(workloads, name, v, seconds, out):
    system, setup_times = _timed_setup(workloads, name, v)
    env = _environment(system)
    warm = workloads.run_unit(name, system, out)
    timed = []
    began = perf_counter()
    while perf_counter() - began < seconds:
        timed.extend(workloads.run_unit(name, system, out))
    wall = perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = workloads.load_reference(name, v)
    problems = workloads.check(warm + timed, reference)
    walls_ms = [o.wall_s * 1e3 for o in timed]
    completed = sum(o.ok for o in timed)
    p90 = _percentile(walls_ms, 90)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": completed / wall,
        "step_ms_p50": statistics.median(walls_ms),
        "step_ms_p90": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = len(warm) + len(timed)
    failed = len(problems)
    metrics["failed_step_ratio"] = failed / attempted
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "steps_per_s": f"{completed} checked steps in {wall:.2f} s",
        "step_ms_p50": f"n={len(walls_ms)}",
        "step_ms_p90": f"n={len(walls_ms)}, {sum(w > p90 for w in walls_ms)} beyond",
        "peak_rss_mb": "this workload's process",
        "failed_step_ratio": f"{failed} of {attempted} steps (incl. warm-up) failed",
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    units = {m["name"]: m["unit"] for m in END_TO_END}
    for key, unit in {**units, **REPORTED}.items():
        print(f"{key:<20}{metrics[key]:>14.6g} {unit:<6} {notes[key]}")
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    return failed == 0, attempted, failed, metrics, units


def run_traced(workloads, name, v, out):
    import tracing

    tracer = tracing.Tracer()
    with tracer:  # set-up is traced once, for the io.parse and topology spans
        system = workloads.setup(name, v)
    env = _environment(system)
    outcomes = workloads.run_unit(name, system, out)

    def one_pass():
        t0 = perf_counter()
        for _ in range(TRACE_UNITS[name]):
            outcomes.extend(workloads.run_unit(name, system, out))
        return t0, perf_counter()

    windows, untraced = [], []
    for pair in range(TRACE_PAIRS):
        for traced in (pair % 2 == 1, pair % 2 == 0):
            if traced:
                with tracer:
                    windows.append(one_pass())
            else:
                t0, t1 = one_pass()
                untraced.append(t1 - t0)
    layers = tracing.report(tracer, name, windows, untraced)

    problems = workloads.check(outcomes, workloads.load_reference(name, v))
    failed = len(problems)
    print(f"env {json.dumps(env, sort_keys=True)}")
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    notes = {"dsolve.sweep.concurrency": f"on {env['affinity_cpus']} CPUs, "
                                        f"{env['feeder_jobs']} feeder jobs"}
    for key in units:
        print(f"{key:<28}{layers.metrics[key]:>14.6g} {units[key]:<6}{notes.get(key, '')}")
    shares = sorted(layers.shares.items(), key=lambda kv: -kv[1])
    print("self-time share of traced wall: "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    for p in problems[:10] + layers.problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = failed == 0 and not layers.problems
    return correct, len(outcomes), failed, layers.metrics, units


def run_one(args) -> int:
    # Pin the job count to the program's own default resolution.
    os.environ.pop("TDCOSIM_JOBS", None)
    import workloads

    v = workloads.variant(args.seed)
    _ensure_inputs(workloads, args.workload, v)
    out = workloads.CACHE / f"out-{os.getpid()}"
    print(f"workload {args.workload} seed {args.seed} (input variant {v}) "
          f"trace {args.trace}")
    try:
        if args.trace:
            result = run_traced(workloads, args.workload, v, out)
        else:
            result = run_untraced(workloads, args.workload, v, args.seconds, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    _emit(*result)
    return 0


def run_all(args) -> int:
    env = {k: v for k, v in os.environ.items() if k != "TDCOSIM_JOBS"}
    ok = True
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(MANIFEST, indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--all", action="store_true",
                        help="run every workload in its own process and write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
