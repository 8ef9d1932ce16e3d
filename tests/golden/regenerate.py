"""Regenerate the golden CLI artifacts under ``tests/golden/``.

Each run of ``MANIFEST.json`` goes through ``tdcosim.cli.main`` with its
command line, and the files it names are copied into ``tests/golden/<dir>/``.
The manifest also records the NumPy and SciPy versions the files were made
with, which ``tests/test_golden.py`` reads to choose between a byte
comparison and a numeric one.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves an artifact on purpose commits the regenerated files,
so that the diff shows every value that moved.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import shutil
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np
import scipy

from tdcosim import cli, dsolve, io

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "MANIFEST.json"
DATA = Path(str(files("tdcosim") / "data"))


def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def make_inputs(workdir: Path) -> dict[str, str]:
    """The placeholders of the manifest's command lines: ``{data}``, the
    packaged data directory, and ``{triple}``, the packaged feeder with every
    load scaled by 3, written into ``workdir``."""
    triple = workdir / "triple.td"
    feeder = io.load_feeder(DATA / "ckt24_synth.td")
    triple.write_text(io.serialize_feeder(dsolve.scale_loads(feeder, 3.0)))
    return {"data": str(DATA), "triple": str(triple)}


def run(entry: dict, inputs: dict[str, str], out: Path) -> int:
    """Run one manifest entry through ``cli.main`` with its artifacts in
    ``out``; returns the exit code.  The console output is discarded."""
    argv = [arg.format(out=out, **inputs) for arg in entry["argv"]]
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
        return cli.main(argv)


def main() -> int:
    spec = manifest()
    spec["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = make_inputs(tmp)
        for entry in spec["runs"]:
            out = tmp / entry["dir"]
            rc = run(entry, inputs, out)
            if rc != entry["exit"]:
                print(f"{entry['dir']}: exit {rc}, expected {entry['exit']}", file=sys.stderr)
                return 1
            for name in entry["files"]:
                target = GOLDEN / entry["dir"] / name
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / name, target)
                print(f"wrote {target.relative_to(GOLDEN)}")
    MANIFEST.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
