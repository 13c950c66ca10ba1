"""Command line front end: run named scenarios, list them, or smoke-check.

Exit codes: 0 all built-in checks passed, 1 a check failed, 2 the config
was rejected before any computation, 3 the computation itself raised.
A run's seed is its config's ``seed``, and its output root is ``--out``,
else ./phaselab-out.  Every run leaves a manifest.json (resolved config,
checks, output digests, warnings, error record) in its output directory,
even when it fails, and in ./phaselab-out when its ``--out`` cannot take
the run; only the one-line reason goes to stderr, as
``phaselab: <kind>: <message>``.  ``check`` is one ``run`` per check
scenario, into a scratch root.

A runner writes its tables through ``emit``, which takes a file's rows in
blocks (one call with whole arrays is the one-block case), formats and
hashes each block as it arrives, and publishes no table of a runner that
raises.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PhaseLabError
from .scenarios import CHECK_SCENARIOS, SCENARIOS

_EXIT_CODES = {"assertion-failure": 1, "config-error": 2,
               "computation-error": 3}


class _CliFailure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.warnings = []  # raised by prepare before it failed


def _fail(kind: str, message: str) -> _CliFailure:
    return _CliFailure(kind, " ".join(str(message).split()))


# ---------------------------------------------------------------------------
# config handling

def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail("config-error", f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    # ValueError covers JSONDecodeError and an integer literal past
    # Python's digit limit; RecursionError, nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise _fail("config-error", f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise _fail("config-error", "config document must be a JSON object")
    return raw


def _coerce(name: str, scenario: str, schema_entry, value):
    try:
        if isinstance(value, bool):
            raise ValueError("booleans are not accepted")
        if schema_entry.kind is int:
            as_float = float(value)
            if not as_float.is_integer():
                raise ValueError("not an integer")
            coerced = int(as_float)
        else:
            coerced = schema_entry.kind(value)
            if schema_entry.kind is float and not math.isfinite(coerced):
                raise ValueError("must be finite")
        return coerced
    except (OverflowError, TypeError, ValueError) as exc:
        raise _fail("config-error",
                    f"parameter '{name}' of scenario '{scenario}' "
                    f"rejects {value!r}: {exc}")


@contextlib.contextmanager
def _recording_warnings():
    """Hold back the warnings raised inside; yields a list that receives
    each distinct one as "Category: message" on exit, also on an error."""
    raised = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield raised
        finally:
            raised.extend(dict.fromkeys(f"{w.category.__name__}: {w.message}"
                                        for w in caught))


def _validate(raw: dict):
    """Resolve (scenario, parameters, inputs, seed, warnings) or raise
    before any computation; any exception out of ``prepare`` is a config
    error, and the warnings ``prepare`` raised are recorded, not printed."""
    for key in raw:
        if key not in ("scenario", "parameters", "seed"):
            raise _fail("config-error", f"unknown config key '{key}'")
    name = raw.get("scenario")
    if not isinstance(name, str) or not name:
        raise _fail("config-error", "config must name a scenario")
    if name not in SCENARIOS:
        raise _fail("config-error", f"unknown scenario '{name}'")
    schema = SCENARIOS[name].parameters

    supplied = raw.get("parameters", {})
    if not isinstance(supplied, dict):
        raise _fail("config-error", "'parameters' must be an object")
    for key in supplied:
        if key not in schema:
            raise _fail("config-error",
                        f"unknown parameter '{key}' for scenario '{name}'")
    params = {}
    for key, entry in schema.items():
        value = supplied.get(key, entry.default)
        params[key] = _coerce(key, name, entry, value)

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise _fail("config-error",
                    f"seed must be an unsigned integer, got {seed!r}")
    try:
        with _recording_warnings() as raised:
            inputs = SCENARIOS[name].prepare(params)
    except Exception as exc:
        failure = _fail("config-error", f"scenario '{name}' rejects its "
                        f"parameters: {type(exc).__name__}: {exc}")
        failure.warnings = raised
        raise failure
    return name, params, inputs, seed, raised


# ---------------------------------------------------------------------------
# output files

_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}
_CSV_BLOCK_ROWS = 1024


class _CsvWriter:
    """The ``emit`` of one run: ``emit(filename, columns)`` writes the rows
    of columns, a list of (name, units, values), to the CSV file filename
    in outdir.

    The first call for a file writes its header and units lines and fixes
    its %-template from the column dtypes: floats at %.17g, integers at %d,
    anything else as str.  Each later call for the file, with the same
    names, units and template, appends its rows, so a runner may hand a
    long table over in row blocks; one call with whole arrays is the
    one-block case.  Rows are formatted _CSV_BLOCK_ROWS at a time and each
    piece is hashed as it is written.  ``close`` returns {filename: sha256
    hex digest}; ``discard`` deletes every file written, so that a failed
    run publishes no table."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.files = {}  # filename -> (file, sha256, header, template)

    def __call__(self, filename: str, columns) -> None:
        if "/" in filename or "\\" in filename or filename.startswith("."):
            raise PhaseLabError(f"bad output filename {filename!r}")
        arrays = [np.asarray(col[2]) for col in columns]
        length = len(arrays[0])
        if any(len(a) != length for a in arrays):
            raise PhaseLabError("csv columns of unequal length")
        header = (",".join(col[0] for col in columns) + "\n"
                  + ",".join(col[1] for col in columns) + "\n")
        row = ",".join(_CSV_FORMATS.get(a.dtype.kind, "%s")
                       for a in arrays) + "\n"
        if filename not in self.files:
            out = (self.outdir / filename).open("wb")
            self.files[filename] = out, hashlib.sha256(), header, row
            self._write(filename, header)
        elif self.files[filename][2:] != (header, row):
            raise PhaseLabError(f"rows for {filename} do not match its "
                                "columns")
        for start in range(0, length, _CSV_BLOCK_ROWS):
            block = [a[start:start + _CSV_BLOCK_ROWS].tolist() for a in arrays]
            self._write(filename, "".join(row % cells for cells in zip(*block)))

    def _write(self, filename: str, text: str) -> None:
        out, digest = self.files[filename][:2]
        data = text.encode()
        out.write(data)
        digest.update(data)

    def close(self) -> dict:
        for out, *_ in self.files.values():
            out.close()
        return {name: entry[1].hexdigest()
                for name, entry in self.files.items()}

    def discard(self) -> None:
        self.close()
        for name in self.files:
            (self.outdir / name).unlink(missing_ok=True)


def _dump_json(path: Path, payload: dict) -> str:
    """Write payload as sorted, indented JSON; returns the sha256 hex digest
    of the bytes written.  numpy scalars and arrays go through ``tolist``
    (np.float64 is a float and needs none)."""
    data = (json.dumps(payload, sort_keys=True, indent=2,
                       default=lambda value: value.tolist()) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# execution

def _execute(name: str, inputs, seed: int, outdir: Path):
    """Run one scenario into outdir; returns (results, checks, inventory,
    warnings), each warning the runner raised once, as "Category: message".
    A runner that raises leaves no table in outdir."""
    emit = _CsvWriter(outdir)
    try:
        with _recording_warnings() as raised:
            results, checks = SCENARIOS[name].runner(inputs, seed, emit)
    except BaseException:
        emit.discard()
        raise
    return results, checks, emit.close(), raised


def _run_command(args) -> int:
    started = time.perf_counter()
    raw = None
    name = None
    params = {}
    seed = 0
    error = None
    verdicts = []
    outputs = {}
    raised = []
    try:
        raw = _read_config(args.config)
        name, params, inputs, seed, raised = _validate(raw)
    except _CliFailure as exc:
        error, raised = exc, exc.warnings
        scenario = raw.get("scenario") if isinstance(raw, dict) else None
        if isinstance(scenario, str) and scenario in SCENARIOS:
            name = scenario  # park the failure record with its scenario

    # the first root that can take the run gets it, and a root that cannot
    # hands the run's manifest on to the next
    leaf = name or "unresolved"
    for root in [Path(p) for p in (args.out, "phaselab-out") if p]:
        outdir = root / leaf
        try:
            root.mkdir(parents=True, exist_ok=True)
            if outdir.exists() and not outdir.is_dir():
                raise NotADirectoryError(f"{outdir} is not a directory")
            # the run writes into a fresh directory that replaces outdir
            # when it ends, so a rerun leaves no file of the earlier run
            staging = Path(tempfile.mkdtemp(dir=root, prefix=f".{leaf}-"))
            break
        except OSError as exc:
            error = error or _fail("config-error",
                                   f"output directory not writable: {exc}")
    else:
        _report(error)
        return _EXIT_CODES[error.kind]

    try:
        if error is None:
            try:
                results, checks, outputs, run_warnings = _execute(
                    name, inputs, seed, staging)
                raised = list(dict.fromkeys(raised + run_warnings))
                verdicts = [{"name": n, "passed": bool(ok)} for n, ok in checks]
                failing = [v["name"] for v in verdicts if not v["passed"]]
                outputs["summary.json"] = _dump_json(staging / "summary.json", {
                    "scenario": name,
                    "seed": seed,
                    "results": results,
                    "checks": verdicts,
                    "passed": not failing,
                })
                if failing:
                    error = _fail("assertion-failure",
                                  f"{len(failing)} of {len(verdicts)} built-in "
                                  f"checks failed: {failing[0]}")
            except Exception as exc:
                error = _fail("computation-error",
                              f"{type(exc).__name__}: {exc}")

        manifest = {
            "artifact_version": __version__,
            "config": {
                "scenario": name,
                "parameters": params,
                "seed": seed,
                "out_dir": str(root),
            },
            "duration_seconds": time.perf_counter() - started,
            "checks": verdicts,
            "error": None if error is None else
            {"kind": error.kind, "message": str(error)},
            "outputs": outputs,
            "warnings": raised,
        }
        try:
            _dump_json(staging / "manifest.json", manifest)
            if outdir.is_dir():
                shutil.rmtree(outdir)
            os.replace(staging, outdir)
        except OSError as exc:
            error = error or _fail("computation-error",
                                   f"cannot write outputs: {exc}")
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    if error is not None:
        _report(error)
        return _EXIT_CODES[error.kind]
    print(f"{name}: {len(verdicts)}/{len(verdicts)} checks passed "
          f"({manifest['duration_seconds']:.1f}s, outputs in {outdir})")
    return 0


def _report(error: _CliFailure) -> None:
    print(f"phaselab: {error.kind}: {error}", file=sys.stderr)


# ---------------------------------------------------------------------------
# list / check

def render_listing() -> str:
    lines = []
    for sc in SCENARIOS.values():
        lines.append(sc.name)
        lines.append(f"  {sc.description}")
        width = max((len(k) for k in sc.parameters), default=0)
        for key, entry in sc.parameters.items():
            lines.append(f"    {key:<{width}}  {entry.default!r:<26} "
                         f"[{entry.units}]")
        lines.append("")
    return "\n".join(lines)


def _check_command() -> int:
    """``phaselab run`` of each check scenario at its catalog defaults, seed
    0, into a scratch root that is removed afterwards."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in CHECK_SCENARIOS:
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps({"scenario": name}))
            if main(["run", "--config", str(config), "--out", tmp]) != 0:
                failed.append(name)
    if failed:
        print(f"phaselab: assertion-failure: {len(failed)} of "
              f"{len(CHECK_SCENARIOS)} check scenarios failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return _EXIT_CODES["assertion-failure"]
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than parsing (gettext lookups for every help string)."""
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Adiabatic-phase numerical laboratory scenario runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario from a JSON config")
    run.add_argument("--config", required=True,
                     help="path to the JSON scenario config")
    run.add_argument("--out", default=None,
                     help="output root (default: ./phaselab-out, which also "
                          "takes the manifest of a run --out cannot take)")

    sub.add_parser("list", help="list scenarios, parameters, defaults, units")
    sub.add_parser("check", help="run the fast acceptance subset")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        print(render_listing(), end="")
        return 0
    if args.command == "check":
        return _check_command()
    return _run_command(args)


if __name__ == "__main__":
    sys.exit(main())
