"""Command line front end: run named scenarios, list them, or smoke-check.

Exit codes: 0 all built-in checks passed, 1 a check failed, 2 the config
was rejected before any computation, 3 the computation itself raised.
Every run leaves a manifest.json (resolved config, checks, output digests,
error record) in the output directory, even when it fails; the one-line
reason goes to stderr as ``phaselab: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
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


def _fail(kind: str, message: str) -> _CliFailure:
    return _CliFailure(kind, " ".join(str(message).split()))


# ---------------------------------------------------------------------------
# config handling

def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _fail("config-error", f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
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
        if schema_entry.parse is not None:
            schema_entry.parse(coerced)
        return coerced
    except (TypeError, ValueError) as exc:
        raise _fail("config-error",
                    f"parameter '{name}' of scenario '{scenario}' "
                    f"rejects {value!r}: {exc}")


def _validate(raw: dict, seed_override):
    """Resolve (scenario, parameters, seed) or raise before any computation."""
    known_top = {"scenario", "parameters", "seed", "out_dir"}
    for key in raw:
        if key not in known_top:
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

    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise _fail("config-error", f"seed must be an unsigned integer, got {seed!r}")
    return name, params, seed


def _resolve_root(cli_out, raw) -> Path:
    if cli_out:
        return Path(cli_out)
    if isinstance(raw, dict) and isinstance(raw.get("out_dir"), str):
        return Path(raw["out_dir"])
    env = os.environ.get("PHASELAB_OUT")
    if env:
        return Path(env)
    return Path("phaselab-out")


# ---------------------------------------------------------------------------
# output files

def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, columns) -> None:
    """Header line, units line, then rows at 17 significant digits."""
    arrays = [np.asarray(col[2]) for col in columns]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise PhaseLabError("csv columns of unequal length")
    lines = [",".join(col[0] for col in columns),
             ",".join(col[1] for col in columns)]
    for i in range(length):
        lines.append(",".join(_format_cell(a[i]) for a in arrays))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonable(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2)
                    + "\n", newline="\n")


# ---------------------------------------------------------------------------
# execution

def _execute(name: str, params: dict, seed: int, outdir: Path):
    """Run one scenario into outdir; returns (results, checks, inventory)."""
    outputs = {}

    def emit(filename: str, columns) -> None:
        if "/" in filename or "\\" in filename or filename.startswith("."):
            raise PhaseLabError(f"bad output filename {filename!r}")
        target = outdir / filename
        _write_csv(target, columns)
        outputs[filename] = _sha256(target)

    results, checks = SCENARIOS[name].runner(params, seed, emit)
    return results, checks, outputs


def _run_command(args) -> int:
    started = time.perf_counter()
    raw = None
    name = None
    params = {}
    seed = 0
    error = None
    checks = []
    outputs = {}
    status = 0
    try:
        raw = _read_config(args.config)
        name, params, seed = _validate(raw, args.seed)
    except _CliFailure as exc:
        error, status = exc, _EXIT_CODES[exc.kind]
        if isinstance(raw, dict) and raw.get("scenario") in SCENARIOS:
            name = raw["scenario"]  # park the failure record with its scenario

    root = _resolve_root(args.out, raw)
    outdir = root / (name if name else "unresolved")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        # a failed rerun must not leave an earlier run's verdict behind
        (outdir / "summary.json").unlink(missing_ok=True)
    except OSError as exc:
        error = error or _fail("config-error",
                               f"output directory not writable: {exc}")
        status = status or _EXIT_CODES[error.kind]
        _report(error)
        return status

    if error is None:
        try:
            results, checks, outputs = _execute(name, params, seed, outdir)
            summary = {
                "scenario": name,
                "seed": seed,
                "results": results,
                "checks": [{"name": n, "passed": bool(ok)}
                           for n, ok in checks],
                "passed": all(ok for _, ok in checks),
            }
            _dump_json(outdir / "summary.json", summary)
            outputs["summary.json"] = _sha256(outdir / "summary.json")
            if not summary["passed"]:
                failing = [n for n, ok in checks if not ok]
                error = _fail("assertion-failure",
                              f"{len(failing)} of {len(checks)} built-in "
                              f"checks failed: {failing[0]}")
                status = _EXIT_CODES["assertion-failure"]
        except Exception as exc:
            error = _fail("computation-error",
                          f"{type(exc).__name__}: {exc}")
            status = _EXIT_CODES["computation-error"]

    manifest = {
        "artifact_version": __version__,
        "config": {
            "scenario": name,
            "parameters": params,
            "seed": seed,
            "out_dir": str(root),
        },
        "duration_seconds": time.perf_counter() - started,
        "checks": [{"name": n, "passed": bool(ok)} for n, ok in checks],
        "error": None if error is None else
        {"kind": error.kind, "message": str(error)},
        "outputs": outputs,
    }
    try:
        _dump_json(outdir / "manifest.json", manifest)
    except OSError as exc:
        error = error or _fail("computation-error",
                               f"cannot write manifest: {exc}")
        status = status or _EXIT_CODES[error.kind]

    if error is not None:
        _report(error)
        return status
    passed = sum(1 for _, ok in checks if ok)
    print(f"{name}: {passed}/{len(checks)} checks passed "
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
        width = max(len(k) for k in sc.parameters)
        for key, entry in sc.parameters.items():
            lines.append(f"    {key:<{width}}  {entry.default!r:<26} "
                         f"[{entry.units}]")
        lines.append("")
    return "\n".join(lines)


def _check_command() -> int:
    failures = 0
    for name in CHECK_SCENARIOS:
        schema = SCENARIOS[name].parameters
        params = {k: entry.default for k, entry in schema.items()}
        params = {k: _coerce(k, name, schema[k], v) for k, v in params.items()}
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                _, checks, _ = _execute(name, params, 0, Path(tmp))
            except Exception as exc:
                print(f"{name}: ERROR {type(exc).__name__}: {exc}")
                failures += 1
                continue
        passed = sum(1 for _, ok in checks if ok)
        verdict = "pass" if passed == len(checks) else "FAIL"
        print(f"{name}: {verdict} ({passed}/{len(checks)} checks, "
              f"{time.perf_counter() - t0:.1f}s)")
        if passed != len(checks):
            failures += 1
    if failures:
        print(f"phaselab: assertion-failure: {failures} check scenario(s) "
              "failed", file=sys.stderr)
        return _EXIT_CODES["assertion-failure"]
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Adiabatic-phase numerical laboratory scenario runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario from a JSON config")
    run.add_argument("--config", required=True,
                     help="path to the JSON scenario config")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out", default=None,
                     help="output root (default: config out_dir, then "
                          "$PHASELAB_OUT, then ./phaselab-out)")

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
