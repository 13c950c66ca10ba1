"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py JOB.json RESULT.json

The job names the tree's ``src`` directory, an out root and the scenario
configs of the pass (none for a set-up probe).  The worker times the import
of phaselab.cli and phaselab.scenarios, runs each config through
``phaselab.cli.main(["run", "--config", ..., "--out", ...])`` one after
another, and writes wall time, CPU time, peak RSS, the environment and one
record per run to RESULT.json.  It also times a fixed reference kernel
after the import, and again after the pass, so that ``run.py`` can scale
the times to one machine speed.  A traced job also installs the wrappers
of ``tracing`` and writes the spans.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

REFERENCE_REPS = 3


def _reference_kernel() -> float:
    """Seconds one run of a fixed kernel takes.  It does the kinds of work
    the workloads do: DOP853 with a Python right-hand side, a Python loop
    of 2x2 complex products, and SuperLU solves of a tridiagonal system.
    It calls nothing of phaselab, so only the speed of the machine moves
    it."""
    import numpy as np
    from scipy.integrate import solve_ivp
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu
    start = time.perf_counter()
    solve_ivp(lambda t, y: [y[1], -y[0] - 0.1 * y[1] ** 3], (0.0, 100.0),
              [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    u = np.eye(2, dtype=complex)
    for k in range(5000):
        c, s = np.cos(k * 1e-3), np.sin(k * 1e-3)
        u = np.array([[c, -1j * s], [-1j * s, c]]) @ u
    n = 3200
    lu = splu(diags([np.full(n - 1, -1.0 + 0j), np.full(n, 2.0 + 0.5j),
                     np.full(n - 1, -1.0 + 0j)], [-1, 0, 1], format="csc"))
    v = np.ones(n, dtype=complex)
    for _ in range(200):
        v = lu.solve(v)
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_one(cli, config: dict, run_dir: Path) -> dict:
    run_dir.mkdir()
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config))
    out = run_dir / "out"
    record = {"config": config, "exit": None, "error": None,
              "outputs": None, "bytes": 0}
    try:
        record["exit"] = cli.main(["run", "--config", str(config_path),
                                   "--out", str(out)])
    except SystemExit as exc:
        record["exit"] = exc.code
    except Exception as exc:  # a raising run is a failed run, not a crash
        record["error"] = f"{type(exc).__name__}: {exc}"
    manifest = out / config["scenario"] / "manifest.json"
    try:
        outputs = json.loads(manifest.read_text()).get("outputs")
    except (OSError, ValueError, AttributeError):
        return record
    record["outputs"] = outputs
    if isinstance(outputs, dict):
        record["bytes"] = sum((manifest.parent / name).stat().st_size
                              for name in outputs
                              if (manifest.parent / name).is_file())
    return record


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import phaselab.cli
    import phaselab.scenarios
    setup_s = time.perf_counter() - start

    import phaselab
    import numpy
    import scipy
    location = Path(phaselab.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"bench worker: imported phaselab from {location}, "
                         f"not from the tree under test {src}")
    result = {
        "setup_s": setup_s,
        "env": {
            "phaselab_file": str(location),
            "phaselab_version": getattr(phaselab, "__version__", None),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "runs": [],
    }
    reference = [_reference_kernel() for _ in range(REFERENCE_REPS)]

    configs = job["configs"]
    if configs:
        out = Path(job["out"])
        cli = phaselab.cli

        def run_pass():
            return [_run_one(cli, cfg, out / f"run-{i:03d}")
                    for i, cfg in enumerate(configs)]

        recorder = None
        if job["trace"]:
            recorder = tracing.Recorder(job["pass_id"])
            tracing.install(recorder)
            run_pass = recorder.wrap(run_pass, "bench.pass", "bench")

        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        result["runs"] = run_pass()
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if recorder is not None:
            result["trace"] = {"spans": recorder.spans,
                               "counts": dict(recorder.counts),
                               "absent": recorder.absent,
                               "count_errors": dict(recorder.count_errors)}
        reference += [_reference_kernel() for _ in range(REFERENCE_REPS)]
    result["reference_s"] = statistics.median(reference)

    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
