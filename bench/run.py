"""phaselab benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a phaselab tree; the benchmark imports phaselab from
that tree's ``src``.  Metric names and units come from ``BENCHMARK.json``
at the root, the workloads from ``bench/spec.json``.

``--trace 0`` spawns set-up probes (fresh interpreters that only import
phaselab) and then untraced passes, each a fresh interpreter that runs the
workload's scenario configs one after another.  The run spends about
``--seconds`` in all: it starts another pass only while the elapsed time
plus the longest pass so far stays within ``--seconds``, and it always
measures two passes unless the first took more than
``SECOND_PASS_SHARE`` of ``--seconds``.  It prints the median set-up
time, pass wall time, pass CPU time and peak RSS.

``--trace 1`` runs two traced passes and prints the per-layer metrics of
the first.  The two must agree on every count in
``tracing.REPEATABLE_COUNTS``.  The tracing overhead is the traced wall
time minus the median untraced ``wall_s`` of the same workload, which
``collect.py`` reports.

Every run checks the outputs: a scenario run fails if it exits non-zero
or raises, leaves no manifest, or its manifest's sha256 inventory differs
from the first run of the same config in this invocation, which is the
same config in an earlier pass.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics; the lines
before it give the environment and a readable summary with fail_frac.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "spec.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Times are scaled to the machine speed at which the worker's reference
# kernel takes REFERENCE_S: on a shared machine whose speed drifts by a
# third over minutes, the kernel, timed in the same process just before and
# after the pass, drifts with it.  0.12 s is about the kernel's median in
# the workers on the 2-vCPU machine of the baseline.
REFERENCE_S = 0.12
SETUP_PROBES = 4
TRACED_PASSES = 2
# a second pass gives the determinism gate something to compare; 0.6 keeps
# it for a pass slowed by the machine's drift, but not for
# wavepacket-ledger, whose single pass fills a run
SECOND_PASS_SHARE = 0.6
LAYER_SUM_TOLERANCE = 0.01  # share of the traced pass's wall time
RUN_DEADLINE_S = 170.0
SCENARIO_NAMES = [name for w in SPEC["workloads"].values()
                  for name in w["scenarios"]]


class BenchError(Exception):
    pass


def configs_for(workload: str, seed: int) -> list[dict]:
    """The configs of one pass.  The seed orders the runs and is every
    config's seed; with several rounds, each round takes one of two seeds
    drawn from it, so later rounds repeat earlier configs and the
    determinism check has something to compare.  A scenario named in the
    workload's ``fixed_seeds`` always gets that seed instead."""
    spec = SPEC["workloads"][workload]
    fixed = spec.get("fixed_seeds", {})
    rng = random.Random(seed)
    rounds = spec["rounds"]
    seeds = [seed] if rounds == 1 else [rng.randrange(2 ** 31) for _ in range(2)]
    configs = []
    for r in range(rounds):
        names = list(spec["scenarios"])
        rng.shuffle(names)
        configs += [{"scenario": name,
                     "parameters": spec["parameters"].get(name, {}),
                     "seed": fixed.get(name, seeds[r % len(seeds)])}
                    for name in names]
    return configs


class Runner:
    """Spawns worker passes into one scratch directory inside the tree."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def spawn(self, configs: list[dict], trace: bool = False) -> dict:
        self.count += 1
        tag = f"pass-{self.count:03d}"
        job = {"src": str(ROOT / "src"), "out": str(self.scratch / tag),
               "configs": configs, "trace": trace, "pass_id": tag}
        job_path = self.scratch / f"{tag}.job.json"
        result_path = self.scratch / f"{tag}.result.json"
        job_path.write_text(json.dumps(job))
        (self.scratch / tag).mkdir()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline reached before the pass started")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(job_path),
                 str(result_path)],
                cwd=self.scratch, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} did not finish before the run deadline")
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{tag} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(result_path.read_text())


def check_runs(passes: list[dict]) -> tuple[int, int, int, list[str]]:
    """Apply the failure rule to every run of every pass, in order.
    Returns attempted, failed, the number of runs whose inventory was
    compared with an earlier run of their config, and the reasons."""
    reference: dict[str, dict] = {}
    attempted = failed = compared = 0
    reasons = []
    for p in passes:
        for run in p["runs"]:
            attempted += 1
            key = json.dumps(run["config"], sort_keys=True)
            name = run["config"]["scenario"]
            if run["error"] is not None or run["exit"] != 0:
                reason = f"{name}: exit {run['exit']} {run['error'] or ''}"
            elif run["outputs"] is None:
                reason = f"{name}: no manifest"
            elif key not in reference:
                reference[key] = run["outputs"]
                continue
            else:
                compared += 1
                if reference[key] == run["outputs"]:
                    continue
                reason = f"{name}: outputs differ from the first run of its config"
            failed += 1
            reasons.append(reason.strip())
    return attempted, failed, compared, reasons


def measure(runner: Runner, configs: list[dict], seconds: float):
    start = time.monotonic()
    probes = [runner.spawn([]) for _ in range(SETUP_PROBES)]
    setups = [(p["setup_s"], p) for p in probes]
    passes = []
    longest = 0.0
    while True:
        began = time.monotonic()
        p = runner.spawn(configs)
        longest = max(longest, time.monotonic() - began)
        passes.append(p)
        setups.append((p["setup_s"], p))
        if len(passes) == 1 and longest <= SECOND_PASS_SHARE * seconds:
            continue
        if time.monotonic() - start + longest > seconds:
            break
    values = {
        "setup_s": statistics.median(s * at_reference(p) for s, p in setups),
        "wall_s": statistics.median(p["wall_s"] * at_reference(p) for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] * at_reference(p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    unscaled = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "reference_s": statistics.median(p["reference_s"] for _, p in setups),
    }
    print("unscaled: " + json.dumps(unscaled, sort_keys=True))
    notes = [f"{len(passes)} passes, {len(setups)} set-up samples, "
             f"{time.monotonic() - start:.1f} s",
             f"reference kernel median {unscaled['reference_s']:.4g} s "
             f"against {REFERENCE_S} s"]
    return passes, declared("end_to_end", values), notes, []


def at_reference(process: dict) -> float:
    """Factor that scales a time measured in ``process`` to the machine
    speed at which the reference kernel takes ``REFERENCE_S``."""
    return REFERENCE_S / process["reference_s"]


def trace(runner: Runner, configs: list[dict]):
    passes = [runner.spawn(configs, trace=True) for _ in range(TRACED_PASSES)]
    values = []
    for i, p in enumerate(passes, 1):
        t = p["trace"]
        v = tracing.summarize(t["spans"], t["counts"], SCENARIO_NAMES,
                              t["absent"])
        v["cli.bytes_written"] = sum(r["bytes"] for r in p["runs"])
        v["trace.wall_s"] = p["wall_s"] * at_reference(p)
        layers = {k: x for k, x in v.items() if k.startswith("layer_self.")}
        if min(layers.values()) < -1e-6:
            raise BenchError(f"traced pass {i}: negative layer self time, "
                             f"so spans overlap: {layers}")
        gap = sum(layers.values()) - p["wall_s"]
        if abs(gap) > LAYER_SUM_TOLERANCE * p["wall_s"]:
            raise BenchError(f"traced pass {i}: layer self times sum to "
                             f"{sum(layers.values())} s, the pass's wall "
                             f"clock reads {p['wall_s']} s")
        values.append(v)
    mismatches = [f"{k}: {values[0][k]} then {values[1][k]}"
                  for k in tracing.REPEATABLE_COUNTS
                  if values[0][k] != values[1][k]]
    t = passes[0]["trace"]
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    notes = [f"traced passes {walls} s",
             f"absent hooks: {t['absent'] or 'none'}",
             "repeatable counts: " + ", ".join(
                 f"{k} {values[0][k]:g}" for k in tracing.REPEATABLE_COUNTS)]
    if t["count_errors"]:
        notes.append(f"counters that could not read their arguments: "
                     f"{t['count_errors']}")
    return passes, declared("per_layer", values[0]), notes, mismatches


def declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with units."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in DECLARED[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        print(f"bench: no phaselab source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    configs = configs_for(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        runner = Runner(scratch, deadline)
        if args.trace:
            passes, metrics, notes, mismatches = trace(runner, configs)
        else:
            passes, metrics, notes, mismatches = measure(runner, configs,
                                                         args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, compared, reasons = check_runs(passes)
    print("env: " + json.dumps(passes[-1]["env"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(f"  {'fail_frac':<44} {failed / attempted:.6g} "
          f"({failed} of {attempted} runs failed; {compared} inventories "
          f"compared with an earlier pass)")
    for reason in reasons:
        print(f"  failed: {reason}")
    for mismatch in mismatches:
        print(f"  count differs between traced passes: {mismatch}")
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
