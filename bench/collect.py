"""Take the benchmark's baseline and write it to bench/baseline.json.

    python3 bench/collect.py

The procedure is fixed.  For seeds 1 to 10 (outer loop) and every workload
of BENCHMARK.json (inner loop, so slow drift of the machine spreads over
all workloads alike) it runs one untraced measurement of run_seconds.
Then it runs two traced measurements of seed 1 per workload and checks
that they report the same value for every count in
``tracing.REPEATABLE_COUNTS``.  Per workload and end-to-end metric it
reports the median, the quartiles from ``statistics.quantiles(values,
n=4)`` and the spread (q3 - q1) / median, flagging a spread that is not
below a third of the metric's bound, and the same for the unscaled times
and the time each run took.  Each traced run's overhead is its wall time
minus the untraced median wall_s.  It exits non-zero if a run
fails or is not correct, or if the traced counts differ.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = DECLARED["run_seconds"]
SEEDS = range(1, 11)
TRACED_RUNS = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} is not "
                         f"correct:\n{proc.stdout[-2000:]}")
    tagged = {tag: json.loads(line[len(tag) + 2:]) for line in lines
              for tag in ("env", "unscaled") if line.startswith(tag + ": ")}
    return {"seed": seed, "run_s": time.monotonic() - start, **tagged,
            **result}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    workloads = [w["name"] for w in DECLARED["workloads"]]
    started = time.time()
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(bench(w, seed, 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[w][-1]["metrics"].items())
                + f"; run took {runs[w][-1]['run_s']:.1f} s", flush=True)
    traced = {w: [bench(w, SEEDS[0], 1) for _ in range(TRACED_RUNS)]
              for w in workloads}

    env = dict(runs[workloads[0]][0]["env"])
    # the baseline names the measured copy relative to the tree it lives in
    env["phaselab_file"] = str(Path(env["phaselab_file"]).relative_to(ROOT))
    report = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
              "elapsed_s": time.time() - started,
              "seconds": SECONDS, "seeds": list(SEEDS),
              "env": env, "workloads": {}}
    differing = []
    print(f"\n{'workload':<18} {'metric':<12} {'median':>10} {'spread':>8} "
          f"{'bound/3':>8}")
    for w in workloads:
        entry = {"attempted": sum(r["attempted"] for r in runs[w]),
                 "failed": sum(r["failed"] for r in runs[w]),
                 "end_to_end": {}}
        for m in DECLARED["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = spread([r["metrics"][name]["value"] for r in runs[w]])
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- not steady"
            print(f"{w:<18} {name:<12} {stats['median']:>10.4g} "
                  f"{stats['spread']:>8.3f} {bound / 3:>8.3f}{flag}")
        entry["unscaled"] = {name: spread([r["unscaled"][name] for r in runs[w]])
                             for name in runs[w][0]["unscaled"]}
        entry["run_s"] = spread([r["run_s"] for r in runs[w]])
        print(f"{w:<18} unscaled wall_s spread "
              f"{entry['unscaled']['wall_s']['spread']:.3f}, runs took "
              f"{min(entry['run_s']['values']):.1f}-"
              f"{max(entry['run_s']['values']):.1f} s")
        walls = entry["end_to_end"]["wall_s"]["median"]
        entry["cpu_over_wall"] = entry["end_to_end"]["cpu_s"]["median"] / walls
        entry["traced"] = []
        for r in traced[w]:
            metrics = {k: v["value"] for k, v in r["metrics"].items()}
            entry["traced"].append({
                "seed": r["seed"], "attempted": r["attempted"],
                "overhead_s": metrics["trace.wall_s"] - walls,
                "metrics": metrics})
            print(f"{w:<18} traced seed {r['seed']}: wall "
                  f"{metrics['trace.wall_s']:.4g} s, overhead over the "
                  f"untraced median {metrics['trace.wall_s'] - walls:+.3g} s")
        first, second = (t["metrics"] for t in entry["traced"])
        entry["repeatable_counts_equal"] = all(
            first[k] == second[k] for k in tracing.REPEATABLE_COUNTS)
        if not entry["repeatable_counts_equal"]:
            differing.append(w)
        report["workloads"][w] = entry
    (BENCH / "baseline.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    if differing:
        raise SystemExit(f"traced runs report different counts on {differing}")


if __name__ == "__main__":
    main()
