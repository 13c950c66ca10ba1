"""Spans and counters for a traced pass, recorded from outside phaselab.

A traced pass replaces module attributes of the tree being measured (and
the runners in its scenario catalog) with wrappers that record one span
per call, or only count calls where a span per call would cost more than
the call itself.  phaselab's source is not touched.  Spans stay in memory
and are written with the pass result; ``summarize`` turns them into the
per-layer metrics.

Wrappers take ``*args, **kwargs`` so a changed signature does not break
them, and a hooked name the tree no longer has is reported as absent.
Spans nest through one stack, which holds because a pass runs every
scenario on one thread (``--jobs`` is never passed).
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
import time
from collections import Counter

# (module, attribute, span name, layer, counter function or None)
SPAN_HOOKS = [
    ("phaselab.cli", "main", "cli.run", "cli", None),
    ("phaselab.qcore", "evolve", "qcore.propagate", "qcore", "steps"),
    ("phaselab.qcore", "evolve_with_energy", "qcore.propagate", "qcore", "steps"),
    ("phaselab.qcore", "evolve_trajectory", "qcore.propagate", "qcore", "steps"),
    ("phaselab.qcore", "phase_decompose", "qcore.propagate", "qcore", "steps"),
    ("phaselab.berry", "wilson_loop_phase", "berry.wilson", "berry", "samples"),
    ("phaselab.berry", "field_angular_momentum", "berry.quadrature", "berry", None),
    ("phaselab.topology", "linking_number", "topology.linking", "topology", "segment_pairs"),
    ("phaselab.topology", "gauss_linking_sum", "topology.linking", "topology", "segment_pairs"),
    ("phaselab.topology", "real_field_loop_phase", "topology.loop_phase", "topology", None),
    ("phaselab.abduality", "duality_report", "abduality.report", "abduality", None),
    ("phaselab.scattering", "wavepacket_run", "scattering.wavepacket", "scattering", "cells"),
    ("phaselab.analogs", "pendulum_sweep", "analogs.pendulum_sweep", "analogs", None),
    ("phaselab.analogs", "celestial_frozen_period", "analogs.frozen_period", "analogs", None),
    ("phaselab.analogs", "celestial_adiabatic_residual", "analogs.residual", "analogs", None),
    ("phaselab.analogs", "two_level_sweep", "analogs.two_level_sweep", "analogs", None),
    ("phaselab.analogs", "rectangular_loop_phase", "analogs.rect_loop", "analogs", None),
    ("phaselab.analogs", "solve_ivp", "ode", "ode", "nfev"),
]

# (module, attribute, counter): counted only, no span
COUNT_HOOKS = [
    ("phaselab.qcore", "HamiltonianSchedule.operator", "qcore.schedule.evals"),
    ("phaselab.qcore", "instantaneous_eigensystem", "qcore.eigensystem.calls"),
]

LAYERS = ("bench", "cli", "scenarios", "qcore", "berry", "topology",
          "abduality", "scattering", "analogs", "ode")

# counts that two traced passes of one run must report identically
REPEATABLE_COUNTS = ("qcore.propagate.steps", "qcore.schedule.evals",
                     "berry.wilson.samples", "scattering.wavepacket.cn_steps",
                     "scattering.lu_solve.calls", "ode.nfev",
                     "topology.linking.segment_pairs", "cli.bytes_written")


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _steps(args, kwargs, result):
    schedule = _arg(args, kwargs, 0, "schedule")
    step = _arg(args, kwargs, 2, "step")
    return {"qcore.propagate.steps": math.ceil(schedule.duration / step)}


def _samples(args, kwargs, result):
    return {"berry.wilson.samples": len(_arg(args, kwargs, 0, "directions"))}


def _segment_pairs(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return {"topology.linking.segment_pairs":
            (len(a.points) - 1) * (len(b.points) - 1)}


def _cells(args, kwargs, result):
    steps = len(result.times) - 1
    grid = _arg(args, kwargs, 0, "run").grid_points
    return {"scattering.wavepacket.cn_steps": steps,
            "scattering.wavepacket.cell_updates": steps * grid}


def _nfev(args, kwargs, result):
    return {"ode.nfev": result.nfev}


COUNTERS = {"steps": _steps, "samples": _samples,
            "segment_pairs": _segment_pairs, "cells": _cells, "nfev": _nfev}


class Recorder:
    """Spans [name, layer, start, end, parent, pass id, outermost] and counts.

    ``outermost`` is false for a span nested in a span of the same name
    (linking_number calls gauss_linking_sum); durations and counters are
    taken from outermost spans only, so nesting never counts work twice.
    """

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.count_errors: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def wrap(self, fn, name, layer, counter=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        counts, errors, pass_id = self.counts, self.count_errors, self.pass_id
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outermost = not open_names[name]
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   pass_id, outermost]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] += 1
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                open_names[name] -= 1
            if outermost:
                counts[name + ".calls"] += 1
                if counter is not None:
                    try:
                        counts.update(counter(args, kwargs, result))
                    except (AttributeError, IndexError, KeyError, TypeError,
                            ZeroDivisionError):
                        errors[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(original, replacement) -> None:
    """Replace ``original`` wherever a phaselab module binds it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "phaselab"
                               or mod_name.startswith("phaselab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _lookup(module_name, dotted):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None, None
    owner = obj
    for part in dotted.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


class _TracedLU:
    """Factorization returned by splu, with ``solve`` recorded."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def install(rec: Recorder) -> None:
    """Install every hook into the already imported phaselab modules."""
    for module_name, attr, name, layer, counter in SPAN_HOOKS:
        _, original = _lookup(module_name, attr)
        if original is None:
            rec.absent.append(f"{module_name}.{attr}")
            continue
        _rebind(original, rec.wrap(original, name, layer,
                                   COUNTERS.get(counter)))

    for module_name, attr, key in COUNT_HOOKS:
        owner, original = _lookup(module_name, attr)
        if original is None:
            rec.absent.append(f"{module_name}.{attr}")
            continue
        wrapped = rec.tally(original, key)
        if isinstance(owner, type):
            setattr(owner, attr.rsplit(".", 1)[1], wrapped)
        else:
            _rebind(original, wrapped)

    _, splu = _lookup("phaselab.scattering", "splu")
    if splu is None:
        rec.absent.append("phaselab.scattering.splu")
    else:
        def traced_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _TracedLU(lu, rec.wrap(lu.solve, "scattering.lu_solve",
                                          "scattering"))
        _rebind(splu, traced_splu)

    _, catalog = _lookup("phaselab.scenarios", "SCENARIOS")
    if catalog is None:
        rec.absent.append("phaselab.scenarios.SCENARIOS")
        return
    for scenario_name, scenario in list(catalog.items()):
        runner = getattr(scenario, "runner", None)
        if runner is None:
            rec.absent.append(f"phaselab.scenarios.SCENARIOS[{scenario_name}].runner")
            continue
        catalog[scenario_name] = dataclasses.replace(
            scenario, runner=_traced_runner(rec, runner, scenario_name))


def _traced_runner(rec, runner, scenario_name):
    """Runner span; every callable argument (the ``emit`` callback) is
    recorded as a cli.emit span beneath it."""
    def call(*args, **kwargs):
        args = [rec.wrap(a, "cli.emit", "cli") if callable(a) else a
                for a in args]
        kwargs = {k: rec.wrap(v, "cli.emit", "cli") if callable(v) else v
                  for k, v in kwargs.items()}
        return runner(*args, **kwargs)
    return rec.wrap(call, f"scenarios.{scenario_name}", "scenarios")


# ---------------------------------------------------------------------------
# analysis (runs in the parent on the written spans)

def summarize(spans, counts, scenario_names, absent) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, because spans nest
    through a single stack.  Every span belongs to one layer, so the
    layer self times add up to the root span, which is the pass; the
    caller compares that sum with the pass's own wall clock.
    """
    counts = Counter(counts)
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = Counter()
    self_by_name = Counter()
    self_by_layer = Counter()
    for i, (name, layer, start, end, _, _, outermost) in enumerate(spans):
        own = (end - start) - child[i]
        self_by_name[name] += own
        self_by_layer[layer] += own
        if outermost:
            total[name] += end - start

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    runner_s = sum(total[f"scenarios.{n}"] for n in scenario_names)
    m = {
        "cli.run.s": total["cli.run"],
        "cli.self.s": total["cli.run"] - runner_s,
        "cli.emit.s": total["cli.emit"],
        "cli.emit.calls": counts["cli.emit.calls"],
    }
    for n in scenario_names:
        m[f"scenarios.{n}.s"] = total[f"scenarios.{n}"]
    steps = counts["qcore.propagate.steps"]
    cn_steps = counts["scattering.wavepacket.cn_steps"]
    cells = counts["scattering.wavepacket.cell_updates"]
    nfev = counts["ode.nfev"]
    m.update({
        "qcore.propagate.calls": counts["qcore.propagate.calls"],
        "qcore.propagate.s": total["qcore.propagate"],
        "qcore.propagate.steps": steps,
        "qcore.propagate.ns_per_step": ratio(total["qcore.propagate"], steps, 1e9),
        "qcore.schedule.evals": counts["qcore.schedule.evals"],
        "qcore.eigensystem.calls": counts["qcore.eigensystem.calls"],
        "berry.wilson.calls": counts["berry.wilson.calls"],
        "berry.wilson.samples": counts["berry.wilson.samples"],
        "berry.wilson.s": total["berry.wilson"],
        "berry.quadrature.calls": counts["berry.quadrature.calls"],
        "berry.quadrature.s": total["berry.quadrature"],
        "topology.linking.s": total["topology.linking"],
        "topology.linking.segment_pairs": counts["topology.linking.segment_pairs"],
        "topology.loop_phase.calls": counts["topology.loop_phase.calls"],
        "topology.loop_phase.s": total["topology.loop_phase"],
        "abduality.report.calls": counts["abduality.report.calls"],
        "abduality.report.s": total["abduality.report"],
        "scattering.wavepacket.s": total["scattering.wavepacket"],
        "scattering.wavepacket.self_s": self_by_name["scattering.wavepacket"],
        "scattering.wavepacket.cn_steps": cn_steps,
        "scattering.wavepacket.grid_points": ratio(cells, cn_steps),
        "scattering.wavepacket.cell_updates_per_s":
            ratio(cells, total["scattering.wavepacket"]),
        "scattering.lu_solve.calls": counts["scattering.lu_solve.calls"],
        "scattering.lu_solve.s": total["scattering.lu_solve"],
        "analogs.pendulum_sweep.s": total["analogs.pendulum_sweep"],
        "analogs.frozen_period.calls": counts["analogs.frozen_period.calls"],
        "analogs.frozen_period.s": total["analogs.frozen_period"],
        "analogs.residual.s": total["analogs.residual"],
        "analogs.two_level_sweep.s": total["analogs.two_level_sweep"],
        "analogs.rect_loop.s": total["analogs.rect_loop"],
        "ode.calls": counts["ode.calls"],
        "ode.nfev": nfev,
        "ode.s": total["ode"],
        "ode.us_per_rhs": ratio(total["ode"], nfev, 1e6),
    })
    for layer in LAYERS:
        m[f"layer_self.{layer}.s"] = self_by_layer[layer]
    m["trace.absent_hooks"] = len(absent)
    return m
