"""Guards: every function, class and method in src/phaselab is reached from
the program, every record field (dataclass or NamedTuple) there is read by
it, and every default there is overridden by some call of it, so no library
code, result field or one-value knob lives on for the unit tests alone.  A
dataclass there validates in ``__post_init__``; a record that checks
nothing is a NamedTuple.  And every scenario whose
run reaches a marching kernel predicts that work in its prepare, so no
scenario runs uncapped.

The scans are static (ast) and generous.  A name or ``module.name``
reference in a reachable body reaches that definition, and ``x.attr``
reaches every method called ``attr``.  The roots are ``cli.main`` and the
module-level statements of each module, which hold ``SCENARIOS``.  A
reached class brings its dunder methods.  A field counts as read when any
``x.field`` is loaded anywhere in src/phaselab.
"""

import ast
from collections import Counter
from pathlib import Path

import phaselab
from phaselab import analogs, berry, cli, qcore, scattering, scenarios

# names kept although the program does not reach them, each with its reason
ALLOWED = set()

# fields the program does not read, each with its reason
ALLOWED_FIELDS = {
    # the series streams out while the run steps; the benchmark's traced
    # pass (bench/tracing.py, the "cells" counter) counts steps from it
    "scattering.WavepacketResult.times",
}

# defaults no call in src/phaselab overrides, each with its reason
ALLOWED_KNOBS = set()


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in Path(phaselab.__file__).parent.glob("*.py")}


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _is_record(node):
    """A dataclass or a NamedTuple class: its annotated names are fields."""
    return _is_dataclass(node) or any("NamedTuple" in ast.unparse(b)
                                      for b in node.bases)


def _scan():
    trees = _trees()
    defs, methods, imports = {}, {}, {}
    for mod, tree in trees.items():
        names = imports[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (alias.name if node.module is None
                              else f"{node.module}.{alias.name}")
                    names[alias.asname or alias.name] = target
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
                if isinstance(node, ast.FunctionDef):
                    continue
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        key = f"{mod}.{node.name}.{sub.name}"
                        defs[key] = sub
                        methods.setdefault(sub.name, []).append(key)

    def refs(mod, nodes):
        found = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                found.add(imports[mod].get(node.id, f"{mod}.{node.id}"))
            elif isinstance(node, ast.Attribute):
                found.update(methods.get(node.attr, []))
                if isinstance(node.value, ast.Name):
                    # module.name, or Class.method of a class in scope
                    owner = imports[mod].get(node.value.id,
                                             f"{mod}.{node.value.id}")
                    found.add(f"{owner}.{node.attr}")
        return found

    edges = {}
    for key, node in defs.items():
        mod = key.split(".")[0]
        if isinstance(node, ast.ClassDef):
            body = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
            edges[key] = refs(mod, body + node.bases + node.decorator_list) | {
                k for k in defs if k.startswith(key + ".__")}
        else:
            edges[key] = refs(mod, [node])
    stack = ["cli.main"]
    for mod, tree in trees.items():
        stack += refs(mod, [n for n in tree.body if not isinstance(
            n, (ast.FunctionDef, ast.ClassDef))])
    reached = set()
    while stack:
        key = stack.pop()
        if key in defs and key not in reached:
            reached.add(key)
            stack += edges[key]
    return set(defs), reached


def test_library_code_is_reached_from_the_program():
    defined, reached = _scan()
    assert "qcore.StateVector.overlap" in reached  # through an attribute
    assert sorted(defined - reached - ALLOWED) == []
    assert ALLOWED <= defined - reached, "allowlisted name now reached"


def test_every_dataclass_field_is_read():
    fields, read = {}, set()
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign):
                        fields[f"{mod}.{node.name}.{sub.target.id}"] = \
                            sub.target.id
    assert "analogs.CelestialConfig.m_jupiter" in fields
    unread = {key for key, attr in fields.items() if attr not in read}
    assert sorted(unread - ALLOWED_FIELDS) == []
    assert ALLOWED_FIELDS <= unread, "allowlisted field now read"


def test_only_validating_classes_are_dataclasses():
    # a NamedTuple builds faster, and its _replace would skip a check, so
    # a dataclass is kept for the classes that check their fields, and for
    # Scenario, which bench/tracing.py rebuilds with dataclasses.replace
    plain = [f"{mod}.{node.name}" for mod, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and _is_dataclass(node)
             and "__post_init__" not in {sub.name for sub in node.body
                                         if isinstance(sub, ast.FunctionDef)}]
    assert plain == ["scenarios.Scenario"]


def _parameters(fn, bound):
    """(names a call fills by position, names with a default) of a def;
    bound drops the self or cls a method call supplies."""
    args = fn.args.posonlyargs + fn.args.args
    knobs = {a.arg for a in args[len(args) - len(fn.args.defaults):]}
    knobs |= {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
              if d is not None}
    return [a.arg for a in args[1 if bound else 0:]], knobs


def _knob_scan():
    """(knobs, passed): every "owner.name" default of a function, method or
    record field in src/phaselab, and those that some call there passes.

    A call passes a default by keyword, by position past the required
    arguments, or as a ``dataclasses.replace`` keyword (which reaches the
    field of that name in every record).  Calls resolve as generously as
    _scan: a name through the module's imports and simple aliases
    (``circ = topology.Curve3D.circle``), ``x.attr`` to every function,
    method or class called ``attr``, and a class to its record fields or
    its ``__init__``.  ``f(*pair)`` fills no named position: what the tuple
    holds is not in the source."""
    trees = _trees()
    signatures, knobs, fields, imports = {}, {}, {}, {}
    for mod, tree in trees.items():
        imports[mod] = {alias.asname or alias.name:
                        (alias.name if node.module is None
                         else f"{node.module}.{alias.name}")
                        for node in tree.body
                        if isinstance(node, ast.ImportFrom) and node.level == 1
                        for alias in node.names}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                key = f"{mod}.{node.name}"
                signatures[key], knobs[key] = _parameters(node, bound=False)
            if not isinstance(node, ast.ClassDef):
                continue
            key = f"{mod}.{node.name}"
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = "staticmethod" in map(ast.unparse,
                                                   sub.decorator_list)
                    method = f"{key}.{sub.name}"
                    signatures[method], knobs[method] = _parameters(
                        sub, bound=not static)
            if _is_record(node):
                declared = [sub for sub in node.body
                            if isinstance(sub, ast.AnnAssign)]
                fields[key] = {sub.target.id for sub in declared}
                signatures[key] = [sub.target.id for sub in declared]
                knobs[key] = {sub.target.id for sub in declared
                              if sub.value is not None}
            elif f"{key}.__init__" in signatures:
                signatures[key] = signatures[f"{key}.__init__"]
    by_name = {}
    for key in signatures:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)

    def owner(key):
        # a class call sets the knobs of its __init__
        return key if key in knobs else f"{key}.__init__"

    passed = set()
    for mod, tree in trees.items():
        aliases = {}

        def resolve(expr):
            if isinstance(expr, ast.Attribute):
                return set(by_name.get(expr.attr, []))
            if isinstance(expr, ast.Name):
                if expr.id in aliases:
                    return aliases[expr.id]
                return {imports[mod].get(expr.id, f"{mod}.{expr.id}")}
            return set()

        nodes = list(ast.walk(tree))
        for node in nodes:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, (ast.Name, ast.Attribute))):
                aliases[node.targets[0].id] = resolve(node.value)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg}
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "replace":
                passed |= {(key, kw) for key, names in fields.items()
                           for kw in keywords & names}
            filled = next((k for k, arg in enumerate(node.args)
                           if isinstance(arg, ast.Starred)), len(node.args))
            for key in resolve(node.func) & set(signatures):
                names = signatures[key]
                passed |= {(owner(key), kw)
                           for kw in keywords | set(names[:filled])}
    return ({f"{key}.{name}" for key, names in knobs.items()
             for name in names},
            {f"{key}.{name}" for key, name in passed})


def test_every_default_is_overridden_by_the_program():
    knobs, passed = _knob_scan()
    # through the alias circ = topology.Curve3D.circle
    assert "topology.Curve3D.circle.turns" in passed
    assert "scenarios.Parameter.kind" in knobs  # a NamedTuple default
    fixed = knobs - passed
    assert sorted(fixed - ALLOWED_KNOBS) == []
    assert ALLOWED_KNOBS <= fixed, "allowlisted default now passed"


# the scenarios that are slow at their defaults run at the benchmark's sizes
FAST = {"rect-loop": {"transport_step": 0.04},
        "pendulum-msw": {"rate_scale": 10.0},
        "celestial-frozen": {"nodes": 16},
        "celestial-residual": {"nodes": 16}}

# unit: (module, kernel, the unit's amount in one call).  A run that calls
# one of the first five kernels must have predicted its unit; bytes bound
# the solve_ivp lanes' memory, so that kernel's calls count none.
KERNELS = {
    "propagator steps": (qcore, "_march", lambda u, *args: u.shape[-1]),
    "Magnus steps": (analogs, "_magnus_run",
                     lambda system, times, substeps:
                     (len(times) - 1) * substeps),
    "cell updates": (scattering, "wavepacket_run", lambda *args: 0),
    "orbit periods": (analogs, "_integrate",
                      lambda cfg, angle, t_max, *args:
                      t_max / analogs.KEPLER_PERIOD),
    "bytes": (analogs, "solve_ivp", lambda *args: 0),
    "Wilson samples": (berry, "wilson_loop_phase", len),
    "angular-momentum integrals": (berry, "_angular_momentum_integral",
                                   lambda *args: 1),
}
MARCHING = ("propagator steps", "Magnus steps", "cell updates",
            "orbit periods", "bytes")


def test_every_scenario_predicts_its_work(monkeypatch, scenario):
    # the catalog run the scenario fixture caches, not a second 10 s one
    wavepacket_rows = len(scenario("scatter-wavepacket")[2]["timeseries.csv"]
                          ["time"])
    check_work = scenarios._check_work

    def recording(unit, amount):
        predicted[unit] += amount
        check_work(unit, amount)

    def counting(unit, kernel, work):
        def wrapper(*args, **kwargs):
            reached.add(unit)
            counted[unit] += work(*args)
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "_check_work", recording)
    for unit, (module, name, work) in KERNELS.items():
        monkeypatch.setattr(module, name,
                            counting(unit, getattr(module, name), work))
    wrong = []
    for name, sc in scenarios.SCENARIOS.items():
        predicted, counted, reached = Counter(), Counter(), set()
        _, _, inputs, seed, _ = cli._validate(
            {"scenario": name, "parameters": FAST.get(name, {})})
        if name == "scatter-wavepacket":
            counted["cell updates"] = (inputs[1].grid_points
                                       * (wavepacket_rows - 1))
            reached.add("cell updates")
        else:
            sc.runner(inputs, seed, lambda *args: None)
        wrong += [(name, unit, "not predicted") for unit in MARCHING
                  if unit in reached and unit not in predicted]
        for unit, amount in predicted.items():
            if unit == "Magnus steps":
                # doublings add steps to those the sweeps start with
                ok = amount <= counted[unit]
            else:
                ok = unit == "bytes" or amount == counted[unit]
            if not ok:
                wrong.append((name, unit, amount, counted[unit]))
    assert wrong == []
