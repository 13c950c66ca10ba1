"""Guards: every function, class and method in src/phaselab is reached from
the program, and every dataclass field there is read by it, so no library
code or result field lives on for the unit tests alone.

The scans are static (ast) and generous.  A name or ``module.name``
reference in a reachable body reaches that definition, and ``x.attr``
reaches every method called ``attr``.  The roots are ``cli.main`` and the
module-level statements of each module, which hold ``SCENARIOS``.  A
reached class brings its dunder methods.  A field counts as read when any
``x.field`` is loaded anywhere in src/phaselab.
"""

import ast
from pathlib import Path

import phaselab

# names kept although the program does not reach them, each with its reason
ALLOWED = set()

# fields only tests read, each with its reason
ALLOWED_FIELDS = set()


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in Path(phaselab.__file__).parent.glob("*.py")}


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
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign):
                        fields[f"{mod}.{node.name}.{sub.target.id}"] = \
                            sub.target.id
    assert "analogs.CelestialConfig.m_jupiter" in fields
    unread = {key for key, attr in fields.items() if attr not in read}
    assert sorted(unread - ALLOWED_FIELDS) == []
    assert ALLOWED_FIELDS <= unread, "allowlisted field now read"
