"""Write this environment's entry of tests/output_digests.json.

    python3 tests/write_digests.py SRC

SRC is the ``src`` directory of the phaselab tree whose outputs the entry
records.  Each scenario at its catalog defaults, labelled by its name, and
each config of CONFIGS runs through ``phaselab.cli.main`` into a temporary
directory, and the sha256 inventory of its manifest (every CSV and
``summary.json`` it wrote) goes into the entry of environment_key(), which
replaces any entry already there; the other environments' entries stay.
Before it replaces the entry, the script prints each file whose digest
differs from the committed one, with the old and new sha256 prefixes.  A
change that moves output bytes on purpose runs this once on its own tree.

pytest does not collect this file; conftest.py imports run_digests, and
test_output_digests.py imports CONFIGS, TABLE, changed_digests and
environment_key from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("output_digests.json")

# seed 0: the orbit scenarios at the overrides of bench/spec.json's orbit-ode
# workload; their catalog-default runs are labelled by scenario name
CONFIGS = {
    "pendulum-msw rate_scale=10": {"scenario": "pendulum-msw",
                                   "parameters": {"rate_scale": 10.0}},
    "celestial-frozen nodes=16": {"scenario": "celestial-frozen",
                                  "parameters": {"nodes": 16}},
    "celestial-residual nodes=16": {"scenario": "celestial-residual",
                                    "parameters": {"nodes": 16}},
}


def environment_key() -> str:
    """What the output bytes depend on besides the code: the Python, numpy
    and scipy versions, the BLAS each library was built with, the machine,
    and the SIMD extensions numpy found on this CPU (numpy's loops and
    OpenBLAS's kernels are picked at run time from them)."""
    import numpy
    import scipy

    def blas(module) -> str:
        found = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{found['name']} {found['version']}"

    simd = numpy.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return (f"python {platform.python_version()}; "
            f"numpy {numpy.__version__} ({blas(numpy)}); "
            f"scipy {scipy.__version__} ({blas(scipy)}); "
            f"{platform.machine()}; simd {' '.join(simd)}")


def run_digests(cli, config: dict, root: Path) -> tuple[int, dict]:
    """(exit code, {file name: sha256}) of one config run through cli.main
    into root: the ``outputs`` inventory of the manifest it leaves, every
    CSV and summary.json it wrote.  The run's one-line report is swallowed,
    so that it buries neither the list of moved files nor a test's output."""
    path = root / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(path), "--out", str(root)])
    manifest = root / config["scenario"] / "manifest.json"
    return code, json.loads(manifest.read_text())["outputs"]


def changed_digests(old: dict, new: dict) -> list[str]:
    """One line "label file: old -> new" per file whose digest differs
    between two entries, with 12-character sha256 prefixes ("absent" for a
    file that one side lacks)."""
    lines = []
    for label in sorted(old.keys() | new.keys()):
        before, after = old.get(label, {}), new.get(label, {})
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                lines.append(f"{label} {name}: "
                             f"{before.get(name, 'absent')[:12]} -> "
                             f"{after.get(name, 'absent')[:12]}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    from phaselab import cli
    from phaselab.scenarios import SCENARIOS
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"phaselab imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    entry = {}
    catalog = {name: {"scenario": name} for name in SCENARIOS}
    for label, config in {**catalog, **CONFIGS}.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, digests = run_digests(cli, config, Path(tmp))
        if code != 0:
            print(f"{label} exited {code}; no entry written", file=sys.stderr)
            return 1
        entry[label] = digests
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    key = environment_key()
    for line in changed_digests(table.get(key, {}), entry):
        print(line)
    table[key] = entry
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entry)} configs under {key!r} to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
