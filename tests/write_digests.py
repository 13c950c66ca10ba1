"""Write this environment's entry of tests/output_digests.json.

    python3 tests/write_digests.py SRC

SRC is the ``src`` directory of the phaselab tree whose outputs the entry
records.  Each config of CONFIGS, and each scenario of CATALOG at its
catalog defaults, runs through ``phaselab.cli.main`` into a temporary
directory, and the sha256 of every CSV and ``summary.json`` it writes goes
into the entry of environment_key(), which replaces any entry already
there; the other environments' entries stay.  Before it replaces the
entry, the script prints each file whose digest differs from the committed
one, with the old and new sha256 prefixes.  A change that moves output
bytes on purpose runs this once on its own tree.

pytest does not collect this file; test_output_digests.py imports
CONFIGS, CATALOG, TABLE, changed_digests, environment_key and run_digests
from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("output_digests.json")

# seed 0: the orbit scenarios at catalog defaults, and at the overrides of
# bench/spec.json's orbit-ode workload
CONFIGS = {
    "pendulum-msw": {"scenario": "pendulum-msw"},
    "celestial-frozen": {"scenario": "celestial-frozen"},
    "celestial-residual": {"scenario": "celestial-residual"},
    "pendulum-msw rate_scale=10": {"scenario": "pendulum-msw",
                                   "parameters": {"rate_scale": 10.0}},
    "celestial-frozen nodes=16": {"scenario": "celestial-frozen",
                                  "parameters": {"nodes": 16}},
    "celestial-residual nodes=16": {"scenario": "celestial-residual",
                                    "parameters": {"nodes": 16}},
}

# the other twelve scenarios, labelled by name, at catalog defaults, seed 0;
# test_output_digests.py takes their digests from the session fixture's
# runs, so the 8 s scatter-wavepacket run is not made twice
CATALOG = ("berry-equator", "berry-latitude", "berry-wilson-sweep", "linking",
           "topo-phase", "scatter-phase", "scatter-bounce",
           "scatter-wavepacket", "ab-electric", "two-level-sweep",
           "rect-loop", "monopole-angmom")


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
    into root, over every CSV and summary.json the run leaves."""
    path = root / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(path), "--out", str(root)])
    outdir = root / config["scenario"]
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(outdir.iterdir())
                  if p.suffix == ".csv" or p.name == "summary.json"}


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
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"phaselab imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    entry = {}
    catalog = {name: {"scenario": name} for name in CATALOG}
    for label, config in {**CONFIGS, **catalog}.items():
        # the runs' one-line reports would bury the list of moved files
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
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
