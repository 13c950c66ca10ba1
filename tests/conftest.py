"""Session fixtures: every test runs from its own tmp dir, hypothesis keeps
its storage in a temporary directory, and each scenario runs at most once
per session.

``scenario(name)`` runs the named scenario at its catalog defaults, seed 0,
through ``phaselab run`` (``cli.main``) into a session tmp dir, the first
time a test asks for it, and hands that test and every later one the same
``(results, checks, tables)``, read back from what the run wrote: the
summary.json results, the check verdicts by name, and each CSV as
{column: array}.  ``scenario.digests(name)`` gives the run's manifest
inventory, the sha256 of each CSV and summary.json.  A run that leaves no
summary.json raises with its manifest's error message.  The acceptance
gate, the digest gate and the module tests assert on these runs; the 8 s
wavepacket run is the largest of them.
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from phaselab import cli
from write_digests import run_digests

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    """Point hypothesis's storage (./.hypothesis by default) at a temporary
    directory for the session: its example database, and the constants its
    plugin reads out of the test modules while pytest collects them."""
    home = tempfile.TemporaryDirectory(prefix="phaselab-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Run every test from its own tmp dir, so default output roots such as
    ./phaselab-out never land in the checkout."""
    monkeypatch.chdir(tmp_path)


def _read_table(path):
    """{column: array} of a CSV that ``phaselab run`` wrote: the first line
    names the columns, the second gives their units, and a column reads
    back as float64 when every cell parses as a float (``%.17g`` round
    trips exactly), else as str."""
    names, _, *rows = path.read_text().splitlines()
    table = {}
    for name, cells in zip(names.split(","),
                           zip(*(row.split(",") for row in rows))):
        try:
            table[name] = np.array(cells, dtype=float)
        except ValueError:
            table[name] = np.array(cells)
    return table


class _Catalog:
    """The catalog runs of one session, each made on first use."""

    def __init__(self, root):
        self.root = root
        self.runs = {}

    def _run(self, name):
        if name not in self.runs:
            code, digests = run_digests(cli, {"scenario": name}, self.root)
            outdir = self.root / name
            if "summary.json" not in digests:
                error = json.loads(
                    (outdir / "manifest.json").read_text())["error"]
                raise RuntimeError(f"catalog run of {name} exited {code}: "
                                   f"{error['message']}")
            summary = json.loads((outdir / "summary.json").read_text())
            checks = {c["name"]: c["passed"] for c in summary["checks"]}
            tables = {filename: _read_table(outdir / filename)
                      for filename in digests if filename.endswith(".csv")}
            self.runs[name] = (summary["results"], checks, tables), digests
        return self.runs[name]

    def __call__(self, name):
        return self._run(name)[0]

    def digests(self, name):
        return self._run(name)[1]


@pytest.fixture(scope="session")
def scenario(tmp_path_factory):
    return _Catalog(tmp_path_factory.mktemp("catalog"))
