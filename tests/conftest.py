"""Session fixtures: every test runs from its own tmp dir, hypothesis keeps
its storage in a temporary directory, and each scenario runs at most once
per session.

``scenario(name)`` runs the named scenario at its catalog defaults the way
``phaselab run`` does (``cli._validate``, then the runner with seed 0, its
tables written by ``cli``'s CSV writer and its summary.json by ``cli``'s
summary, into a session tmp dir), the first time a test asks for it, and
hands that test and every later one the same ``(results, checks,
tables)``: the summary scalars, the check verdicts by name, and each
emitted CSV as {column: array}, its row blocks joined.
``scenario.digests(name)`` gives the sha256 of each file the run wrote.
The acceptance gate and the module tests assert on these instead of
re-deriving a claim beside the scenario that computes it; the 8 s
wavepacket run is the largest of them.
"""

import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from phaselab import cli
from phaselab.scenarios import SCENARIOS

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


class _Catalog:
    """The catalog runs of one session, each made on first use."""

    def __init__(self, root):
        self.root = root
        self.runs = {}

    def _run(self, name):
        if name not in self.runs:
            outdir = self.root / name
            outdir.mkdir()
            write = cli._CsvWriter(outdir)
            blocks = {}

            def emit(filename, columns):
                write(filename, columns)
                table = blocks.setdefault(filename, {})
                for column, _, values in columns:
                    table.setdefault(column, []).append(np.asarray(values))

            _, _, inputs, seed, _ = cli._validate({"scenario": name}, None)
            results, checks = SCENARIOS[name].runner(inputs, seed, emit)
            digests = write.close()
            digests["summary.json"] = cli._dump_json(
                outdir / "summary.json",
                cli._summary(name, seed, results, checks))
            tables = {filename: {column: np.concatenate(parts)
                                 for column, parts in table.items()}
                      for filename, table in blocks.items()}
            self.runs[name] = (results, dict(checks), tables), digests
        return self.runs[name]

    def __call__(self, name):
        return self._run(name)[0]

    def digests(self, name):
        return self._run(name)[1]


@pytest.fixture(scope="session")
def scenario(tmp_path_factory):
    return _Catalog(tmp_path_factory.mktemp("catalog"))
