"""Session fixtures: every test runs from its own tmp dir, hypothesis keeps
its storage in a temporary directory, and each scenario runs at most once
per session.

``scenario(name)`` runs the named scenario at its catalog defaults the way
``phaselab run`` does (``cli._validate``, then the runner with seed 0), the
first time a test asks for it, and hands that test and every later one the
same ``(results, checks, tables)``: the summary scalars, the check verdicts
by name, and each emitted CSV as {column: array}.  The acceptance gate and
the module tests assert on these instead of re-deriving a claim beside the
scenario that computes it; the 10 s wavepacket run is the largest of them.
"""

import tempfile

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


@pytest.fixture(scope="session")
def scenario():
    runs = {}

    def run(name):
        if name not in runs:
            tables = {}

            def emit(filename, columns):
                tables[filename] = {column: values
                                    for column, _, values in columns}

            _, _, inputs, seed, _ = cli._validate({"scenario": name}, None)
            results, checks = SCENARIOS[name].runner(inputs, seed, emit)
            runs[name] = results, dict(checks), tables
        return runs[name]
    return run
