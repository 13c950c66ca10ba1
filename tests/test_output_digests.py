"""Output bytes against the committed digests of tests/output_digests.json.

The table holds, per environment, the sha256 of every CSV and summary.json
that ``phaselab run`` writes for each scenario at its catalog defaults and
for the configs of write_digests.CONFIGS, seed 0.  The catalog digests are
the manifest inventories of the session fixture's runs, which go through
``cli.main``; only the CONFIGS run here.  An environment with no entry
skips, naming its key; this test never writes the table
(tests/write_digests.py does, by hand).
"""

import dataclasses
import json

import pytest

from conftest import _Catalog
from phaselab import cli
from phaselab.errors import PhaseLabError
from phaselab.scenarios import SCENARIOS
from write_digests import (CONFIGS, TABLE, changed_digests, environment_key,
                           run_digests)


@pytest.fixture(scope="module")
def expected():
    key = environment_key()
    entry = json.loads(TABLE.read_text()).get(key)
    if entry is None:
        pytest.skip(f"no output digests for this environment: {key}")
    return entry


@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_outputs_match_committed_digests(scenario, expected, name):
    assert scenario.digests(name) == expected[name]


@pytest.mark.parametrize("label", CONFIGS)
def test_outputs_match_committed_digests(tmp_path, expected, label):
    code, digests = run_digests(cli, CONFIGS[label], tmp_path)
    assert code == 0
    assert digests == expected[label]


def test_failed_catalog_run_raises_its_manifest_error(tmp_path, monkeypatch):
    def broken(inputs, seed, emit):
        raise PhaseLabError("runner broke")

    monkeypatch.setitem(SCENARIOS, "linking", dataclasses.replace(
        SCENARIOS["linking"], runner=broken))
    with pytest.raises(RuntimeError, match="^catalog run of linking exited 3: "
                       "PhaseLabError: runner broke$"):
        _Catalog(tmp_path)("linking")


def test_changed_digests_name_each_moved_file():
    old = {"a": {"x.csv": "1" * 64, "summary.json": "2" * 64},
           "b": {"summary.json": "3" * 64}}
    new = {"a": {"x.csv": "4" * 64, "summary.json": "2" * 64},
           "c": {"summary.json": "5" * 64}}
    assert changed_digests(old, new) == [
        f"a x.csv: {'1' * 12} -> {'4' * 12}",
        f"b summary.json: {'3' * 12} -> absent",
        f"c summary.json: absent -> {'5' * 12}"]
    assert changed_digests(old, old) == []
