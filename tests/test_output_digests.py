"""Output bytes against the committed digests of tests/output_digests.json.

The table holds, per environment, the sha256 of every CSV and summary.json
that ``phaselab run`` writes for the configs of write_digests.CONFIGS and
for the scenarios of write_digests.CATALOG at their catalog defaults.  The
CONFIGS run here through ``cli.main``; the CATALOG digests come from the
session fixture's runs, which ``cli``'s writer wrote.  An environment with
no entry skips, naming its key; this test never writes the table
(tests/write_digests.py does, by hand).
"""

import json

import pytest

from phaselab import cli
from phaselab.scenarios import SCENARIOS
from write_digests import (CATALOG, CONFIGS, TABLE, changed_digests,
                           environment_key, run_digests)


@pytest.fixture(scope="module")
def expected():
    key = environment_key()
    entry = json.loads(TABLE.read_text()).get(key)
    if entry is None:
        pytest.skip(f"no output digests for this environment: {key}")
    return entry


@pytest.mark.parametrize("label", CONFIGS)
def test_outputs_match_committed_digests(tmp_path, capsys, expected, label):
    code, digests = run_digests(cli, CONFIGS[label], tmp_path)
    capsys.readouterr()
    assert code == 0
    assert digests == expected[label]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_outputs_match_committed_digests(scenario, expected, name):
    assert scenario.digests(name) == expected[name]


def test_every_scenario_is_in_the_table():
    configured = {config["scenario"] for config in CONFIGS.values()}
    assert sorted(configured | set(CATALOG)) == sorted(SCENARIOS)
    assert not configured & set(CATALOG)


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
