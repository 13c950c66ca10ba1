"""Output bytes against the committed digests of tests/output_digests.json.

The table holds, per environment, the sha256 of every CSV and summary.json
that ``phaselab run`` writes for the configs of write_digests.CONFIGS.  An
environment with no entry skips, naming its key; this test never writes
the table (tests/write_digests.py does, by hand).
"""

import json

import pytest

from phaselab import cli
from write_digests import CONFIGS, TABLE, environment_key, run_digests


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
