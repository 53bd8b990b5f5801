"""CLI reports pinned byte for byte, apart from wall_time_s.

tests/golden_reports.json holds the reports of the fast README commands
(and a few more bases) as the CLI printed them before the automaton core
replaced the hand-written readers, counters and enumerators.
"""

import json
from pathlib import Path

import pytest

from betalab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][:3])
                                              for c in GOLDEN])
def test_report_unchanged(capsys, case):
    code = main(list(case["argv"]))
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    assert code == case["exit_code"]
    assert report == case["report"]
