"""CLI reports pinned byte for byte, apart from wall_time_s.

tests/golden_reports.json holds the reports of the fast README commands
(and a few more bases) as the CLI printed them before the automaton core
replaced the hand-written readers, counters and enumerators, and the
Bowen, box-dimension and separation reports as printed before the cylinder
DAG and the one separation kernel replaced the trie and the binary-only
bitmask, five `expand` reports (n = 64, one per kind of base) as
printed before the greedy step moved from Fractions to integers, and
three `pools` reports on schedules whose pools were filtered from a full
enumeration, plus four `glued-family`/`edp` reports, as printed before
the pools were read from exact level sets.  An argument "{tests}/..."
names a file in this directory.

One row was edited by hand, not re-captured: level 2 of `pools --beta
3/2` (n = 20, alpha = 0.1, delta = 0.05) had 50 words while the window was
decided in floats, where 0.15 - 0.1 < 0.05; 40 of them have average
exactly 3/20, on the window's edge, so the exact pool has 10 words, size
50 -> 10, achieved_max 0.15 -> 0.1 and log_size_over_n log(50)/20 ->
log(10)/20.

Every field compares exactly except the floats under
payload.monotonicity: the cover costs M(Z, s, N) there are evaluated in a
rescaled form that keeps deep cylinders from underflowing, and agree with
the pinned ones to 1e-12 relative.
"""

import json
import math
from pathlib import Path

import pytest

from betalab.cli import main

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_reports.json").read_text())


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12)
    return a == b


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][:3])
                                              for c in GOLDEN])
def test_report_unchanged(capsys, case):
    code = main([a.replace("{tests}", str(HERE)) for a in case["argv"]])
    report = json.loads(capsys.readouterr().out.replace(str(HERE), "{tests}"))
    del report["wall_time_s"]
    assert code == case["exit_code"]
    expected = case["report"]
    mono = report["payload"].pop("monotonicity", None)
    expected_mono = expected["payload"].get("monotonicity")
    assert _close(mono, expected_mono)
    assert report["payload"] == {k: v for k, v in expected["payload"].items()
                                 if k != "monotonicity"}
    assert report == {**expected, "payload": report["payload"]}
