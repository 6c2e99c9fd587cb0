"""``scripts/output_digests.py --against``: differing digest lines pass only
when they are exactly the declared output changes."""

import difflib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)

BASE = ["a  pipeline-a6/predictions.json", "b  pipeline-a6/checkpoint/params.bin",
        "c  reports/pipeline-a6.json"]


def _diff(ours):
    return list(difflib.unified_diff(BASE, ours, "base", "this tree", lineterm="", n=0))


PREDICTIONS = [BASE[0].replace("a ", "x "), *BASE[1:]]
PREDICTIONS_AND_REPORT = [*PREDICTIONS[:2], BASE[2].replace("c ", "y ")]


@pytest.mark.parametrize(
    "ours, globs, code",
    [
        (BASE, [], 0),  # equal, nothing declared: as before declarations existed
        (PREDICTIONS, [], 1),  # a difference nobody declared
        (PREDICTIONS, ["*/predictions.json"], 0),
        (PREDICTIONS_AND_REPORT, ["*/predictions.json"], 1),  # one change undeclared
        (BASE, ["*/predictions.json"], 1),  # a declared change that did not happen
        (PREDICTIONS, ["*/predictions.json", "reports/*"], 1),
        (BASE[:2], ["reports/*"], 0),  # a path gone is a change of that path
    ],
)
def test_judge_accepts_exactly_the_declared_changes(capsys, ours, globs, code):
    assert output_digests.judge(_diff(ours), globs) == code
    if code:
        assert capsys.readouterr().out.strip()


def test_declarations_file_parses():
    assert all(glob and not glob.startswith("#") for glob in output_digests.expected_changes())
