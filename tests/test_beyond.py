"""The CI checks of `beyond`: the workflow runs each by name, and the ones
that no module's tests call run here once at a small size."""

import re
from functools import partial
from pathlib import Path

import pytest

import beyond

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_runs_each_check_by_name_and_holds_no_inline_python():
    # Read as text, since pyyaml is not a test dependency.
    text = WORKFLOW.read_text()
    assert "<<" not in text, "a heredoc in the workflow"
    assert not re.search(r"\bpython3? -(\s|c\b)", text), "Python read from the step itself"
    named = set(re.findall(r"python3 tests/beyond\.py (\S+)", text))
    assert set(beyond.CHECKS) <= named, f"no step runs {set(beyond.CHECKS) - named}"
    assert named <= set(beyond.CHECKS), f"no check is named {named - set(beyond.CHECKS)}"


@pytest.mark.parametrize(
    "check",
    [
        partial(beyond.verify_report, n_max=2),
        partial(beyond.constructor_spans, range(1, 5)),
        partial(beyond.desk_scale, 4),
        partial(beyond.block_round_trip, (("mps", 4), ("s", 3))),
        partial(beyond.split_round_trip, (2,), seed=0),
        partial(beyond.trace_counts, seconds=0),
    ],
    ids=lambda check: check.func.__name__,
)
def test_a_check_without_a_twin_passes_at_a_small_size(check):
    check()
