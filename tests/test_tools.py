"""The order in which the ``--parent`` tools run the two trees.

Only ``tools/parent_tree.py`` is imported: it pins no BLAS and imports no
package, so loading it here leaves the rest of the suite as it was.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from parent_tree import in_turns  # noqa: E402


@pytest.mark.parametrize("turns", [1, 2, 5, 6])
def test_the_parent_goes_first_on_odd_turns_and_this_tree_on_even_ones(turns):
    log = []

    def call(tree):
        def run():
            log.append(tree)
            return len(log)  # the call's place in the run order
        return run

    before, after = in_turns(turns, call("parent"), call("this"))
    assert log == [tree for turn in range(1, turns + 1)
                   for tree in (("parent", "this") if turn % 2 else ("this", "parent"))]
    # each tree runs once a turn, and its results come back in call order
    assert before == [i for i, tree in enumerate(log, start=1) if tree == "parent"]
    assert after == [i for i, tree in enumerate(log, start=1) if tree == "this"]
    assert len(before) == len(after) == turns
