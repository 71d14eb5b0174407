"""The parent checkout's package beside this tree's, and the order in which
the ``--parent`` tools run the two. Pins no BLAS and imports no package."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def load_parent(checkout: Path):
    """The parent checkout's ``hyperconv``, imported as ``parent_hyperconv``."""
    init = checkout / "src" / "hyperconv" / "__init__.py"
    if not init.is_file():
        sys.exit(f"--parent: no {init}")
    spec = importlib.util.spec_from_file_location(
        "parent_hyperconv", init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its relative imports look it up
    spec.loader.exec_module(module)
    return module


def in_turns(turns: int, parent, this) -> tuple[list, list]:
    """The results of ``turns`` calls each of ``parent()`` and ``this()``:
    the parent goes first on odd turns (1, 3, ...) and this tree on even
    ones, so neither tree always runs on the state the other leaves."""
    before, after = [], []
    for turn in range(1, turns + 1):
        if turn % 2:
            before.append(parent())
            after.append(this())
        else:
            after.append(this())
            before.append(parent())
    return before, after
