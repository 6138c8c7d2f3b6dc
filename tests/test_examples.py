"""Every script under ``examples/`` runs to completion as ``__main__``.

The examples are the public surface a reader copies from, so a deleted or
renamed name must fail here, in tier-1, not in a reader's terminal.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
