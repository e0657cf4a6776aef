"""Every demo script prints exactly its stored output
(``tests/data/demos/<name>.txt``)."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
EXPECTED = Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_is_unchanged(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert buf.getvalue() == (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
