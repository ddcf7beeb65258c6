"""The README library quick start runs as written and prints what it says,
and its Modes table lists the modes and cross checks of the CLI."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from framelab.cli import MODES

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first ``python`` block under the "Quick start (library)" heading."""
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_what_its_comments_state():
    code = _quick_start()
    out = io.StringIO()
    scope: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), scope)
    # each print line states its output first in its comment, up to a colon
    stated = [
        line.split("#", 1)[1].strip().split(":")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert out.getvalue().splitlines() == stated
    assert scope["report"].verdict.value == "riesz_basis"
    assert scope["report"].weight_bounds == (0.5, 1.0)
    spectrum = scope["frame_spectrum"](scope["fam"])
    assert np.allclose(spectrum, [0.5, 0.5, 1, 1, 1, 1, 1, 1], rtol=0, atol=1e-12)


def test_readme_modes_table_lists_every_mode_and_its_checks():
    section = README.read_text().split("### Modes", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` *\|[^|]*\|([^|]*)\|", section, re.M)
    table = {mode: re.findall(r"`(\w+)`", checks) for mode, checks in rows}
    assert table == {mode: sorted(m.checks) for mode, m in MODES.items()}
