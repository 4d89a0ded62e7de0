"""README's library example runs as printed, so the state rows it documents
stay those ``evolve_block_ode`` returns, and its scenario-file section names
every key a scenario file accepts."""
import contextlib
import io
import re
from pathlib import Path

import pytest

from twoatom.scenarios import ALL_OUTPUTS, SCENARIO_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return code


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    population_gap, concurrence = map(float, out.getvalue().split())
    assert 0.0 < population_gap < 1.0
    # the first concurrence maximum of the paper's one-excitation figure
    assert concurrence == pytest.approx(0.86, abs=0.01)


def test_scenario_file_section_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("\nScenario files are flat ", 1)[1].split("\n##", 1)[0]
    missing = [key for key in (*SCENARIO_KEYS, *ALL_OUTPUTS) if f"`{key}`" not in section]
    assert missing == []
