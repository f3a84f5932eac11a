"""The package surface: the README's Python tour and the root exports."""

import re
from pathlib import Path

import schedlab

README = Path(__file__).parents[1] / "README.md"

# Names the root package no longer exports; nothing outside tests used them.
REMOVED = ("BusyInterval", "utilization_bound_test", "SweepResult")


def test_readme_quick_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Quick tour (Python)"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "schedulable {1: 1, 2: 3, 3: 10}"
    assert out[1].endswith(" bits of schedule uncertainty per slot")


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from schedlab import *", namespace)
    assert all(name in namespace for name in schedlab.__all__)
    assert len(set(schedlab.__all__)) == len(schedlab.__all__)
    assert not set(REMOVED) & set(schedlab.__all__)
    assert not any(hasattr(schedlab, name) for name in REMOVED)
