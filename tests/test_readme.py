"""The README's layout block against the source tree it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layout_modules() -> set[str]:
    """The file names listed under ``src/qig/`` in the README's Layout block."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("src/qig/") + 1
    names = set()
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        names.add(line.split()[0])
    return names


def test_layout_names_exactly_the_package_modules():
    modules = {p.name for p in (ROOT / "src" / "qig").glob("*.py")} - {"__init__.py"}
    listed = _layout_modules()
    assert all(re.fullmatch(r"\w+\.py", name) for name in listed)
    assert listed == modules
