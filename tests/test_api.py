"""The public API has no dead entry points.

Every function and class that `blockfuse.__all__` exports is referenced
somewhere in `src/blockfuse` outside its own top-level definition, or is
shown in the README's code or in `scripts/`, or is allowlisted here with
the reason it stays.
"""

import ast
import inspect
import re
from pathlib import Path

import blockfuse

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blockfuse"

ALLOWED = {
    "multiply": "the test oracle for central_multiply; the benchmark times it by name",
    "trace_map": "relative traces are advertised in the README and checked by "
                 "acceptance criterion 11",
}


def _referenced_in_src() -> set[str]:
    """Names loaded anywhere in src/blockfuse, except inside the top-level
    definition that binds the same name."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and n.id != own)
    return names


def _shown_to_users() -> set[str]:
    """Identifiers in the README's fenced code and in scripts/."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r"^```.*?\n(.*?)^```", readme, re.M | re.S)
    texts += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "scripts").glob("*.py"))]
    return {word for text in texts for word in re.findall(r"\w+", text)}


def _exported_callables() -> list[str]:
    return [name for name in blockfuse.__all__
            if inspect.isfunction(getattr(blockfuse, name))
            or inspect.isclass(getattr(blockfuse, name))]


def test_every_export_has_a_caller():
    used = _referenced_in_src() | _shown_to_users() | ALLOWED.keys()
    exported = _exported_callables()
    assert len(exported) > 50
    assert [name for name in exported if name not in used] == []


def test_allowlist_names_exports():
    """The allowlist cannot outlive a deleted function."""
    assert ALLOWED.keys() <= set(_exported_callables())
