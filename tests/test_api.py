"""The public API has no dead entry points.

Every function and class that `blockfuse.__all__` exports is referenced
somewhere in `src/blockfuse` outside its own top-level definition, or is
shown in the README's code or in `scripts/`, or is allowlisted here with
the reason it stays.  The same holds for the public methods and
properties of every class defined in a blockfuse module: each is read as
an attribute in `src/blockfuse` outside its own definition, or shown to
users, or allowlisted.
"""

import ast
import importlib
import inspect
import pkgutil
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
ALLOWED_METHODS = {
    "Echelon.contains": "perfbench/tracing.py traces it by name, one span per call",
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


def _user_code() -> list[str]:
    """The README's fenced code and the scripts/ sources."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r"^```.*?\n(.*?)^```", readme, re.M | re.S)
    return texts + [path.read_text(encoding="utf-8")
                    for path in sorted((ROOT / "scripts").glob("*.py"))]


def _shown_to_users() -> set[str]:
    """Identifiers in the README's fenced code and in scripts/."""
    return {word for text in _user_code() for word in re.findall(r"\w+", text)}


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


def _attribute_readers() -> dict[str, set[str]]:
    """Attribute name -> the qualified names of the definitions in
    src/blockfuse whose own bodies read it ("" for module level)."""
    readers: dict[str, set[str]] = {}

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qual}.{child.name}" if qual else child.name
            elif isinstance(child, ast.Attribute):
                readers.setdefault(child.attr, set()).add(qual)
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return readers


def _public_methods() -> list[str]:
    """Class.name for every public method or property of a public class
    defined in a blockfuse module."""
    out = []
    for info in pkgutil.iter_modules(blockfuse.__path__):
        module = importlib.import_module(f"blockfuse.{info.name}")
        for cname, cls in vars(module).items():
            if (cname.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__):
                continue
            out += [f"{cname}.{name}" for name, value in vars(cls).items()
                    if not name.startswith("_")
                    and (inspect.isfunction(value)
                         or isinstance(value, (property, staticmethod, classmethod)))]
    return out


def test_every_public_method_has_a_caller():
    readers = _attribute_readers()
    shown = {name for text in _user_code() for name in re.findall(r"\.(\w+)", text)}
    methods = _public_methods()
    assert len(methods) > 30
    unused = [qual for qual in methods
              if not readers.get(qual.split(".")[1], set()) - {qual}
              and qual.split(".")[1] not in shown and qual not in ALLOWED_METHODS]
    assert unused == []


def test_method_allowlist_names_methods():
    assert ALLOWED_METHODS.keys() <= set(_public_methods())
