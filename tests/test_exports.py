"""The package and module export lists name only objects that exist, and
every package export, and every public member of an exported class, is used
outside the tests."""

import importlib
import inspect
import pkgutil
import re
from functools import cached_property
from pathlib import Path
from types import FunctionType

import duca

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "duca"


def test_every_export_resolves():
    modules = [duca] + [importlib.import_module(f"duca.{info.name}")
                        for info in pkgutil.iter_modules(duca.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(duca.__all__) > 1
    assert missing == []


def _public_members(cls):
    """Names of the methods, classmethods, staticmethods and properties a class defines."""
    kinds = (FunctionType, classmethod, staticmethod, property, cached_property)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and isinstance(value, kinds)]


def test_every_export_is_used_outside_the_tests():
    # a name counts as used when the library (past its export lists, the
    # package's re-exports and the name's own definition), a demo, the
    # README or the benchmark names it, and a public member of an exported
    # class when one of them reads it as an attribute (``.name``): public
    # API only tests call goes
    library = "\n".join(re.sub(r"__all__ = \[.*?\]", "", path.read_text(), flags=re.S)
                        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py")
    others = "\n".join(path.read_text() for path in [
        *sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md",
        *sorted((ROOT / "perfbench").rglob("*.py"))])
    unused = []
    for name in duca.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
        lines = [line for line in library.splitlines() if not definition.match(line)]
        if not (word.search("\n".join(lines)) or word.search(others)):
            unused.append(name)
        obj = getattr(duca, name)
        if inspect.isclass(obj):
            unused += [f"{name}.{member}" for member in _public_members(obj)
                       if not re.search(rf"\.{re.escape(member)}\b", library + others)]
    assert unused == []
