"""The package and module export lists name only objects that exist, every
package export, and every public member of an exported class, is used
outside the tests, and so is every function, class and method the package
defines."""

import ast
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


def _names_in(paths):
    """Every identifier the ASTs of ``paths`` name: names, attributes,
    imports and the identifiers held in string constants."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."), [node.asname])
            elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
                named.add(node.value)
    return named


def test_every_definition_is_named_outside_the_tests():
    # a function, class or method of the package that neither the package,
    # a demo nor the benchmark names is dead code; the benchmark patches
    # some of them by their names as strings, which count.  A private one
    # (or a method of a private class) must be named in its own module or
    # outside the package: ``x.take`` on an array in graphs.py says
    # nothing of a ``take`` method in localsolver.py
    library = sorted(PACKAGE.glob("*.py"))
    outside = _names_in([*sorted((ROOT / "demos").rglob("*.py")),
                         *sorted((ROOT / "perfbench").rglob("*.py"))])
    own = {path: outside | _names_in([path]) for path in library}
    everywhere = set().union(*own.values())
    unnamed = [f"{path.name}: {name}" for path in library
               for name, private in _definitions(ast.parse(path.read_text()))
               if name not in (own[path] if private else everywhere)]
    assert unnamed == []


def _definitions(tree, private=False):
    """(name, private) of every function, class and method under ``tree``,
    dunders excepted; private when it or an enclosing definition is."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = private or node.name.startswith("_")
            if not re.fullmatch(r"__\w+__", node.name):
                yield node.name, inner
            yield from _definitions(node, inner)
        else:
            yield from _definitions(node, private)
