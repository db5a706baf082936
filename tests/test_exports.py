"""The package and module export lists name only objects that exist."""

import importlib
import pkgutil

import duca


def test_every_export_resolves():
    modules = [duca] + [importlib.import_module(f"duca.{info.name}")
                        for info in pkgutil.iter_modules(duca.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(duca.__all__) > 1
    assert missing == []
