"""The public names of qig and their signatures, against tests/public_surface.txt.

Each line is one exported name: ``qig``'s public attributes (the package has no
``__all__``, so every non-module name without a leading underscore) and each
submodule's ``__all__``.  A function or method shows ``inspect.signature``; a
class shows ``class`` and a constant its type.  Regenerate the file, after a
change that is meant to alter the public surface, with
``python tests/test_public_surface.py``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import qig

LISTING = Path(__file__).resolve().parent / "public_surface.txt"


def _exported(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module)
                 if not n.startswith("_") and not inspect.ismodule(getattr(module, n))]
    return sorted(names)


def _describe(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        # a default that is a function prints its address, which changes per run
        return re.sub(r" at 0x[0-9a-f]+", "", str(inspect.signature(obj)))
    return type(obj).__name__


def listing() -> str:
    modules = [qig] + [importlib.import_module(f"qig.{info.name}")
                       for info in pkgutil.iter_modules(qig.__path__)]
    lines = [f"{module.__name__}.{name} {_describe(getattr(module, name))}"
             for module in modules if module is qig or hasattr(module, "__all__")
             for name in _exported(module)]
    return "\n".join(lines) + "\n"


def test_public_surface_is_the_recorded_one():
    assert listing() == LISTING.read_text()


if __name__ == "__main__":
    LISTING.write_text(listing())
