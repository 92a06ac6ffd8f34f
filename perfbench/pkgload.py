"""Import the ``z2z4q8`` package from the source tree of this checkout.

The benchmark measures the code next to it, never an installed copy, so the
import goes through ``<root>/src`` and fails when that tree is missing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Run records, spans and corpus files; ignored by git.
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "z2z4q8"
# The modules the traced run times; ``reference`` holds only data.
LAYERS = ("algebra", "code", "structure", "construct", "cli")


class PackageMissing(ImportError):
    """The checkout has no importable ``src/z2z4q8``."""


def import_package(fresh: bool = False):
    """Return the ``z2z4q8`` package with ``cli`` loaded.

    With ``fresh`` every ``z2z4q8`` module is dropped from ``sys.modules``
    first, so the import is repeated; set-up time is measured that way.
    """
    if fresh:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise PackageMissing(f"cannot import {PACKAGE} from {SRC}: {exc}") from None
    where = Path(pkg.__file__).resolve()
    if SRC not in where.parents:
        raise PackageMissing(f"{PACKAGE} was imported from {where}, not from {SRC}")
    return pkg


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]
