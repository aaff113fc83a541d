"""scipy's compiled routines, loaded without the packages around them.

A pipeline process calls three compiled scipy routines: HiGHS
(``scipy.optimize._highspy._core``), SLSQP (``scipy.optimize._slsqplib``)
and LAPACK's ``gesdd`` (``scipy.linalg._flapack``).  Importing them the
usual way runs ``scipy.optimize``'s and ``scipy.linalg``'s ``__init__``,
which load about 320 more scipy modules (``scipy.sparse`` among them) that
the program never calls.  :func:`scipy_extension` builds the one extension
module from its file instead and registers it in ``sys.modules`` under its
own name, so a later ``import scipy.optimize`` reuses the very object.

There is no fallback: a scipy whose layout moved raises ``ImportError``
naming the file that is missing (``pyproject.toml`` pins the scipy series
whose layout this reads).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import pathlib
import sys
from types import ModuleType


@functools.cache
def scipy_extension(name: str) -> ModuleType:
    """The compiled module ``scipy.<name>`` (``name`` like
    ``"optimize._slsqplib"``), without importing the packages that hold it.

    A module already in ``sys.modules`` is returned as it is; otherwise the
    extension file is located under ``scipy.__file__``, loaded, and
    registered.  Only ``scipy`` itself is imported (numpy and a few small
    modules).
    """
    qualified = f"scipy.{name}"
    module = sys.modules.get(qualified)
    if module is not None:
        return module
    import scipy

    *packages, leaf = name.split(".")
    directory = pathlib.Path(scipy.__file__).parent.joinpath(*packages)
    finder = importlib.machinery.FileFinder(
        str(directory),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(qualified)
    if spec is None:
        raise ImportError(
            f"no compiled module {leaf!r} in {directory} "
            f"(tried {', '.join(leaf + s for s in importlib.machinery.EXTENSION_SUFFIXES)})",
            name=qualified,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[qualified]
        raise
    return module
