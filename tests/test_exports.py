"""The package's public names: ``from nctopo import *`` imports each of
``nctopo.__all__``, so a name removed from its module but left in the list
breaks it."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import nctopo


def test_all_names_resolve_once_and_are_nctopo_own():
    names = nctopo.__all__
    assert len(names) == len(set(names))
    submodules = [m for name, m in sys.modules.items() if name.startswith("nctopo.")]
    for name in names:
        obj = getattr(nctopo, name)
        assert not inspect.ismodule(obj), name
        if callable(obj):
            assert getattr(obj, "__module__", "").startswith("nctopo."), name
        else:
            # A constant is bound in the package or one of its modules.
            assert name == "__version__" or any(vars(m).get(name) is obj for m in submodules), name
    namespace = {}
    exec("from nctopo import *", namespace)
    assert set(names) <= set(namespace)


def test_import_loads_no_dataclasses():
    # dataclasses brings inspect, ast, dis and tokenize into every fresh
    # interpreter; the report types are NamedTuples so that it is not needed.
    src = str(Path(nctopo.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = (
        "import sys; before = set(sys.modules); import nctopo; "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", child],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        check=True,
    )
    new = ast.literal_eval(out.stdout)
    assert "nctopo.classify" in new
    assert "dataclasses" not in new
