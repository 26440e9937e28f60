"""Package surface: every exported name exists."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import projgeo

MODULES = ["projgeo"] + [f"projgeo.{info.name}"
                         for info in pkgutil.iter_modules(projgeo.__path__)
                         if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, missing


def test_the_package_loads_no_scipy_optimize():
    # scipy.optimize adds about 70 ms and 11 MB to an import; the inradius
    # is a walk of its own, and nothing else in the package needs it
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['scipy', 'optimize']))")
    src = os.path.dirname(os.path.dirname(projgeo.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_perfbench_tracer_wraps_every_layer_and_undoes():
    # the benchmark's tracer patches projgeo names from outside; installing
    # it raises if a wrapped function or method was renamed or deleted
    from perfbench import spans
    from projgeo import positions

    original = positions.minimal_surface_position
    tracer = spans.install(spans.Tracer("tier-1"))
    try:
        assert positions.minimal_surface_position is not original
    finally:
        tracer.undo()
    assert positions.minimal_surface_position is original
