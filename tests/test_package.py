"""Package surface: every exported name exists."""

import importlib
import pkgutil

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
