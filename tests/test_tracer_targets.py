"""The benchmark's tracer wraps deolog functions by the names its callers
look them up under. A binding renamed or removed in deolog would otherwise
show only when the traced benchmark runs."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / \
    "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("deolog_bench_tracer",
                                                  TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attribute, span", _targets())
def test_tracer_target_resolves(module, attribute, span):
    owner = importlib.import_module(f"deolog.{module}")
    if "." in attribute:
        # "Class.method" entries are patched on the class
        class_name, attribute = attribute.split(".")
        owner = getattr(owner, class_name)
        assert isinstance(owner, type), f"{module}.{class_name}"
    assert callable(getattr(owner, attribute)), f"{module}.{attribute}"
