"""The benchmark's traced names still exist in the package.

``perfbench/spans.py`` wraps package functions and methods by name, and the
suite under ``tests/`` does not run the benchmark. Loading its name tables
here makes a deletion or rename in ``src`` that would break a traced
benchmark run fail in this suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("mod_name,fn_name,span", SPANS.FUNCTIONS)
def test_traced_function_exists(mod_name, fn_name, span):
    module = importlib.import_module(f"eegfusion.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"eegfusion.{mod_name} has no {fn_name}"


@pytest.mark.parametrize("mod_name,cls_name,meth,span", SPANS.METHODS)
def test_traced_method_is_defined_on_its_class(mod_name, cls_name, meth, span):
    # the tracer patches the class's own attribute, so an inherited one fails it
    cls = getattr(importlib.import_module(f"eegfusion.{mod_name}"), cls_name)
    assert callable(cls.__dict__.get(meth)), f"eegfusion.{mod_name}.{cls_name} defines no {meth}"
