"""The benchmark's traced names still exist in the package.

``perfbench/spans.py`` wraps package functions and methods by name, and the
suite under ``tests/`` does not run the benchmark. Loading its name tables
here makes a deletion or rename in ``src`` that would break a traced
benchmark run fail in this suite instead. The config surface that
``perfbench/workloads.py`` builds its studies with is checked the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from eegfusion import model, runner

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


def test_workload_config_surface_exists():
    # the tiny desk_study and fusion_train configs, built and read as the workloads do
    synth = runner.SynthStudyConfig(n_per_class=2, windows_per_recording=4, duration_s=100.0)
    cfg = runner.RunConfig(seed=0, synth=synth, train=model.TrainConfig(epochs=10, batch_size=4))
    runner.validate_run_config(cfg)
    assert runner.RunConfig().test_fraction == cfg.split.test_fraction == 0.15
