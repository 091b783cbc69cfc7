"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

sys.path.insert(0, str(bench.SRC))

import workloads  # noqa: E402  (needs the package on sys.path)
from probe import HostProbe  # noqa: E402
from spans import FUNCTIONS, METHODS, Tracer, find_patched  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(*args, cwd=bench.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _invoke("--workload", workload, "--seed", "5", "--seconds", "0.2",
                   "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _originals():
    mods = {name: sys.modules[f"eegfusion.{name}"] for name in {m for m, _, _ in FUNCTIONS}}
    found = {(m, f): getattr(mods[m], f) for m, f, _ in FUNCTIONS}
    for m, cls, meth, _ in METHODS:
        found[(cls, meth)] = vars(getattr(sys.modules[f"eegfusion.{m}"], cls))[meth]
    return found


def test_wrappers_restore_every_original():
    import eegfusion
    from eegfusion import dsp

    before = _originals()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.install():
            assert eegfusion.build_feature_tensor is not before[("connectivity", "build_feature_tensor")]
            assert find_patched()
            dsp.design_bandpass(dsp.DEFAULT_BANDS[0], 128.0)
            1 / 0
    assert tracer.spans["dsp.design_bandpass"].calls == 1
    assert find_patched() == []
    after = _originals()
    assert all(after[key] is value for key, value in before.items())


def _corrupt_percent(real):
    def relevance_report(*args, **kwargs):
        report = real(*args, **kwargs)
        for payload in report.classes.values():
            name = next(iter(payload["percent"]))
            payload["percent"][name] += 1.0
        return report
    return relevance_report


def _corrupt_tensor(real):
    def build_feature_tensor(*args, **kwargs):
        tensor = real(*args, **kwargs)
        tensor.values[0, 0, 0, 0, 0] = float("nan")
        return tensor
    return build_feature_tensor


@pytest.mark.parametrize(
    "module, name, corrupt",
    [("relevance", "relevance_report", _corrupt_percent),
     ("connectivity", "build_feature_tensor", _corrupt_tensor)],
)
def test_corrupted_output_counts_as_failed(monkeypatch, tmp_path, module, name, corrupt):
    mod = sys.modules[f"eegfusion.{module}"]
    monkeypatch.setattr(mod, name, corrupt(getattr(mod, name)))
    with HostProbe() as probe:
        result, lines = bench.run("clinical_window", 5, 0.2, False, "tiny", tmp_path, probe)
    assert not result["correct"]
    # every stream window fails its checks
    assert result["failed"] >= workloads.ClinicalWindow.min_ops
    assert any(line.startswith("FAILED operation") for line in lines)
    assert any(line.startswith("error_rate") and not line.endswith("= 0.0000") for line in lines)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
