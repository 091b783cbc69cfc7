"""Acceptance gate: ten end-to-end guarantees the package must keep.

Each criterion is one test that prints a single pass line with the measured
values once its assertions hold; `pytest -v` therefore shows one verdict per
criterion. The synthetic five-seed study backing criteria 8 and 10 runs once
in a module fixture (about a minute of compute).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from eegfusion.connectivity import (
    FEATURE_ORDER,
    PipelineConfig,
    build_feature_tensor,
    coherence,
    directed_coherence,
    partial_coherence,
    partial_directed_coherence,
    plv_from_phases,
    plv_matrix,
)
from eegfusion.dsp import DEFAULT_BANDS
from eegfusion.model import ModelConfig, bce_loss, build_fusion_model, metrics_from_counts
from eegfusion.mvar import (
    MvarModel,
    companion_matrix,
    fit_mvar,
    simulate_var,
    spectral_decomposition,
)
from eegfusion.relevance import (
    DenseWeights,
    EmbeddingBatch,
    activation_potentials,
    contributions,
    feature_relevance,
    net_contribution,
)
from eegfusion.runner import RunConfig, pipeline_run
from eegfusion.signal_io import LabeledWindow

FS = 128.0
COUPLING_FAMILY = {"COH", "PCOH", "DC", "PDC"}


def _pass(n: int, detail: str) -> None:
    print(f"criterion {n:02d}: PASS - {detail}")


# ---------------------------------------------------------------- criteria 1+2

def random_stable_model(rng, c, p):
    while True:
        a = rng.uniform(-0.45, 0.45, size=(p, c, c)) / p
        if np.abs(np.linalg.eigvals(companion_matrix(a))).max() < 0.95:
            break
    w = rng.standard_normal((c, c))
    sigma = w @ w.T / c + 0.5 * np.eye(c)
    return MvarModel(p=p, A=a, Sigma=sigma, fs=FS)


_SWEEP: list = []


def model_sweep():
    """100 seeded stable models covering C in {2,3,5} x p in {1..5}."""
    if not _SWEEP:
        for i in range(100):
            c = (2, 3, 5)[i % 3]
            p = i % 5 + 1
            model = random_stable_model(np.random.default_rng(9000 + i), c, p)
            _SWEEP.append((model, spectral_decomposition(model, n_freqs=64)))
    return _SWEEP


def test_criterion_01_spectral_identities():
    t0 = time.perf_counter()
    sweep = model_sweep()
    assert len(sweep) == 100
    worst_inv = 0.0
    for model, sd in sweep:
        c = model.A.shape[1]
        resid = np.einsum("kij,kjl->kil", sd.S, sd.P) - np.eye(c)
        worst_inv = max(worst_inv, np.linalg.norm(resid, axis=(1, 2)).max())
        assert np.linalg.norm(resid, axis=(1, 2)).max() < 1e-8
        for mat in (sd.S, sd.P):
            assert np.array_equal(mat, mat.conj().transpose(0, 2, 1))
            eigs = np.linalg.eigvalsh(mat)
            floor = 1e-8 * np.abs(np.trace(mat, axis1=1, axis2=2)).max()
            assert eigs.min() >= -floor
        for mat in (coherence(sd), partial_coherence(sd)):
            diag = np.diagonal(mat, axis1=1, axis2=2)
            assert np.all(diag == 1.0)
            assert np.abs(mat).max() <= 1.0 + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(1, f"100 models, worst ||S.P - I|| {worst_inv:.2e}, {elapsed:.1f} s")


def test_criterion_02_row_power_normalization():
    worst = 0.0
    for model, sd in model_sweep():
        for measure in (
            directed_coherence(sd, model.Sigma),
            partial_directed_coherence(sd, model.Sigma),
        ):
            rows = np.sum(measure, axis=-1)
            worst = max(worst, np.abs(rows - 1.0).max())
            assert np.abs(rows - 1.0).max() < 1e-6
    _pass(2, f"DC/PDC row power within {worst:.2e} of 1 on the same sweep")


# ------------------------------------------------------------------ criterion 3

def coupled_var2():
    theta = 2 * np.pi * 12.0 / FS
    a1, a2 = 2 * 0.8 * np.cos(theta), -0.64
    a = np.zeros((2, 2, 2))
    a[0] = [[a1, 0.0], [0.6, a1]]
    a[1] = [[a2, 0.0], [0.0, a2]]
    return a


def test_criterion_03_mvar_recovery_and_welch_oracle():
    from scipy import signal as sig

    a = coupled_var2()
    x = simulate_var(a, 4096, rng=np.random.default_rng(42))
    m = fit_mvar(x, 2, FS)
    coeff_err = float(np.max(np.abs(m.A - a)))
    assert coeff_err < 0.05

    xl = simulate_var(a, 2**17, rng=np.random.default_rng(43))
    f_w, msc = sig.coherence(xl[:, 0], xl[:, 1], fs=FS, nperseg=8192)
    sd = spectral_decomposition(m, n_freqs=64)
    ki = int(np.argmin(np.abs(sd.freqs - 12.0)))
    wi = int(np.argmin(np.abs(f_w - 12.0)))
    model_msc = float(coherence(sd)[ki, 0, 1])
    diff = abs(model_msc - msc[wi])
    assert diff < 0.1
    _pass(3, f"coeff err {coeff_err:.4f} < 0.05, |Coh|^2 vs Welch diff {diff:.4f} < 0.1")


# ------------------------------------------------------------------ criterion 4

def test_criterion_04_direction_sensitivity():
    a = coupled_var2()  # channel 0 drives channel 1, never the reverse
    hits = 0
    for seed in range(10):
        x = simulate_var(a, 4096, rng=np.random.default_rng(200 + seed))
        sd = spectral_decomposition(fit_mvar(x, 2, FS), n_freqs=64)
        m = fit_mvar(x, 2, FS)
        dc = np.sqrt(directed_coherence(sd, m.Sigma)).mean(axis=0)
        pdc = np.sqrt(partial_directed_coherence(sd, m.Sigma)).mean(axis=0)
        forward = dc[1, 0] > 0.1 and pdc[1, 0] > 0.1
        silent = dc[0, 1] < 0.05 and pdc[0, 1] < 0.05
        hits += forward and silent
    assert hits >= 9
    _pass(4, f"{hits}/10 seeds show DC/PDC forward > 0.1 and reverse < 0.05")


# ------------------------------------------------------------------ criterion 5

def test_criterion_05_plv_exact_cases():
    # duplicated channel through the full band-filtered path
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((2560, 3))
    samples[:, 2] = samples[:, 0]
    window = LabeledWindow(samples=samples, label=0, source_id="dup", offset_s=0.0, fs=FS)
    plv = plv_matrix(window, DEFAULT_BANDS[2])
    assert np.all(plv[:, 0, 2] == 1.0)

    # alternating antiphase: resultant cancels pairwise
    n = 512
    phases = np.zeros((n, 2))
    phases[1::2, 1] = np.pi
    anti = plv_from_phases(phases)[0, 1]
    assert anti < 1e-12

    # independent phases: resultant length concentrates at sqrt(pi/4)/sqrt(N)
    expected = np.sqrt(np.pi / 4) / np.sqrt(n)
    trials = [
        plv_from_phases(
            np.random.default_rng(3000 + t).uniform(-np.pi, np.pi, (n, 2))
        )[0, 1]
        for t in range(100)
    ]
    mean_plv = float(np.mean(trials))
    assert expected / 2 < mean_plv < expected * 2
    _pass(5, f"dup exactly 1.0, antiphase {anti:.1e}, noise mean {mean_plv:.4f} "
             f"vs {expected:.4f} within x2")


# ------------------------------------------------------------------ criterion 6

def test_criterion_06_tensor_contract_at_clinical_dims():
    rng = np.random.default_rng(7)
    fs = 256.0
    window = LabeledWindow(
        samples=rng.standard_normal((int(20 * fs), 19)),
        label=1, source_id="clinical", offset_s=0.0, fs=fs,
    )
    tensor = build_feature_tensor(window, PipelineConfig())
    assert tensor.values.shape == (7, 10, 19, 19, 5)
    assert FEATURE_ORDER == ("SM", "ISM", "DC", "COH", "PDC", "PCOH", "PLV")
    assert np.all(np.isfinite(tensor.values))
    _pass(6, "20 s, C=19, fs=256 window -> (7, 10, 19, 19, 5) in contract order")


# ------------------------------------------------------------------ criterion 7

FD_DIMS = dict(
    n_channels=3, subwindows=4, n_bands=2, n_features=3,
    embed_dim=2, lstm_hidden=3, lstm_layers=2, dense_sizes=(3,),
)
FD_SEEDS = {1: 4, 2: 1, 3: 0, 4: 9}


def _fd_max_rel(scheme: int, seed: int) -> float:
    cfg = ModelConfig(scheme=scheme, **FD_DIMS)
    m = build_fusion_model(cfg)
    rng = np.random.default_rng(100 + seed)
    m.params = rng.uniform(-0.7, 0.7, m.param_count)
    x = rng.standard_normal((3,) + cfg.tensor_shape)
    y = rng.integers(0, 2, 3).astype(float)

    def loss():
        m.forward_batch(x, train=True)
        return bce_loss(m._cache["z"], y)

    loss()
    assert m.kink_margin() > 5e-3
    grad = m.backward(y)
    eps, worst = 1e-4, 0.0
    for i in range(m.param_count):
        old = m.params[i]
        m.params[i] = old + eps
        lp = loss()
        m.params[i] = old - eps
        lm = loss()
        m.params[i] = old
        num = (lp - lm) / (2 * eps)
        worst = max(worst, abs(num - grad[i]) / max(abs(num) + abs(grad[i]), 1e-6))
    return worst


def test_criterion_07_gradient_checks_and_branch_count():
    worst = {s: _fd_max_rel(s, FD_SEEDS[s]) for s in (1, 2, 3, 4)}
    assert max(worst.values()) < 1e-4
    assert len(build_fusion_model(ModelConfig(scheme=1)).branches) == 35
    detail = ", ".join(f"s{s} {e:.1e}" for s, e in worst.items())
    _pass(7, f"fd max rel err {detail}; scheme 1 has 35 branches at F=7, B=5")


# ------------------------------------------------------------- criteria 8 + 10

@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Five seeded default studies plus a byte-for-byte rerun of seed 0."""
    base = tmp_path_factory.mktemp("study")
    runs = {}
    for seed in range(5):
        out = base / f"seed{seed}"
        t0 = time.perf_counter()
        manifest = pipeline_run(replace(RunConfig(), out_dir=str(out), seed=seed))
        runs[seed] = {
            "out": out,
            "manifest": manifest,
            "runtime_s": time.perf_counter() - t0,
        }
    rerun = base / "seed0-rerun"
    pipeline_run(replace(RunConfig(), out_dir=str(rerun), seed=0))
    runs["rerun0"] = {"out": rerun}
    return runs


def test_criterion_08_end_to_end_synthetic_study(study):
    run = study[0]
    manifest = run["manifest"]
    dataset = json.loads((run["out"] / "dataset" / "manifest.json").read_text())
    assert len(dataset["windows"]) == 200
    assert manifest.config["model"]["scheme"] == 2
    assert manifest.config["split"]["test_fraction"] == 0.15
    acc = manifest.metrics["test"]["accuracy"]
    assert acc >= 0.90
    assert run["runtime_s"] < 600.0
    for name in manifest.files:
        a = (run["out"] / name).read_bytes()
        b = (study["rerun0"]["out"] / name).read_bytes()
        assert a == b, f"rerun differs in {name}"
    _pass(8, f"200 windows, held-out accuracy {acc:.3f} >= 0.90, "
             f"{run['runtime_s']:.0f} s < 600 s, rerun byte-identical")


def test_criterion_09_metric_formulas():
    m = metrics_from_counts(tp=3, fp=2, fn=1, tn=4)
    assert m.sensitivity == 3 / 4 == 0.75
    assert m.specificity == 4 / 6
    assert round(m.specificity, 4) == 0.6667
    assert m.precision == 3 / 5 == 0.6
    assert m.accuracy == 7 / 10 == 0.7
    _pass(9, "TP=3 FN=1 FP=2 TN=4 -> 0.75 / 0.6667 / 0.6 / 0.7")


def test_criterion_10_relevance_fixtures_and_study_ranking(study):
    # hand fixtures for the three relevance stages
    w = DenseWeights(W=np.array([[1.0], [-1.0]]), b=np.array([0.0]))
    batch = EmbeddingBatch(
        V=np.array([[1.0, 1.0], [1.0, -1.0]]), class_label=1, group_map=np.array([0, 1])
    )
    p = activation_potentials(batch, w)
    assert np.all(np.abs(p - 1.0) <= 1e-12)
    c = contributions(np.array([[3.0], [1.0]]))
    assert np.all(np.abs(c - [[0.75], [0.25]]) <= 1e-12)
    c_plus = net_contribution(np.array([[0.75, 0.2], [0.25, 0.8]]))
    assert np.all(np.abs(c_plus - [0.95, 1.05]) <= 1e-12)
    rel = feature_relevance(c_plus, np.array([0, 1]), feature_names=("a", "b"))
    assert abs(rel["percent"]["a"] - 47.5) <= 1e-12
    assert abs(rel["percent"]["b"] - 52.5) <= 1e-12

    hits = 0
    top_pairs = []
    for seed in range(5):
        doc = json.loads((study[seed]["out"] / "relevance.json").read_text())
        for payload in doc["classes"].values():
            total = sum(payload["percent"].values())
            assert abs(total - 100.0) <= 1e-6
        seizure = doc["classes"]["seizure"]["percent"]
        top2 = sorted(seizure, key=seizure.get, reverse=True)[:2]
        top_pairs.append(top2)
        hits += bool(set(top2) & COUPLING_FAMILY)
    assert hits >= 4
    _pass(10, f"fixtures within 1e-12, sums 100 +- 1e-6, coupling measure in "
              f"top-2 for {hits}/5 seeds {top_pairs}")
