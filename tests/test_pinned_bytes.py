"""Pinned bytes of feature extraction, training and z-scoring, and the loop
shapes that must keep them.

The digests were recorded before the hot path's numpy loops were reshaped:
one strided copy per sub-window stack, einsum band sums and bias-gradient
sums, in-place z-scoring, a contiguous LSTM bias, and a PLV diagonal that
scans for NaN only when it reads NaN. Each of those keeps the operations and
their summation order, so no digest may move. They hold for the numpy, scipy
and OpenBLAS builds pinned in the CI workflow; another build may round
differently. The C=19 clinical window's bytes would also move with the BLAS
thread count, but feature extraction runs with one OpenBLAS thread
whatever the count outside it, so that digest is taken in-process with both
bundled OpenBLAS builds set to two threads. Training, evaluation and
relevance run with whatever count is set, and their bytes at C=19 are the
same under one and two threads.

The two AIC digests were recorded again when the features began to read the
order search's own fits (Cholesky solutions) in place of an LU refit of the
chosen order, and again when the order search began to build each order's
normal equations in place (``syrk`` adds the boundary rows to the shared
Gram's lower triangle, and ``posv`` factors it there). That moved AIC values
by at most 4.4e-11 and the AIC features by at most 2.6e-12 of each family's
largest value (ISM), on the clinical and desk windows; no chosen order
moved. The other digests did not move.
"""

import contextlib
import hashlib
import json

import numpy as np
import pytest

from eegfusion import connectivity
from eegfusion.connectivity import (
    NormStats,
    PipelineConfig,
    WindowTensor,
    band_aggregate,
    build_feature_tensor,
    build_feature_tensors,
    normalize_features,
    window_chunks,
)
from eegfusion.dsp import DEFAULT_BANDS, analytic_signal, design_bandpass, filtfilt, unit_phasor
from eegfusion.layers import LSTM, AttentionPool, ParamRegistry
from eegfusion.model import ModelConfig, TrainConfig, build_fusion_model, evaluate, train
from eegfusion.mvar import FitDiagnostics, frequency_grid
from eegfusion.relevance import relevance_report
from eegfusion.runner import RunConfig, SynthStudyConfig, study_windows
from eegfusion.signal_io import SynthSpec, extract_labeled_windows, generate_synthetic, split_subwindows
from eegfusion.util import _openblas_thread_calls, one_blas_thread

AIC = PipelineConfig(aic=True, aic_max=12)
CLINICAL_AIC_DIGEST = "0b6fb2d6765990ad426978a2"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:24]


def blas_counts() -> list[int]:
    """The thread counts of numpy's and scipy's bundled OpenBLAS."""
    return [get() for get, _ in _openblas_thread_calls()]


@contextlib.contextmanager
def blas_threads(n: int):
    """Set both bundled OpenBLAS builds to ``n`` threads for the block."""
    calls = _openblas_thread_calls()
    assert len(calls) == 2  # the CI workflow installs the numpy and scipy wheels
    old = blas_counts()
    for _, set_ in calls:
        set_(n)
    try:
        yield
    finally:
        for (_, set_), k in zip(calls, old):
            set_(k)


def test_one_blas_thread_restores_the_old_counts():
    with blas_threads(2):
        with one_blas_thread():
            assert blas_counts() == [1, 1]
        assert blas_counts() == [2, 2]
        with pytest.raises(ValueError), one_blas_thread():
            raise ValueError
        assert blas_counts() == [2, 2]


@pytest.fixture(scope="module")
def desk_chunk():
    """Six C=4, fs=128 windows: three non-seizure, three seizure; one chunk."""
    cfg = RunConfig(synth=SynthStudyConfig(n_per_class=1, windows_per_recording=3, duration_s=100.0))
    chunks = list(window_chunks(study_windows(cfg)))
    assert [len(c) for c in chunks] == [6]
    return chunks[0]


@pytest.fixture(scope="module")
def desk_tensors(desk_chunk):
    return build_feature_tensors(desk_chunk, PipelineConfig())


class TestPinnedDigests:
    def test_desk_chunk_broadband(self, desk_tensors):
        assert digest(*(t.values for t in desk_tensors)) == "7256601c5467c423ec0cb311"

    def test_desk_chunk_aic(self, desk_chunk):
        diag = FitDiagnostics()
        tensors = build_feature_tensors(desk_chunk, AIC, diag)
        assert digest(*(t.values for t in tensors)) == "3d7c0337024a500f47dfde5e"
        assert (diag.order_cap_hits, diag.unstable_fits, diag.sigma_jitter_events) == (0, 0, 0)

    def test_clinical_aic_window(self):
        spec = SynthSpec(kind="coupled", n_channels=19, fs=256.0, duration_s=40.0,
                         coupling_strength=0.08, seed=0)
        window = extract_labeled_windows(*generate_synthetic(spec), n_nonseizure=0)[0]
        diag = FitDiagnostics()
        with blas_threads(2):
            values = build_feature_tensor(window, AIC, diag).values
            assert blas_counts() == [2, 2]
        assert values.shape == (7, 10, 19, 19, 5)
        assert digest(values) == CLINICAL_AIC_DIGEST
        assert (diag.order_cap_hits, diag.unstable_fits, diag.sigma_jitter_events) == (0, 1, 0)

    @pytest.mark.parametrize("scheme, want", [
        (1, "b59f8696465388ae3651d88c"),
        (2, "c6bbaafe621fd8ba2950a1c5"),
    ])
    def test_trained_parameters(self, desk_tensors, scheme, want):
        _, normed = normalize_features(desk_tensors)
        net, history = train(
            build_fusion_model(ModelConfig(scheme=scheme)), normed, TrainConfig(epochs=3, batch_size=2)
        )
        assert net.params.dtype == np.float32
        assert digest(net.params, [h["loss"] for h in history]) == want

    def test_norm_stats_with_a_zero_spread_cell(self):
        rng = np.random.default_rng(3)
        mean = rng.standard_normal((7, 5))
        std = rng.uniform(0.5, 2.0, (7, 5))
        std[3, 1] = 0.0
        stats = NormStats(mean=mean, std=std)
        x = rng.standard_normal((7, 10, 4, 4, 5))
        out64 = stats.apply(WindowTensor(x, 1, "w")).values
        out32 = stats.apply(WindowTensor(x.astype(np.float32), 1, "w")).values
        assert out64.dtype == np.float64 and out32.dtype == np.float32
        assert np.array_equal(out64[3, ..., 1], x[3, ..., 1])
        assert digest(out64, out32) == "8e578cae5c0e35b0da6debb5"


def stacked_subwindows(x, n_windows, n_sub):
    """The sub-window stack as ``np.stack`` builds it from split views."""
    return np.stack([
        sub for cols in np.split(x, n_windows, axis=1) for sub in split_subwindows(cols, n_sub)
    ])


def layouts():
    """Inputs (N, W*C) in each layout the stack meets or could meet."""
    rng = np.random.default_rng(11)
    for n, n_windows, c in [(2560, 6, 4), (5120, 1, 19), (40, 3, 1), (10, 2, 3)]:
        x = rng.standard_normal((n, n_windows * c))
        yield f"C-{n}x{c}", x, n_windows
        yield f"F-{n}x{c}", np.asfortranarray(x), n_windows
        yield f"reversed-{n}x{c}", x[::-1], n_windows
    filtered = filtfilt(design_bandpass(DEFAULT_BANDS[2], 128.0, 4), rng.standard_normal((2560, 24)))
    yield "filtered", filtered, 6
    yield "phasor", unit_phasor(analytic_signal(filtered)), 6


LAYOUTS = list(layouts())


class TestSubwindowStack:
    @pytest.mark.parametrize(
        "x, n_windows", [case[1:] for case in LAYOUTS], ids=[case[0] for case in LAYOUTS]
    )
    def test_equals_np_stack_in_bytes_and_strides(self, x, n_windows):
        want = stacked_subwindows(x, n_windows, 10)
        got = connectivity._subwindow_stack(x, n_windows, 10)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_indivisible_window_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            connectivity._subwindow_stack(np.zeros((2561, 8)), 2, 10)


class TestPlvNanScan:
    def full_scan(self, u, columns):
        """The PLV with the diagonal that scanning every column gives: the
        Gram value (capped at 1) where a column holds NaN, else exactly 1."""
        gram = np.abs(np.swapaxes(u, -1, -2) @ u.conj()) / u.shape[-2]
        plv = connectivity._phasor_plv(u, columns)
        ch = np.arange(u.shape[-1])
        plv[..., ch, ch] = np.where(
            np.isnan(columns).any(axis=-2), np.minimum(gram[..., ch, ch], 1.0), 1.0
        )
        return plv

    def test_nan_column_in_one_subwindow_of_a_stack(self):
        x = np.random.default_rng(5).standard_normal((2560, 8))
        u = connectivity._subwindow_stack(unit_phasor(analytic_signal(x)), 2, 10)
        u[13, 100, 2] = np.nan
        with np.errstate(invalid="ignore"):
            plv = connectivity._phasor_plv(u, u)
            want = self.full_scan(u, u)
        assert np.array_equal(plv, want, equal_nan=True)
        assert np.isnan(plv[13, 2, 2]) and np.isnan(plv[13, 2, :]).all()
        diag = np.diagonal(plv, axis1=-2, axis2=-1)
        assert (diag[np.arange(20) != 13] == 1.0).all()
        assert (np.delete(diag[13], 2) == 1.0).all()

    def test_infinite_phase_gives_the_full_scan_result(self):
        # exp(1j * inf) is NaN, so the diagonal reads NaN and the columns,
        # which hold no NaN, are scanned: the diagonal is 1 as before
        phases = np.random.default_rng(6).uniform(-np.pi, np.pi, (3, 64, 3))
        phases[1, 10, 0] = np.inf
        with np.errstate(invalid="ignore"):
            u = np.exp(1j * phases)
            assert np.array_equal(
                connectivity._phasor_plv(u, phases), self.full_scan(u, phases), equal_nan=True
            )
            assert connectivity.plv_from_phases(phases)[1, 0, 0] == 1.0


class TestEinsumReductions:
    """Each einsum reduction equals, byte for byte, the ``.sum`` it replaced,
    at the shapes the desk study, the clinical window and training use."""

    @pytest.mark.parametrize("fs, c, n_fits", [(128.0, 4, 47), (128.0, 4, 13), (256.0, 19, 4)])
    def test_band_sums(self, fs, c, n_fits):
        freqs = frequency_grid(fs, 64)
        keep = np.flatnonzero(
            np.any([(freqs >= b.low_hz) & (freqs < b.high_hz) for b in DEFAULT_BANDS], axis=0)
        )
        freqs = freqs[keep]
        power = np.random.default_rng(7).uniform(size=(6, n_fits, keep.size, c, c))
        out = band_aggregate(power, DEFAULT_BANDS, freqs)
        for b, band in enumerate(DEFAULT_BANDS):
            idx = np.flatnonzero((freqs >= band.low_hz) & (freqs < band.high_hz))
            want = power[..., idx[0] : idx[-1] + 1, :, :].sum(axis=-3) / idx.size
            assert out[..., b].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(35, 16, 64), (7, 16, 64), (35, 4, 64), (7, 1, 12)])
    def test_lstm_bias_gradient_sum(self, shape, dtype):
        dz = np.random.default_rng(8).standard_normal(shape).astype(dtype)
        dz[0, :, 0] = -0.0
        assert np.einsum("gmk->gk", dz).tobytes() == dz.sum(axis=1).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(35, 16, 10, 16), (7, 16, 10, 16), (7, 3, 10, 16)])
    def test_attention_bias_gradient_sum(self, shape, dtype):
        ga = np.random.default_rng(9).standard_normal(shape).astype(dtype)
        ga[0, :, :, 0] = -0.0
        assert np.einsum("gmth->gh", ga).tobytes() == ga.sum(axis=(1, 2)).tobytes()


@pytest.mark.parametrize("dtype, want", [
    (np.float32, "8c123eaecf74a5764f495d1a"),
    (np.float64, "490751da4381e5fc05bcaaec"),
])
def test_lstm_and_attention_pool_pinned_gradients(dtype, want):
    """Forward output and parameter and input gradients of a two-layer LSTM
    feeding an attention pool, three branches, in both training dtypes."""
    rng = np.random.default_rng(10)
    lstm, pool = LSTM(5, 4, n_layers=2), AttentionPool(4)
    reg = ParamRegistry()
    reg.add_stage(3, [lstm, pool])
    theta = rng.uniform(-0.5, 0.5, reg.size).astype(dtype)
    x = rng.standard_normal((3, 6, 10, 5)).astype(dtype)
    c_lstm, c_pool = {}, {}
    y = pool.forward(theta, lstm.forward(theta, x, c_lstm), c_pool)
    grad = np.zeros_like(theta)
    gx = lstm.backward(theta, grad, c_lstm, pool.backward(theta, grad, c_pool, np.ones_like(y)))
    assert y.dtype == grad.dtype == gx.dtype == dtype
    assert digest(y, grad, gx) == want


@pytest.mark.parametrize("scheme", [1, 2, 3, 4])
def test_training_bytes_do_not_move_with_the_blas_threads(scheme):
    """Training, evaluation and relevance at C=19 give the same bytes under
    one and two OpenBLAS threads, so no stage but extraction pins one. The
    tensor values are random: which BLAS calls run depends on the shapes
    only."""
    rng = np.random.default_rng(12)
    tensors = [WindowTensor(rng.standard_normal((7, 10, 19, 19, 5)), k % 2, f"w{k}") for k in range(32)]
    mcfg = ModelConfig(scheme=scheme, n_channels=19)
    got = []
    for n in (1, 2):
        with blas_threads(n):
            net, _ = train(build_fusion_model(mcfg), tensors, TrainConfig(epochs=2, batch_size=16))
            docs = [evaluate(net, tensors).to_dict()]
            if scheme in (1, 2):
                docs.append(relevance_report(net, tensors).to_dict())
        got.append((net.params.tobytes(), json.dumps(docs)))
    assert net.params.dtype == np.float32
    assert got[0] == got[1]
