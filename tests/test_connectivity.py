"""Connectivity measures, band aggregation, and the window feature tensor."""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import signal as sig

from eegfusion.connectivity import (
    FEATURE_ORDER,
    PipelineConfig,
    WindowTensor,
    band_aggregate,
    band_features,
    build_feature_tensor,
    build_feature_tensors,
    coherence,
    directed_coherence,
    normalize_features,
    partial_coherence,
    partial_directed_coherence,
    plv_from_phases,
    plv_matrix,
    window_chunks,
)
from eegfusion import connectivity, mvar
from eegfusion.dsp import (
    BROADBAND, DEFAULT_BANDS, BandSpec, analytic_signal, design_bandpass, filtfilt,
    instantaneous_phase,
)
from eegfusion.mvar import (
    FitDiagnostics, MvarModel, fit_aic, fit_mvar, is_stable, select_order, simulate_var,
    spectral_decomposition,
)
from eegfusion.signal_io import (
    LabeledWindow, SynthSpec, extract_labeled_windows, generate_synthetic, split_subwindows,
)
from eegfusion.runner import RunConfig, study_windows
from eegfusion.util import ConfigError, from_json, one_blas_thread, to_json

FS = 128.0


def zero_model(c=2, sigma=None):
    return MvarModel(
        p=1, A=np.zeros((1, c, c)),
        Sigma=np.eye(c) if sigma is None else np.asarray(sigma, float), fs=FS,
    )


def coupled_decomposition(seed=0, strength=0.6, reverse=False):
    """Fitted VAR(2) with resonant channels and one-way 1 -> 2 coupling."""
    r, f0 = 0.8, 12.0
    diag = 2 * r * np.cos(2 * np.pi * f0 / FS)
    a = np.zeros((2, 2, 2))
    a[0] = np.diag([diag, diag])
    if reverse:
        a[0][0, 1] = strength
    else:
        a[0][1, 0] = strength
    a[1] = np.diag([-r * r, -r * r])
    y = simulate_var(a, 2**14, rng=np.random.default_rng(seed))
    m = fit_mvar(y, 2, FS)
    return m, spectral_decomposition(m, n_freqs=64)


class TestCoherence:
    def test_zero_model_identity(self):
        sd = spectral_decomposition(zero_model(sigma=np.diag([1.0, 4.0])), 16)
        assert np.allclose(coherence(sd), np.eye(2), atol=1e-15)

    def test_diagonal_exactly_one(self):
        _, sd = coupled_decomposition()
        coh = coherence(sd)
        d = np.diagonal(coh, axis1=1, axis2=2)
        assert np.array_equal(d, np.ones_like(d))

    def test_bounded_and_exactly_symmetric(self):
        _, sd = coupled_decomposition(seed=1)
        coh = coherence(sd)
        assert coh.dtype == np.float64
        assert coh.min() >= 0.0 and coh.max() <= 1 + 1e-10
        assert np.array_equal(coh, coh.transpose(0, 2, 1))

    def test_matches_welch_msc_at_resonance(self):
        r, f0 = 0.8, 12.0
        diag = 2 * r * np.cos(2 * np.pi * f0 / FS)
        a = np.zeros((2, 2, 2))
        a[0] = [[diag, 0.0], [0.6, diag]]
        a[1] = np.diag([-r * r, -r * r])
        y = simulate_var(a, 2**17, rng=np.random.default_rng(2))
        m = fit_mvar(y, 2, FS)
        sd = spectral_decomposition(m, n_freqs=64)
        coh = coherence(sd)[:, 0, 1]
        f_w, msc = sig.coherence(y[:, 0], y[:, 1], fs=FS, nperseg=4096)
        i = int(np.argmax(coh))
        j = int(np.argmin(np.abs(f_w - sd.freqs[i])))
        assert abs(coh[i] - msc[j]) < 0.1
        assert abs(np.sqrt(coh[i]) - np.sqrt(msc[j])) < 0.1


class TestPartialCoherence:
    def test_zero_model_identity(self):
        sd = spectral_decomposition(zero_model(sigma=np.diag([2.0, 0.5])), 16)
        assert np.allclose(partial_coherence(sd), np.eye(2), atol=1e-15)

    def test_bounded_unit_diagonal(self):
        _, sd = coupled_decomposition(seed=3)
        pcoh = partial_coherence(sd)
        assert pcoh.min() >= 0.0 and pcoh.max() <= 1 + 1e-10
        d = np.diagonal(pcoh, axis1=1, axis2=2)
        assert np.array_equal(d, np.ones_like(d))

    def test_chain_indirect_link_suppressed(self):
        # 1 -> 2 -> 3 with no direct 1 -> 3 term: partialization removes the
        # indirect coherence, so |PCoh_13| < |Coh_13| at the resonance
        r, f0 = 0.8, 12.0
        diag = 2 * r * np.cos(2 * np.pi * f0 / FS)
        a = np.zeros((2, 3, 3))
        a[0] = np.diag([diag] * 3)
        a[0][1, 0] = 0.5
        a[0][2, 1] = 0.5
        a[1] = np.diag([-r * r] * 3)
        y = simulate_var(a, 2**15, rng=np.random.default_rng(4))
        m = fit_mvar(y, 2, FS)
        sd = spectral_decomposition(m, n_freqs=64)
        coh_13 = coherence(sd)[:, 2, 0]
        pcoh_13 = partial_coherence(sd)[:, 2, 0]
        i = int(np.argmax(coh_13))
        assert pcoh_13[i] < coh_13[i]


class TestDirectedMeasures:
    def test_zero_model_identity_patterns(self):
        sd = spectral_decomposition(zero_model(sigma=np.diag([1.0, 4.0])), 16)
        eye = np.broadcast_to(np.eye(2), (16, 2, 2))
        assert np.allclose(directed_coherence(sd, np.diag([1.0, 4.0])), eye, atol=1e-15)
        assert np.allclose(partial_directed_coherence(sd, np.diag([1.0, 4.0])), eye, atol=1e-15)

    def test_rows_sum_to_one(self):
        m, sd = coupled_decomposition(seed=5)
        for vals in (directed_coherence(sd, m.Sigma), partial_directed_coherence(sd, m.Sigma)):
            assert vals.min() >= 0.0
            row_power = np.sum(vals, axis=-1)
            assert np.max(np.abs(row_power - 1.0)) < 1e-6

    def test_direction_sensitivity_forward(self):
        m, sd = coupled_decomposition(seed=6)
        dc = np.sqrt(directed_coherence(sd, m.Sigma)).mean(axis=0)
        pdc = np.sqrt(partial_directed_coherence(sd, m.Sigma)).mean(axis=0)
        # coupling 1 -> 2: the (target 2, source 1) entry carries the flow
        assert dc[1, 0] > 0.1 and dc[0, 1] < 0.05
        assert pdc[1, 0] > 0.1 and pdc[0, 1] < 0.05

    def test_direction_sensitivity_reversed(self):
        m, sd = coupled_decomposition(seed=6, reverse=True)
        dc = np.sqrt(directed_coherence(sd, m.Sigma)).mean(axis=0)
        assert dc[0, 1] > 0.1 and dc[1, 0] < 0.05

    def test_zero_innovation_variance_rejected(self):
        sd = spectral_decomposition(zero_model(), 8)
        with pytest.raises(ValueError, match="innovation variance"):
            directed_coherence(sd, np.diag([1.0, 0.0]))


def reference_plv(phases):
    """The Gram PLV with its three restored properties, the equal-channel
    rule written pair by pair on the phases."""
    u = np.exp(1j * phases)
    plv = np.abs(np.swapaxes(u, -1, -2) @ u.conj()) / phases.shape[-2]
    plv = np.minimum(np.maximum(plv, np.swapaxes(plv, -1, -2)), 1.0)
    for idx in np.ndindex(plv.shape):
        *lead, i, j = idx
        if np.all(phases[(*lead, slice(None), i)] == phases[(*lead, slice(None), j)]):
            plv[idx] = 1.0
    return plv


def plv_inputs():
    """The phase inputs of TestPlv, plus infinite phases."""
    rng = np.random.default_rng
    phi = rng(7).uniform(-np.pi, np.pi, size=(256, 1))
    stack = rng(13).uniform(-np.pi, np.pi, size=(4, 256, 3))
    stack[2, :, 2] = stack[2, :, 0]
    one_off = np.column_stack([rng(14).uniform(-np.pi, np.pi, size=256)] * 2)
    one_off[100, 1] += 1e-3
    nan = rng(15).uniform(-np.pi, np.pi, size=(2, 64, 1))
    nan = np.concatenate([nan, nan, nan + 0.5], axis=-1)
    nan[0, 10, 2] = np.nan
    nan[1, 5, :2] = np.nan
    anti = np.zeros((512, 2))
    anti[1::2, 1] = np.pi
    inf = rng(16).uniform(-np.pi, np.pi, size=(64, 3))
    inf[:, 1] = inf[:, 0]
    inf[7, :2] = np.inf
    inf[9, 2] = -np.inf
    return [np.hstack([phi, phi]), stack, one_off, nan, anti,
            rng(8).uniform(-np.pi, np.pi, size=(128, 4)),
            rng(12).uniform(-np.pi, np.pi, size=(3, 256, 5)), inf]


class TestPlv:
    @pytest.mark.parametrize("k", range(8))
    def test_bytes_equal_the_pairwise_reference(self, k):
        phases = plv_inputs()[k]
        with np.errstate(invalid="ignore"):
            assert np.array_equal(plv_from_phases(phases), reference_plv(phases), equal_nan=True)

    def test_infinite_phases_equal_themselves(self):
        with np.errstate(invalid="ignore"):
            plv = plv_from_phases(plv_inputs()[-1])
        # channels 0 and 1 hold the same +inf sample, channel 2 a -inf one
        assert np.array_equal(plv[[0, 0, 1, 1, 2], [0, 1, 0, 1, 2]], np.ones(5))
        assert np.isnan(plv[2, :2]).all() and np.isnan(plv[:2, 2]).all()

    def test_duplicated_channel_exactly_one(self):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-np.pi, np.pi, size=(256, 1))
        plv = plv_from_phases(np.hstack([phi, phi]))
        assert plv[0, 1] == 1.0 and plv[1, 0] == 1.0

    def test_duplicated_channel_in_one_subwindow_of_a_stack(self):
        phases = np.random.default_rng(13).uniform(-np.pi, np.pi, size=(4, 256, 3))
        phases[2, :, 2] = phases[2, :, 0]
        plv = plv_from_phases(phases)
        assert plv[2, 0, 2] == 1.0 and plv[2, 2, 0] == 1.0
        assert np.all(plv[[0, 1, 3], 0, 2] < 0.5)

    def test_channel_differing_in_one_sample_is_not_forced_to_one(self):
        phi = np.random.default_rng(14).uniform(-np.pi, np.pi, size=256)
        phases = np.column_stack([phi, phi])
        phases[100, 1] += 1e-3
        plv = plv_from_phases(phases)
        # within 1e-6 of 1, so compared sample by sample, and left below 1
        assert 1.0 - 1e-6 < plv[0, 1] < 1.0
        assert plv[0, 1] == plv[1, 0]

    def test_nan_channel_beside_a_duplicated_clean_one(self):
        # the diagonal is 1 wherever a channel holds no NaN, with no sample
        # comparison; the duplicated pair is still compared and set to 1
        phi = np.random.default_rng(17).uniform(-np.pi, np.pi, size=(3, 128, 1))
        phases = np.concatenate([phi, phi, phi - 0.3], axis=-1)
        phases[1, 40, 2] = np.nan
        u = np.exp(1j * phases)
        with np.errstate(invalid="ignore"):
            plv = plv_from_phases(phases)
            assert np.array_equal(plv, reference_plv(phases), equal_nan=True)
            assert np.array_equal(connectivity._phasor_plv(u, u), plv, equal_nan=True)
        assert np.all(plv[:, [0, 0, 1, 1], [0, 1, 0, 1]] == 1.0)
        assert np.isnan(plv[1, 2]).all() and np.isnan(plv[1, :, 2]).all()
        assert np.all(plv[[0, 2], 2, 2] == 1.0)

    def test_nan_phases_keep_the_gram_value(self):
        # a NaN never equals itself: its channel's diagonal stays NaN, and
        # a duplicated finite channel is still exactly 1
        phi = np.random.default_rng(15).uniform(-np.pi, np.pi, size=(2, 64, 1))
        phases = np.concatenate([phi, phi, phi + 0.5], axis=-1)
        phases[0, 10, 2] = np.nan
        phases[1, 5, :2] = np.nan
        with np.errstate(invalid="ignore"):
            plv = plv_from_phases(phases)
        assert np.isnan(plv[0, 2]).all() and np.isnan(plv[0, :, 2]).all()
        assert plv[0, 0, 1] == plv[0, 0, 0] == plv[0, 1, 1] == 1.0
        assert np.isnan(plv[1, :2]).all() and np.isnan(plv[1, :, :2]).all()
        assert plv[1, 2, 2] == 1.0

    def test_antiphase_alternation_cancels(self):
        n = 512
        phases = np.zeros((n, 2))
        phases[1::2, 1] = np.pi
        plv = plv_from_phases(phases)
        assert plv[0, 1] < 1e-12

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(8)
        plv = plv_from_phases(rng.uniform(-np.pi, np.pi, size=(128, 4)))
        assert np.array_equal(plv, plv.T)
        assert np.array_equal(np.diag(plv), np.ones(4))
        assert np.all((plv >= 0) & (plv <= 1))

    def test_independent_phases_match_resultant_expectation(self):
        # E|mean exp(j dphi)| for N iid uniform phases is sqrt(pi/4)/sqrt(N)
        n = 512
        expected = np.sqrt(np.pi / 4) / np.sqrt(n)
        rng = np.random.default_rng(9)
        values = [
            plv_from_phases(rng.uniform(-np.pi, np.pi, size=(n, 2)))[0, 1]
            for _ in range(100)
        ]
        mean = np.mean(values)
        assert expected / 2 < mean < expected * 2

    def test_full_window_duplicated_channel(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2560, 1))
        w = LabeledWindow(samples=np.hstack([x, x, rng.standard_normal((2560, 1))]),
                          label=0, source_id="w", offset_s=0.0, fs=FS)
        plv = plv_matrix(w, BandSpec("alpha", 8.0, 13.0), n_sub=10)
        assert plv.shape == (10, 3, 3)
        assert np.all(plv[:, 0, 1] == 1.0)

    def test_gram_form_matches_definition(self):
        phases = np.random.default_rng(12).uniform(-np.pi, np.pi, size=(3, 256, 5))
        for sub, plv in zip(phases, plv_from_phases(phases)):
            dphi = sub[:, :, None] - sub[:, None, :]
            assert np.max(np.abs(plv - np.abs(np.exp(1j * dphi).mean(axis=0)))) < 1e-12

    def test_indivisible_subwindows_rejected(self):
        w = LabeledWindow(samples=np.random.default_rng(11).standard_normal((2561, 2)),
                          label=0, source_id="w", offset_s=0.0, fs=FS)
        with pytest.raises(ValueError, match="does not divide"):
            plv_matrix(w, BandSpec("alpha", 8.0, 13.0), n_sub=10)


class TestBandAggregate:
    def test_constant_measure(self):
        freqs = np.linspace(1.0, 64.0, 64)
        power = np.full((64, 2, 2), 0.25)
        bands = DEFAULT_BANDS
        coh = band_aggregate(power, bands, freqs)
        assert coh.shape == (2, 2, 5)
        assert np.allclose(coh, 0.25, atol=1e-15)

    def test_hand_grid_arithmetic(self):
        freqs = np.array([1.0, 5.0, 6.0, 20.0])
        power = np.zeros((4, 1, 1))
        power[1, 0, 0] = 0.3**2
        power[2, 0, 0] = 0.5**2
        out = band_aggregate(power, (BandSpec("theta", 4.0, 8.0),), freqs)
        assert abs(out[0, 0, 0] - 0.17) < 1e-15

    def test_stacked_power_keeps_its_leading_axes(self):
        power = np.random.default_rng(18).uniform(size=(3, 4, 2, 2))
        freqs = np.array([1.0, 5.0, 6.0, 20.0])
        out = band_aggregate(power, (BandSpec("theta", 4.0, 8.0),), freqs)
        assert out.shape == (3, 2, 2, 1)
        assert np.array_equal(out[..., 0], (power[:, 1] + power[:, 2]) / 2)

    def test_band_membership_half_open(self):
        freqs = np.array([4.0, 8.0])
        values = np.ones((2, 1, 1))
        values[1] = 3.0
        # 4 Hz included at the low edge, 8 Hz excluded at the high edge
        out = band_aggregate(values, (BandSpec("theta", 4.0, 8.0),), freqs)
        assert out[0, 0, 0] == 1.0

    def test_empty_band_rejected(self):
        freqs = (256.0 / 2) * np.arange(1, 65) / 64
        with pytest.raises(ValueError, match="no grid frequencies"):
            band_aggregate(np.ones((64, 1, 1)), (BandSpec("sliver", 127.9, 127.95),), freqs)


def oracle_unit_diagonal(mat, what):
    """M_ij / sqrt(M_ii M_jj) of Hermitian matrices M, the parts divided by
    the real denominator so that the diagonal is exactly 1."""
    d = np.real(np.diagonal(mat, axis1=-2, axis2=-1))
    if np.any(d <= 0):
        raise ValueError(f"nonpositive diagonal in {what}; cannot normalize")
    denom = np.sqrt(d[..., :, None] * d[..., None, :])
    return mat.real / denom + 1j * (mat.imag / denom)


def oracle_unit_row_power(num):
    """num_ij / sqrt(sum_m |num_im|^2): each row scaled to unit power."""
    return num / np.sqrt(np.sum(np.abs(num) ** 2, axis=-1, keepdims=True))


def complex_measures(sd, sigma):
    """The complex DC, COH, PDC and PCOH of their definitions, in FEATURE_ORDER:

        DC_ij   = s_j H_ij / sqrt(sum_m s_m^2 |H_im|^2)
        COH_ij  = S_ij / sqrt(S_ii S_jj)
        PDC_ij  = (1/s_j) Abar_ij / sqrt(sum_m (1/s_m^2) |Abar_im|^2)
        PCOH_ij = P_ij / sqrt(P_ii P_jj)
    """
    var = np.diagonal(np.asarray(sigma, dtype=float), axis1=-2, axis2=-1)
    if np.any(var <= 0):
        raise ValueError("nonpositive innovation variance; cannot normalize")
    s = np.sqrt(var)[..., None, None, :]
    return {
        "DC": oracle_unit_row_power(sd.H * s),
        "COH": oracle_unit_diagonal(sd.S, "spectral matrix"),
        "PDC": oracle_unit_row_power(sd.Abar / s),
        "PCOH": oracle_unit_diagonal(sd.P, "inverse spectral matrix"),
    }


def named_measures(sd, sigma):
    """The package's DC, COH, PDC and PCOH, keyed as complex_measures."""
    return {
        "DC": directed_coherence(sd, sigma),
        "COH": coherence(sd),
        "PDC": partial_directed_coherence(sd, sigma),
        "PCOH": partial_coherence(sd),
    }


def complex_band_means(sd, sigma, bands):
    """Mean |M(f)|^2 of SM, ISM and the complex measures over each band's grid
    frequencies, ln(1 + x) for SM and ISM, laid out as band_features."""
    measures = {"SM": sd.S, "ISM": sd.P, **complex_measures(sd, sigma)}
    planes = []
    for name in FEATURE_ORDER[:-1]:
        power = np.abs(measures[name]) ** 2
        means = []
        for band in bands:
            in_band = (sd.freqs >= band.low_hz) & (sd.freqs < band.high_hz)
            if not in_band.any():
                raise ValueError(f"band {band.name!r} contains no grid frequencies")
            means.append(power[..., in_band, :, :].mean(axis=-3))
        means = np.stack(means, axis=-1)
        planes.append(np.log1p(means) if name in ("SM", "ISM") else means)
    return np.stack(planes)


def order_stacks(window, cfg):
    """The fit stacks of the feature path for one window: one per order."""
    x = filtfilt(design_bandpass(cfg.broadband, window.fs, cfg.filter_order), window.samples)
    subs = np.stack(split_subwindows(x, cfg.subwindows))
    if cfg.aic:
        return list(fit_aic(subs, window.fs, cfg.aic_max, cfg.ridge)[1].values())
    return [fit_mvar(subs, cfg.order, window.fs, cfg.ridge)]


def feature_fits(cfg, n_channels):
    """The fit stacks of one coupled window at C=4, fs=128 or C=19, fs=256."""
    fs, strength = (128.0, 0.15) if n_channels == 4 else (256.0, 0.08)
    window = coupled_windows(n_channels, fs, n_windows=1, strength=strength)[0]
    stacks = order_stacks(window, cfg)
    assert len(stacks) >= (2 if cfg.aic else 1)
    return stacks


FIT_CASES = pytest.mark.parametrize("cfg", [PipelineConfig(), PipelineConfig(aic=True)],
                                    ids=["fixed", "aic"])


class TestBandFeatures:
    """band_features and the named measures compute the band means and the
    squared moduli of the complex measures from real power."""

    @pytest.mark.parametrize("n_channels", [4, 19])
    @FIT_CASES
    def test_named_measures_equal_the_squared_complex_measures(self, cfg, n_channels):
        eps = np.finfo(float).eps
        for m in feature_fits(cfg, n_channels):
            sd = spectral_decomposition(m, cfg.n_freqs)
            named = named_measures(sd, m.Sigma)
            for name, want in complex_measures(sd, m.Sigma).items():
                got = named[name]
                assert got.dtype == np.float64 and got.shape == want.shape
                assert np.max(np.abs(got - np.abs(want) ** 2)) <= 4 * eps

    @pytest.mark.parametrize("n_channels", [4, 19])
    @FIT_CASES
    def test_matches_band_means_of_the_complex_measures(self, cfg, n_channels):
        for m in feature_fits(cfg, n_channels):
            sd = spectral_decomposition(m, cfg.n_freqs)
            got = band_features(sd, m.Sigma, cfg.bands)
            want = complex_band_means(sd, m.Sigma, cfg.bands)
            assert got.shape == want.shape == (6, len(m.A), n_channels, n_channels, 5)
            for k in range(6):
                assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * np.max(np.abs(want[k]))

    @pytest.mark.parametrize("n_channels", [4, 19])
    def test_coherence_diagonals_exactly_one_in_the_tensor(self, n_channels):
        fs = 128.0 if n_channels == 4 else 256.0
        window = coupled_windows(n_channels, fs, n_windows=1, strength=0.08)[0]
        t = build_feature_tensor(window, PipelineConfig(aic=True)).values
        for name in ("COH", "PCOH"):
            diag = np.diagonal(t[FEATURE_ORDER.index(name)], axis1=1, axis2=2)
            assert np.all(diag == 1.0)

    def test_errors_keep_the_complex_measures_order(self):
        sd = spectral_decomposition(zero_model(c=2), n_freqs=8)
        no_band = (BandSpec("sliver", 63.1, 63.2),)
        bad_s = dataclasses.replace(sd, S=-sd.S)
        bad_p = dataclasses.replace(sd, P=-sd.P)
        bad_both = dataclasses.replace(bad_s, P=-sd.P)
        cases = [
            (bad_both, np.diag([0.0, 1.0]), "innovation variance"),
            (bad_both, np.eye(2), "in spectral matrix"),
            (bad_p, np.eye(2), "in inverse spectral matrix"),
            (sd, np.eye(2), "no grid frequencies"),
        ]
        for decomposition, sigma, message in cases:
            with pytest.raises(ValueError, match=message):
                band_features(decomposition, sigma, no_band)
            with pytest.raises(ValueError, match=message):
                complex_band_means(decomposition, sigma, no_band)


def synthetic_window(kind="uncoupled", seed=0, n_channels=4):
    spec = SynthSpec(kind=kind, n_channels=n_channels, duration_s=40.0,
                     coupling_strength=0.15 if kind == "coupled" else 0.0, seed=seed)
    rec, ann = generate_synthetic(spec)
    n_non = 1 if kind == "uncoupled" else 0
    return extract_labeled_windows(rec, ann, n_nonseizure=n_non, seed=seed, guard_s=0.0)[0]


class TestBuildFeatureTensor:
    def test_shape_and_feature_order(self):
        t = build_feature_tensor(synthetic_window())
        assert t.shape == (7, 10, 4, 4, 5)
        assert FEATURE_ORDER == ("SM", "ISM", "DC", "COH", "PDC", "PCOH", "PLV")
        assert np.isfinite(t.values).all()

    def test_ten_sample_subwindows(self):
        # the filters run on the whole window, so sub-windows shorter than
        # their padding still give finite features
        t = build_feature_tensor(synthetic_window(), PipelineConfig(order=1, subwindows=256))
        assert t.shape == (7, 256, 4, 4, 5)
        assert np.isfinite(t.values).all()

    def test_uncoupled_offdiagonal_coherence_low(self):
        t = build_feature_tensor(synthetic_window(seed=1))
        coh = t.values[FEATURE_ORDER.index("COH")]
        off = ~np.eye(4, dtype=bool)
        assert coh[:, off, :].mean() < 0.2

    def test_coupled_exceeds_uncoupled_coherence(self):
        coh_i = FEATURE_ORDER.index("COH")
        off = ~np.eye(4, dtype=bool)
        coupled = build_feature_tensor(synthetic_window("coupled", seed=2))
        uncoupled = build_feature_tensor(synthetic_window("uncoupled", seed=2))
        assert coupled.values[coh_i][:, off, :].mean() > uncoupled.values[coh_i][:, off, :].mean()

    def test_channel_permutation_equivariance(self):
        w = synthetic_window(seed=3)
        perm = np.array([2, 0, 3, 1])
        wp = LabeledWindow(samples=w.samples[:, perm], label=w.label,
                           source_id=w.source_id, offset_s=w.offset_s, fs=w.fs)
        t = build_feature_tensor(w).values
        tp = build_feature_tensor(wp).values
        assert np.allclose(tp, t[:, :, perm][:, :, :, perm], atol=1e-8)

    def test_spectra_evaluated_on_band_frequencies_only(self, monkeypatch):
        seen = []
        real = connectivity.spectral_decomposition

        def recording(*args, **kwargs):
            sd = real(*args, **kwargs)
            seen.append(sd.freqs)
            return sd

        monkeypatch.setattr(connectivity, "spectral_decomposition", recording)
        build_feature_tensor(synthetic_window(seed=4))
        # the default bands cover [2, 45) Hz of the 1 Hz grid at fs = 128
        assert seen and all(np.array_equal(f, np.arange(2.0, 45.0)) for f in seen)

    def test_bands_outside_the_grid_rejected(self):
        # the only grid frequency at n_freqs = 1 is Nyquist, in no band
        with pytest.raises(ValueError, match="sub-window 0: band 'delta'.*no grid frequencies"):
            build_feature_tensor(synthetic_window(seed=5), PipelineConfig(n_freqs=1))

    def test_failed_subwindow_names_window(self):
        w = synthetic_window(seed=5)
        cfg = PipelineConfig(order=60)  # 256-sample sub-windows cannot support it
        with pytest.raises(ValueError, match="sub-window 0"):
            build_feature_tensor(w, cfg)

    def test_stacked_failure_names_first_failing_subwindow(self, monkeypatch):
        # sub-windows 3 and 7 fail inside the one stacked fit of all ten
        w = synthetic_window(seed=5)
        filt = design_bandpass(BROADBAND, w.fs, 4)
        subs = split_subwindows(filtfilt(filt, w.samples), 10)
        bad = {subs[3][0, 0], subs[7][0, 0]}
        real_fit = connectivity.fit_mvar

        def flaky_fit(x, *args):
            firsts = np.asarray(x).reshape((-1,) + x.shape[-2:])[:, 0, 0]
            if bad & set(firsts):
                raise ValueError("flaky fit")
            return real_fit(x, *args)

        monkeypatch.setattr(connectivity, "fit_mvar", flaky_fit)
        with pytest.raises(ValueError, match="sub-window 3: flaky fit"):
            build_feature_tensor(w)

    def test_normalized_measures_in_unit_interval(self):
        t = build_feature_tensor(synthetic_window("coupled", seed=6))
        for name in ("COH", "PCOH", "DC", "PDC", "PLV"):
            plane = t.values[FEATURE_ORDER.index(name)]
            assert plane.min() >= 0.0 and plane.max() <= 1.0 + 1e-10


@one_blas_thread()
def oracle_tensor(window, cfg, refit=False):
    """The feature tensor rebuilt one fit and one sub-window at a time from
    the public per-fit functions, with the diagnostics those fits add up to.
    With AIC each sub-window takes the search's own fit, or with ``refit``
    a ``fit_mvar`` of the order ``select_order`` picks. It runs with one
    OpenBLAS thread, as the feature path does."""
    diag = FitDiagnostics()
    t_sub, c = cfg.subwindows, window.samples.shape[1]
    out = np.empty((7, t_sub, c, c, len(cfg.bands)))

    x = filtfilt(design_bandpass(cfg.broadband, window.fs, cfg.filter_order), window.samples)
    for t, sub in enumerate(split_subwindows(x, t_sub)):
        if cfg.aic and not refit:
            p, m = fit_aic(sub, window.fs, cfg.aic_max, cfg.ridge)
        else:
            p = select_order(sub, cfg.aic_max, cfg.ridge) if cfg.aic else cfg.order
            m = fit_mvar(sub, p, window.fs, cfg.ridge)
        diag.order_cap_hits += cfg.aic and p == cfg.aic_max
        diag.unstable_fits += not is_stable(m)
        sd = spectral_decomposition(m, cfg.n_freqs, diag)
        out[:-1, t] = band_features(sd, m.Sigma, cfg.bands)
    for b, band in enumerate(cfg.bands):
        out[-1, ..., b] = oracle_plv(window, band, cfg)
    return out, diag


def oracle_plv(window, band, cfg):
    """PLV (T, C, C) of one window and band from per-channel phases."""
    x = filtfilt(design_bandpass(band, window.fs, cfg.filter_order), window.samples)
    phases = np.column_stack(
        [instantaneous_phase(analytic_signal(x[:, ch])) for ch in range(x.shape[1])]
    )
    return np.stack([plv_from_phases(sub) for sub in split_subwindows(phases, cfg.subwindows)])


class TestStackedFeaturePath:
    """build_feature_tensor runs sub-windows as stacks; it must equal the
    tensor built one fit at a time."""

    @pytest.mark.parametrize("n_channels", [4, 19])
    @pytest.mark.parametrize("cfg", [
        PipelineConfig(),
        PipelineConfig(aic=True),
    ], ids=["broadband", "aic"])
    def test_equals_per_fit_oracle(self, cfg, n_channels):
        fs, strength = (128.0, 0.15) if n_channels == 4 else (256.0, 0.08)
        spec = SynthSpec(kind="coupled", n_channels=n_channels, fs=fs, duration_s=20.0,
                         coupling_strength=strength, seed=1)
        rec, ann = generate_synthetic(spec)
        window = extract_labeled_windows(rec, ann, n_nonseizure=0)[0]
        if cfg.aic:
            x = filtfilt(design_bandpass(cfg.broadband, fs, cfg.filter_order), window.samples)
            orders = {select_order(sub, cfg.aic_max, cfg.ridge) for sub in split_subwindows(x, 10)}
            assert len(orders) >= 2  # the stacked path must group by order
        diag = FitDiagnostics()
        got = build_feature_tensor(window, cfg, diag).values
        want, want_diag = oracle_tensor(window, cfg)
        assert np.array_equal(got[:-1], want[:-1])
        assert np.max(np.abs(got[-1] - want[-1])) <= 1e-12
        assert diag == want_diag

    def test_unstable_count_equals_eigenvalue_oracle(self, monkeypatch):
        # the growing window's fits sit just above radius 1, where the
        # squaring certificate cannot decide and eigenvalues count them
        eigen = mock.Mock(wraps=mvar._spectral_radius)
        monkeypatch.setattr(mvar, "_spectral_radius", eigen)
        window, cfg = growing_windows(n_windows=1)[0], PipelineConfig()
        diag = FitDiagnostics()
        build_feature_tensor(window, cfg, diag)
        assert eigen.called
        assert diag.unstable_fits > 0
        assert diag.unstable_fits == oracle_tensor(window, cfg)[1].unstable_fits


def coupled_windows(n_channels=4, fs=128.0, n_windows=8, seed=1, strength=0.15):
    spec = SynthSpec(kind="coupled", n_channels=n_channels, fs=fs, duration_s=20.0 * n_windows,
                     coupling_strength=strength, seed=seed)
    rec, ann = generate_synthetic(spec)
    return extract_labeled_windows(rec, ann, n_nonseizure=0)


def growing_windows(n_windows=8, n_channels=4, fs=FS):
    """Windows of a 10 Hz oscillation growing by 1.001 per sample, plus 0.01
    noise: every MVAR fit of them is unstable."""
    n = np.arange(int(20 * fs))[:, None]
    rng = np.random.default_rng(0)
    windows = []
    for i in range(n_windows):
        x = 1.001**n * np.sin(2 * np.pi * 10.0 * n / fs + rng.uniform(0, 2 * np.pi, n_channels))
        x += 0.01 * rng.standard_normal(x.shape)
        windows.append(LabeledWindow(samples=x, label=1, source_id=f"grow-{i}", offset_s=0.0, fs=fs))
    return windows


def assert_same_tensors(got, want):
    assert [t.source_id for t in got] == [t.source_id for t in want]
    assert [t.label for t in got] == [t.label for t in want]
    for a, b in zip(got, want):
        assert a.values.shape == b.values.shape
        assert a.values.tobytes() == b.values.tobytes()


def one_at_a_time(windows, cfg):
    diag = FitDiagnostics()
    return [build_feature_tensor(w, cfg, diag) for w in windows], diag


def with_zero_channel(w, ch=1):
    samples = w.samples.copy()
    samples[:, ch] = 0.0
    return LabeledWindow(samples=samples, label=w.label, source_id=w.source_id,
                         offset_s=w.offset_s, fs=w.fs)


class TestWindowChunks:
    """Windows run in chunks; each chunk must give the bytes and diagnostics
    of its windows run one at a time."""

    def test_chunk_budget(self):
        def blank(n, c, fs):
            return LabeledWindow(samples=np.zeros((n, c)), label=0, source_id="w",
                                 offset_s=0.0, fs=fs)

        desk = [blank(2560, 4, 128.0)] * 13
        assert [len(ch) for ch in window_chunks(desk)] == [6, 6, 1]
        clinical = [blank(5120, 19, 256.0)] * 2
        assert [len(ch) for ch in window_chunks(clinical)] == [1, 1]
        assert list(window_chunks([])) == []

    def test_chunk_plv_matches_phase_oracle_on_the_desk_study(self):
        # unit phasors z / |z| round differently from exp(j angle(z))
        cfg = RunConfig(seed=0)
        windows = study_windows(cfg)
        assert len(windows) == 200
        pcfg, worst = cfg.pipeline, 0.0
        for chunk in window_chunks(windows):
            block = np.concatenate([w.samples for w in chunk], axis=1)
            for band in pcfg.bands:
                x = filtfilt(design_bandpass(band, chunk[0].fs, pcfg.filter_order), block)
                got = connectivity._band_plv(x, band, len(chunk), pcfg.subwindows)
                for w, plv in zip(chunk, got):
                    worst = max(worst, np.max(np.abs(plv - oracle_plv(w, band, pcfg))))
        assert worst <= 1e-15

    def test_plv_diagonal_and_duplicated_channel_exactly_one(self):
        windows = coupled_windows(n_windows=3)
        for w in windows:
            w.samples[:, 3] = w.samples[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the duplicate makes Sigma singular
            tensors = build_feature_tensors(windows)
        plv = np.stack([t.values[-1] for t in tensors])  # (W, T, C, C, B)
        assert np.all(np.diagonal(plv, axis1=2, axis2=3) == 1.0)
        assert np.all(plv[:, :, 0, 3] == 1.0) and np.all(plv[:, :, 3, 0] == 1.0)

    def test_all_zero_band_signal_names_window_and_band(self, monkeypatch):
        real = connectivity.filtfilt

        def silent_theta(f, x):
            y = real(f, x)
            return np.zeros_like(y) if f.band.name == "theta" else y

        monkeypatch.setattr(connectivity, "filtfilt", silent_theta)
        windows = coupled_windows(n_windows=3)
        with pytest.raises(ValueError) as err:
            build_feature_tensors(windows)
        assert str(err.value) == (
            f"window {windows[0].source_id!r}, band 'theta' PLV: phase undefined: "
            f"zero-magnitude analytic sample at index 0"
        )

    @pytest.mark.parametrize("make_windows, cfg", [
        (coupled_windows, PipelineConfig()),
        (growing_windows, PipelineConfig()),
        (coupled_windows, PipelineConfig(aic=True)),
    ], ids=["broadband", "unstable", "aic"])
    def test_chunks_equal_one_window_at_a_time(self, make_windows, cfg):
        # 8 windows: a chunk of 6 and one of 2; the chunk of 6 runs MVAR
        # passes of 47 and 13 sub-windows, split inside window 4
        windows = make_windows()
        chunks = list(window_chunks(windows))
        assert [len(ch) for ch in chunks] == [6, 2]
        diag = FitDiagnostics()
        got = [t for ch in chunks for t in build_feature_tensors(ch, cfg, diag)]
        want, want_diag = one_at_a_time(windows, cfg)
        assert_same_tensors(got, want)
        assert diag == want_diag
        if make_windows is growing_windows:
            assert diag.unstable_fits == 80
        if cfg.aic:
            assert diag.order_cap_hits > 0

    def test_mixed_rates_and_channel_counts_form_separate_chunks(self):
        desk = coupled_windows(n_windows=3)
        fast = coupled_windows(fs=256.0, n_windows=1, seed=2, strength=0.08)
        narrow = coupled_windows(n_channels=3, n_windows=2, seed=3)
        windows = desk[:2] + fast + desk[2:] + narrow
        chunks = list(window_chunks(windows))
        ids = [[w.source_id for w in ch] for ch in chunks]
        assert ids == [[w.source_id for w in windows[a:b]] for a, b in ((0, 2), (2, 3), (3, 4), (4, 6))]
        cfg = PipelineConfig()
        diag = FitDiagnostics()
        got = [t for ch in chunks for t in build_feature_tensors(ch, cfg, diag)]
        want, want_diag = one_at_a_time(windows, cfg)
        assert_same_tensors(got, want)
        assert diag == want_diag
        with pytest.raises(ValueError, match="one sampling rate and one sample shape"):
            build_feature_tensors(desk[:2] + fast, cfg)

    def test_failure_names_the_first_failing_window(self):
        windows = coupled_windows(n_windows=5)
        bad = with_zero_channel(windows[2])
        cfg = PipelineConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as alone:
                build_feature_tensor(bad, cfg)
            with pytest.raises(ValueError) as chunked:
                build_feature_tensors(windows[:2] + [bad] + windows[3:], cfg)
        assert str(alone.value).startswith(f"window {bad.source_id!r}, sub-window 0: ")
        assert str(chunked.value) == str(alone.value)

    def test_pass_spanning_windows_names_its_sub_window(self, monkeypatch):
        # flat sub-window 43 is sub-window 3 of window 4, inside the first
        # MVAR pass (sub-windows 0-46) of a six-window chunk
        windows = coupled_windows(n_windows=6)
        filt = design_bandpass(BROADBAND, FS, 4)
        bad = split_subwindows(filtfilt(filt, windows[4].samples), 10)[3][0, 0]
        real_fit = connectivity.fit_mvar

        def flaky_fit(x, *args):
            if bad in np.asarray(x).reshape((-1,) + x.shape[-2:])[:, 0, 0]:
                raise ValueError("flaky fit")
            return real_fit(x, *args)

        monkeypatch.setattr(connectivity, "fit_mvar", flaky_fit)
        with pytest.raises(ValueError) as chunked:
            build_feature_tensors(windows)
        assert str(chunked.value) == f"window {windows[4].source_id!r}, sub-window 3: flaky fit"

    def test_error_no_rerun_reproduces_is_raised_as_raised(self, monkeypatch):
        # a fit fails only on stacks of more than one window's sub-windows:
        # no sub-window and no window fails alone
        windows = coupled_windows(n_windows=6)
        real_fit = connectivity.fit_mvar

        def wide_fit(x, *args):
            if len(x) > 10:
                raise ValueError("wide fit")
            return real_fit(x, *args)

        monkeypatch.setattr(connectivity, "fit_mvar", wide_fit)
        with pytest.raises(ValueError) as chunked:
            build_feature_tensors(windows)
        assert str(chunked.value) == "wide fit"


def clinical_window():
    return coupled_windows(n_channels=19, fs=256.0, n_windows=1, seed=0, strength=0.08)[0]


class TestAicFits:
    """With AIC the features read the order search's own fits. A refit of
    the chosen order by ``fit_mvar`` solves the same ridged normal equations
    by LU, so the two differ by rounding only, within README's tolerance."""

    @pytest.mark.parametrize("duplicate, want_counts", [
        (False, (0, 1, 0)),
        (True, (0, 1, 10)),
    ], ids=["clean", "duplicated-channel"])
    def test_equal_a_refit_at_the_chosen_order(self, duplicate, want_counts):
        window, cfg = clinical_window(), PipelineConfig(aic=True)
        if duplicate:
            samples = window.samples.copy()
            samples[:, 1] = samples[:, 0]
            window = dataclasses.replace(window, samples=samples)
        x = filtfilt(design_bandpass(cfg.broadband, window.fs, cfg.filter_order), window.samples)
        subs = np.stack(split_subwindows(x, cfg.subwindows))
        orders, models = fit_aic(subs, window.fs, cfg.aic_max, cfg.ridge)
        assert orders == select_order(subs, cfg.aic_max, cfg.ridge)
        for p, m in models.items():
            ref = fit_mvar(subs[[t for t, q in enumerate(orders) if q == p]], p, window.fs, cfg.ridge)
            assert np.abs(m.A - ref.A).max() <= 1e-10 * np.abs(ref.A).max()
            assert np.abs(m.Sigma - ref.Sigma).max() <= 1e-10 * np.abs(ref.Sigma).max()

        diag = FitDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the jittered Sigmas
            got = build_feature_tensor(window, cfg, diag).values
            want, want_diag = oracle_tensor(window, cfg, refit=True)
        assert diag == want_diag
        assert (diag.order_cap_hits, diag.unstable_fits, diag.sigma_jitter_events) == want_counts
        # ISM and PCOH read the inverse of a jittered, near-singular Sigma
        loose = {"ISM", "PCOH"} if duplicate else set()
        for f, name in enumerate(FEATURE_ORDER[:-1]):
            if name in loose:
                np.testing.assert_allclose(got[f], want[f], rtol=1e-2, atol=0)
            else:
                np.testing.assert_allclose(got[f], want[f], rtol=1e-8, atol=1e-12)


class TestMvarPasses:
    """A chunk's MVAR work runs in passes of at most ``_CHUNK_ELEMENTS``
    in-band frequency-channel-pair cells; the pass size moves no byte."""

    def test_pass_sizes_with_the_default_bands(self, monkeypatch):
        sizes = []
        real = connectivity._mvar_planes

        def recording(subs, *args):
            sizes.append(len(subs))
            return real(subs, *args)

        monkeypatch.setattr(connectivity, "_mvar_planes", recording)
        # 22 in-band frequencies at fs = 256, 43 at fs = 128
        build_feature_tensor(clinical_window(), PipelineConfig(aic=True))
        assert sizes == [4, 4, 2]
        sizes.clear()
        build_feature_tensors(coupled_windows(n_windows=6))
        assert sizes == [47, 13]

    def test_clinical_window_equals_one_sub_window_per_pass(self, monkeypatch):
        window, cfg = clinical_window(), PipelineConfig(aic=True)
        diag = FitDiagnostics()
        got = build_feature_tensor(window, cfg, diag)
        monkeypatch.setattr(connectivity, "_CHUNK_ELEMENTS", 1)
        one_diag = FitDiagnostics()
        want = build_feature_tensor(window, cfg, one_diag)
        assert got.values.tobytes() == want.values.tobytes()
        assert diag == one_diag
        assert diag.unstable_fits > 0

    def test_failure_in_the_second_clinical_pass_names_its_sub_window(self, monkeypatch):
        # sub-window 5 lies in the second pass (sub-windows 4-7)
        window = clinical_window()
        filt = design_bandpass(BROADBAND, window.fs, 4)
        bad = split_subwindows(filtfilt(filt, window.samples), 10)[5][0, 0]
        real_fit = connectivity.fit_aic

        def flaky_fit(x, *args):
            if bad in np.asarray(x)[:, 0, 0]:
                raise ValueError("flaky fit")
            return real_fit(x, *args)

        monkeypatch.setattr(connectivity, "fit_aic", flaky_fit)
        with pytest.raises(ValueError) as err:
            build_feature_tensor(window, PipelineConfig(aic=True))
        assert str(err.value) == f"window {window.source_id!r}, sub-window 5: flaky fit"

    @pytest.mark.parametrize("make_chunk, cfg", [
        (lambda: [clinical_window()], PipelineConfig(aic=True)),
        (lambda: coupled_windows(n_windows=6), PipelineConfig()),
    ], ids=["clinical_aic", "desk"])
    def test_chunk_working_memory_stays_under_10_mb(self, make_chunk, cfg):
        chunk = make_chunk()
        build_feature_tensors(chunk, cfg)  # designs the filters, which are cached
        tracemalloc.start()
        try:
            build_feature_tensors(chunk, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestNormalizeFeatures:
    def test_train_set_standardized(self):
        tensors = [build_feature_tensor(synthetic_window(seed=s)) for s in (7, 8, 9)]
        stats, normed = normalize_features(tensors)
        arr = np.stack([t.values for t in normed])
        mean = arr.mean(axis=(0, 2, 3, 4))
        std = arr.std(axis=(0, 2, 3, 4))
        assert np.max(np.abs(mean)) < 1e-9
        nontrivial = stats.std > 0
        assert np.max(np.abs(std[nontrivial] - 1.0)) < 1e-6

    def test_constant_plane_unchanged(self):
        values = np.zeros((7, 2, 2, 2, 5))
        values[0] = 3.0
        tensors = [WindowTensor(values=values.copy(), label=i % 2, source_id=str(i))
                   for i in range(3)]
        _, normed = normalize_features(tensors)
        assert np.allclose(normed[0].values[0], 3.0)

    def test_apply_order_independent(self):
        tensors = [build_feature_tensor(synthetic_window(seed=s)) for s in (10, 11)]
        stats, _ = normalize_features(tensors)
        a = stats.apply_many(tensors)
        b = stats.apply_many(tensors[::-1])[::-1]
        assert np.array_equal(a[0].values, b[0].values)

    def test_float32_tensors_give_the_bytes_of_their_float64_casts(self):
        rng = np.random.default_rng(19)
        tensors = [WindowTensor(values=rng.standard_normal((7, 2, 3, 3, 5)).astype(np.float32),
                                label=i % 2, source_id=str(i)) for i in range(4)]
        wide = [dataclasses.replace(t, values=t.values.astype(float)) for t in tensors]
        stats, normed = normalize_features(tensors)
        want_stats, want = normalize_features(wide)
        assert stats.mean.tobytes() == want_stats.mean.tobytes()
        assert stats.std.tobytes() == want_stats.std.tobytes()
        for a, b in zip(normed, want):
            assert a.values.dtype == np.float32
            assert a.values.tobytes() == b.values.astype(np.float32).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_features([])


def test_pipeline_config_json_round_trip():
    cfg = PipelineConfig(order=7, aic=True, n_freqs=32,
                         bands=(BandSpec("low", 1.0, 10.0), BandSpec("high", 10.0, 40.0)))
    assert from_json(PipelineConfig, to_json(cfg)) == cfg


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("order", 0, "order must be >= 1"),
        ("aic_max", 0, "aic_max must be >= 1"),
        ("n_freqs", 0, "n_freqs must be >= 1"),
        ("ridge", -1e-4, "ridge must be >= 0"),
        ("subwindows", 0, "subwindows must be >= 1"),
        ("bands", [], "bands must hold at least one rhythm band"),
    ],
)
def test_pipeline_config_checks_its_fields(field, value, message):
    with pytest.raises(ValueError, match=message) as spec_exc:
        PipelineConfig(**{field: tuple(value) if field == "bands" else value})
    with pytest.raises(ConfigError) as exc:
        from_json(RunConfig, {"pipeline": {field: value}})
    assert exc.value.field == f"pipeline.{field}"
    assert str(exc.value) == f"pipeline.{field}: {str(spec_exc.value).removeprefix(field + ' ')}"
