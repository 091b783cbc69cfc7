"""Connectivity measures, band aggregation, and the window feature tensor."""

import numpy as np
import pytest
from scipy import signal as sig

from eegfusion.connectivity import (
    FEATURE_ORDER,
    PipelineConfig,
    band_aggregate,
    build_feature_tensor,
    coherence,
    directed_coherence,
    normalize_features,
    partial_coherence,
    partial_directed_coherence,
    plv_from_phases,
    plv_matrix,
)
from eegfusion import connectivity
from eegfusion.dsp import (
    BROADBAND, DEFAULT_BANDS, BandSpec, analytic_signal, design_bandpass, filtfilt,
    instantaneous_phase,
)
from eegfusion.mvar import (
    FitDiagnostics, MvarModel, fit_mvar, is_stable, select_order, simulate_var,
    spectral_decomposition,
)
from eegfusion.signal_io import (
    LabeledWindow, SynthSpec, extract_labeled_windows, generate_synthetic, split_subwindows,
)
from eegfusion.util import from_json, to_json

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

    def test_bounded_and_hermitian(self):
        _, sd = coupled_decomposition(seed=1)
        coh = coherence(sd)
        assert np.abs(coh).max() <= 1 + 1e-10
        assert np.abs(coh - coh.conj().transpose(0, 2, 1)).max() < 1e-12

    def test_matches_welch_msc_at_resonance(self):
        r, f0 = 0.8, 12.0
        diag = 2 * r * np.cos(2 * np.pi * f0 / FS)
        a = np.zeros((2, 2, 2))
        a[0] = [[diag, 0.0], [0.6, diag]]
        a[1] = np.diag([-r * r, -r * r])
        y = simulate_var(a, 2**17, rng=np.random.default_rng(2))
        m = fit_mvar(y, 2, FS)
        sd = spectral_decomposition(m, n_freqs=64)
        coh = np.abs(coherence(sd)[:, 0, 1])
        f_w, msc = sig.coherence(y[:, 0], y[:, 1], fs=FS, nperseg=4096)
        i = int(np.argmax(coh))
        j = int(np.argmin(np.abs(f_w - sd.freqs[i])))
        assert abs(coh[i] ** 2 - msc[j]) < 0.1
        assert abs(coh[i] - np.sqrt(msc[j])) < 0.1


class TestPartialCoherence:
    def test_zero_model_identity(self):
        sd = spectral_decomposition(zero_model(sigma=np.diag([2.0, 0.5])), 16)
        assert np.allclose(partial_coherence(sd), np.eye(2), atol=1e-15)

    def test_bounded_unit_diagonal(self):
        _, sd = coupled_decomposition(seed=3)
        pcoh = partial_coherence(sd)
        assert np.abs(pcoh).max() <= 1 + 1e-10
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
        coh_13 = np.abs(coherence(sd)[:, 2, 0])
        pcoh_13 = np.abs(partial_coherence(sd)[:, 2, 0])
        i = int(np.argmax(coh_13))
        assert pcoh_13[i] < coh_13[i]


class TestDirectedMeasures:
    def test_zero_model_identity_patterns(self):
        sd = spectral_decomposition(zero_model(sigma=np.diag([1.0, 4.0])), 16)
        eye = np.broadcast_to(np.eye(2), (16, 2, 2))
        assert np.allclose(np.abs(directed_coherence(sd, np.diag([1.0, 4.0]))), eye, atol=1e-15)
        assert np.allclose(np.abs(partial_directed_coherence(sd, np.diag([1.0, 4.0]))), eye, atol=1e-15)

    def test_rows_have_unit_power(self):
        m, sd = coupled_decomposition(seed=5)
        for vals in (directed_coherence(sd, m.Sigma), partial_directed_coherence(sd, m.Sigma)):
            row_power = np.sum(np.abs(vals) ** 2, axis=-1)
            assert np.max(np.abs(row_power - 1.0)) < 1e-6

    def test_direction_sensitivity_forward(self):
        m, sd = coupled_decomposition(seed=6)
        dc = np.abs(directed_coherence(sd, m.Sigma)).mean(axis=0)
        pdc = np.abs(partial_directed_coherence(sd, m.Sigma)).mean(axis=0)
        # coupling 1 -> 2: the (target 2, source 1) entry carries the flow
        assert dc[1, 0] > 0.1 and dc[0, 1] < 0.05
        assert pdc[1, 0] > 0.1 and pdc[0, 1] < 0.05

    def test_direction_sensitivity_reversed(self):
        m, sd = coupled_decomposition(seed=6, reverse=True)
        dc = np.abs(directed_coherence(sd, m.Sigma)).mean(axis=0)
        assert dc[0, 1] > 0.1 and dc[1, 0] < 0.05

    def test_zero_innovation_variance_rejected(self):
        sd = spectral_decomposition(zero_model(), 8)
        with pytest.raises(ValueError, match="innovation variance"):
            directed_coherence(sd, np.diag([1.0, 0.0]))


class TestPlv:
    def test_duplicated_channel_exactly_one(self):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-np.pi, np.pi, size=(256, 1))
        plv = plv_from_phases(np.hstack([phi, phi]))
        assert plv[0, 1] == 1.0 and plv[1, 0] == 1.0

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
        values = np.full((64, 2, 2), 0.5 + 0.0j)
        bands = DEFAULT_BANDS
        coh = band_aggregate(values, bands, freqs, "COH")
        assert coh.shape == (5, 2, 2)
        assert np.allclose(coh, 0.25, atol=1e-15)
        sm = band_aggregate(values, bands, freqs, "SM")
        assert np.allclose(sm, np.log1p(0.25), atol=1e-15)

    def test_hand_grid_arithmetic(self):
        freqs = np.array([1.0, 5.0, 6.0, 20.0])
        values = np.zeros((4, 1, 1), dtype=complex)
        values[1, 0, 0] = 0.3
        values[2, 0, 0] = 0.5
        out = band_aggregate(values, (BandSpec("theta", 4.0, 8.0),), freqs, "COH")
        assert abs(out[0, 0, 0] - 0.17) < 1e-15

    def test_band_membership_half_open(self):
        freqs = np.array([4.0, 8.0])
        values = np.ones((2, 1, 1), dtype=complex)
        values[1] = 3.0
        # 4 Hz included at the low edge, 8 Hz excluded at the high edge
        out = band_aggregate(values, (BandSpec("theta", 4.0, 8.0),), freqs, "COH")
        assert out[0, 0, 0] == 1.0

    def test_empty_band_rejected(self):
        freqs = (256.0 / 2) * np.arange(1, 65) / 64
        with pytest.raises(ValueError, match="no grid frequencies"):
            band_aggregate(np.ones((64, 1, 1)), (BandSpec("sliver", 127.9, 127.95),),
                           freqs, "COH")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown measure"):
            band_aggregate(np.ones((4, 1, 1)), DEFAULT_BANDS[:1],
                           np.array([3.0, 4.0, 5.0, 6.0]), "XYZ")


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

    def test_per_band_mode(self):
        cfg = PipelineConfig(mode="per_band", order=3)
        t = build_feature_tensor(synthetic_window(seed=4), cfg)
        assert t.shape == (7, 10, 4, 4, 5)
        assert np.isfinite(t.values).all()

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


def oracle_tensor(window, cfg):
    """The feature tensor rebuilt one fit and one sub-window at a time from
    the public per-fit functions, with the diagnostics those fits add up to."""
    diag = FitDiagnostics()
    t_sub, c = cfg.subwindows, window.samples.shape[1]
    out = np.empty((7, t_sub, c, c, len(cfg.bands)))

    def mvar_planes(filter_band, bands, cols):
        x = filtfilt(design_bandpass(filter_band, window.fs, cfg.filter_order), window.samples)
        for t, sub in enumerate(split_subwindows(x, t_sub)):
            p = select_order(sub, cfg.aic_max, cfg.ridge) if cfg.aic else cfg.order
            m = fit_mvar(sub, p, window.fs, cfg.ridge)
            diag.unstable_fits += not is_stable(m)
            sd = spectral_decomposition(m, cfg.n_freqs, diag)
            measures = {
                "SM": sd.S, "ISM": sd.P,
                "DC": directed_coherence(sd, m.Sigma), "COH": coherence(sd),
                "PDC": partial_directed_coherence(sd, m.Sigma), "PCOH": partial_coherence(sd),
            }
            for name, vals in measures.items():
                bm = band_aggregate(vals, bands, sd.freqs, name)
                out[FEATURE_ORDER.index(name), t, :, :, cols] = np.moveaxis(bm, 0, -1)

    if cfg.mode == "broadband":
        mvar_planes(cfg.broadband, cfg.bands, slice(None))
    else:
        for b, band in enumerate(cfg.bands):
            mvar_planes(band, (band,), slice(b, b + 1))
    for b, band in enumerate(cfg.bands):
        x = filtfilt(design_bandpass(band, window.fs, cfg.filter_order), window.samples)
        phases = np.column_stack(
            [instantaneous_phase(analytic_signal(x[:, ch])) for ch in range(c)]
        )
        for t, sub in enumerate(split_subwindows(phases, t_sub)):
            out[-1, t, :, :, b] = plv_from_phases(sub)
    return out, diag


class TestStackedFeaturePath:
    """build_feature_tensor runs sub-windows as stacks; it must equal the
    tensor built one fit at a time."""

    @pytest.mark.parametrize("n_channels", [4, 19])
    @pytest.mark.parametrize("cfg", [
        PipelineConfig(),
        PipelineConfig(mode="per_band", order=3),
        PipelineConfig(aic=True),
    ], ids=["broadband", "per_band", "aic"])
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
        from eegfusion.connectivity import WindowTensor
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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_features([])


def test_pipeline_config_json_round_trip():
    cfg = PipelineConfig(mode="per_band", order=7, n_freqs=32,
                         bands=(BandSpec("low", 1.0, 10.0), BandSpec("high", 10.0, 40.0)))
    assert from_json(PipelineConfig, to_json(cfg)) == cfg
