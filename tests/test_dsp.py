"""Filter design, zero-phase filtering, and analytic-phase extraction.

The magnitude-response tests compare the designed digital filters against an
independently coded analog Butterworth band-pass formula evaluated at the
bilinear-transform prewarped frequencies, which the design must match exactly.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sig

import eegfusion
from eegfusion.dsp import (
    BROADBAND,
    DEFAULT_BANDS,
    BandSpec,
    analytic_signal,
    design_bandpass,
    filtfilt,
    instantaneous_phase,
    unit_phasor,
)

FS = 256.0


def analog_butter_bandpass_mag(f, band, fs, order):
    """|H| of the analog prototype at the prewarped digital frequencies."""
    w1 = 2 * fs * np.tan(np.pi * band.low_hz / fs)
    w2 = 2 * fs * np.tan(np.pi * band.high_hz / fs)
    omega = 2 * fs * np.tan(np.pi * np.asarray(f) / fs)
    n = order // 2
    return 1.0 / np.sqrt(1.0 + ((omega**2 - w1 * w2) / (omega * (w2 - w1))) ** (2 * n))


class TestBandTable:
    def test_default_rhythms(self):
        table = {b.name: (b.low_hz, b.high_hz) for b in DEFAULT_BANDS}
        assert table == {
            "delta": (2.0, 4.0),
            "theta": (4.0, 8.0),
            "alpha": (8.0, 13.0),
            "beta": (13.0, 30.0),
            "gamma": (30.0, 45.0),
        }

    def test_broadband_covers_rhythms(self):
        assert BROADBAND.low_hz <= DEFAULT_BANDS[0].low_hz
        assert BROADBAND.high_hz >= DEFAULT_BANDS[-1].high_hz

    def test_inverted_edges_rejected(self):
        with pytest.raises(ValueError):
            BandSpec("bad", 10.0, 4.0)


class TestDesignBandpass:
    def test_matches_analog_prototype_on_dense_grid(self):
        # bilinear transform preserves magnitude at prewarped frequencies
        for band in DEFAULT_BANDS:
            spec = design_bandpass(band, FS, order=4)
            f = np.linspace(0.5, FS / 2 - 1.0, 2001)
            _, h = sig.sosfreqz(spec.sos, worN=2 * np.pi * f / FS)
            expected = analog_butter_bandpass_mag(f, band, FS, 4)
            assert np.max(np.abs(np.abs(h) - expected)) < 1e-9

    def test_alpha_passband_and_stopband_levels(self):
        spec = design_bandpass(BandSpec("alpha", 8.0, 13.0), FS, order=4)
        _, h = sig.sosfreqz(spec.sos, worN=2 * np.pi * np.array([10.2, 4.0]) / FS)
        db = 20 * np.log10(np.abs(h))
        assert abs(db[0]) < 1.0
        assert db[1] <= -20.0

    def test_all_default_bands_stable_at_256(self):
        for band in DEFAULT_BANDS:
            spec = design_bandpass(band, FS, order=4)
            assert np.abs(spec.poles()).max() < 1.0

    def test_high_edge_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            design_bandpass(BandSpec("bad", 1.0, 128.0), FS)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            design_bandpass(DEFAULT_BANDS[0], FS, order=3)

    def test_nonpositive_fs_rejected(self):
        with pytest.raises(ValueError):
            design_bandpass(DEFAULT_BANDS[0], 0.0)

    def test_non_finite_design_is_an_overflow(self):
        # at band-pass order 600 butter's gain overflows to a NaN design,
        # which a NaN pole radius would otherwise pass as stable
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(OverflowError, match="not finite"):
                design_bandpass(DEFAULT_BANDS[0], 128.0, order=600)


class TestDesignCache:
    def test_repeated_design_returns_an_equal_spec(self):
        band = BandSpec("alpha", 8.0, 13.0)
        first, again = design_bandpass(band, FS, 4), design_bandpass(band, int(FS), order=4)
        assert np.array_equal(first.sos, again.sos)
        assert (first.order, first.band, first.fs) == (again.order, again.band, again.fs)
        fresh = sig.butter(2, [8.0, 13.0], btype="bandpass", fs=FS, output="sos")
        assert np.array_equal(first.sos, fresh)

    def test_shared_sos_is_read_only(self):
        spec = design_bandpass(BandSpec("theta", 4.0, 8.0), FS)
        with pytest.raises(ValueError, match="read-only"):
            spec.sos[0, 0] = 1.0
        assert np.array_equal(design_bandpass(BandSpec("theta", 4.0, 8.0), FS).sos, spec.sos)

    def test_invalid_band_rejected_after_a_valid_design_is_cached(self):
        band = BandSpec("beta", 13.0, 30.0)
        design_bandpass(band, FS)
        with pytest.raises(ValueError, match="Nyquist"):
            design_bandpass(band, 32.0)


class TestFiltfilt:
    def test_zero_phase_on_passband_sinusoid(self):
        spec = design_bandpass(BandSpec("alpha", 8.0, 13.0), FS)
        t = np.arange(2048) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = filtfilt(spec, x)
        lags = sig.correlation_lags(len(y), len(x))
        xc = sig.correlate(y, x)
        assert lags[np.argmax(xc)] == 0

    def test_constant_killed(self):
        spec = design_bandpass(BandSpec("alpha", 8.0, 13.0), FS)
        y = filtfilt(spec, np.full(2048, 7.0))
        pad = 3 * spec.order
        assert np.max(np.abs(y[pad:-pad])) < 1e-6 * 7.0

    def test_double_pass_squares_magnitude_response(self):
        # impulse response decays to ~0 well inside the window, so the FFT of
        # the (time-shifted) response gives the true magnitude response
        spec = design_bandpass(BandSpec("beta", 13.0, 30.0), FS)
        x = np.zeros(4096)
        x[2048] = 1.0
        h1 = np.abs(np.fft.rfft(filtfilt(spec, x)))
        h2 = np.abs(np.fft.rfft(filtfilt(spec, filtfilt(spec, x))))
        assert np.max(np.abs(h2 - h1**2)) < 1e-3

    def test_linearity(self):
        spec = design_bandpass(BandSpec("theta", 4.0, 8.0), FS)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 1024))
        lhs = filtfilt(spec, 2.5 * x - 1.25 * y)
        rhs = 2.5 * filtfilt(spec, x) - 1.25 * filtfilt(spec, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_too_short_rejected(self):
        spec = design_bandpass(DEFAULT_BANDS[0], FS)
        with pytest.raises(ValueError, match="too short"):
            filtfilt(spec, np.zeros(3 * spec.order))

    @pytest.mark.parametrize("band", DEFAULT_BANDS + (BROADBAND,), ids=lambda b: b.name)
    def test_equals_scipy_sosfiltfilt_bit_for_bit(self, band):
        spec = design_bandpass(band, FS)
        rng = np.random.default_rng(2)
        for shape in ((2560,), (2560, 4), (5120, 19)):
            x = rng.standard_normal(shape)
            want = sig.sosfiltfilt(spec.sos.copy(), x, axis=0, padtype="odd", padlen=3 * spec.order)
            assert np.array_equal(filtfilt(spec, x), want)

    def test_cached_initial_conditions_are_scipys_and_read_only(self):
        spec = design_bandpass(BandSpec("gamma", 30.0, 45.0), FS)
        assert np.array_equal(spec.zi, sig.sosfilt_zi(spec.sos))
        with pytest.raises(ValueError, match="read-only"):
            spec.zi[0, 0] = 1.0

    def test_multichannel_matches_per_channel(self):
        spec = design_bandpass(BandSpec("alpha", 8.0, 13.0), FS)
        x = np.random.default_rng(1).standard_normal((512, 3))
        y = filtfilt(spec, x)
        for c in range(3):
            assert np.array_equal(y[:, c], filtfilt(spec, x[:, c]))


def fir_hilbert(n_taps):
    """Windowed ideal Hilbert transformer (odd length, type III)."""
    m = np.arange(n_taps) - (n_taps - 1) // 2
    h = np.zeros(n_taps)
    odd = m % 2 != 0
    h[odd] = 2.0 / (np.pi * m[odd])
    return h * np.blackman(n_taps)


class TestAnalyticSignal:
    def test_cosine_envelope_and_phase_rate(self):
        t = np.arange(1024) / FS
        a = analytic_signal(np.cos(2 * np.pi * 10.0 * t))
        mag = np.abs(a)
        assert np.all(np.abs(mag[64:-64] - 1.0) < 0.05)
        phase = np.unwrap(instantaneous_phase(a))
        steps = np.diff(phase[64:-64])
        assert np.max(np.abs(steps - 2 * np.pi * 10.0 / FS)) < 0.01

    def test_real_part_is_input(self):
        x = np.random.default_rng(2).standard_normal(1000)
        a = analytic_signal(x)
        assert np.array_equal(a.real, x)

    def test_envelope_matches_fir_hilbert_oracle(self):
        x = np.random.default_rng(3).standard_normal(4096)
        env = np.abs(analytic_signal(x))
        taps = 511
        q = np.convolve(x, fir_hilbert(taps), mode="same")
        env_fir = np.hypot(x, q)
        d = env[taps:-taps] - env_fir[taps:-taps]
        rel_rms = np.sqrt(np.mean(d**2)) / np.sqrt(np.mean(env[taps:-taps] ** 2))
        assert rel_rms < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analytic_signal(np.array([]))

    def test_odd_length_real_part_preserved(self):
        x = np.random.default_rng(4).standard_normal(501)
        a = analytic_signal(x)
        assert np.array_equal(a.real, x)


class TestInstantaneousPhase:
    def test_complex_exponential_unwraps_to_line(self):
        w = 2 * np.pi * 7.0 / FS
        n = np.arange(512)
        a = np.exp(1j * w * n)
        phase = np.unwrap(instantaneous_phase(a))
        slope = np.polyfit(n, phase, 1)[0]
        assert abs(slope - w) < 1e-12

    def test_positive_constant_has_zero_phase(self):
        a = np.full(16, 2.0 + 0.0j)
        assert np.array_equal(instantaneous_phase(a), np.zeros(16))

    def test_conjugation_negates_phase(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.allclose(instantaneous_phase(a.conj()), -instantaneous_phase(a), atol=1e-15)

    def test_zero_magnitude_names_index(self):
        values = np.ones(8, dtype=complex)
        values[5] = 0.0
        for fn in (instantaneous_phase, unit_phasor):
            with pytest.raises(ValueError, match="^phase undefined: zero-magnitude analytic sample at index 5$"):
                fn(values)

    def test_zero_magnitude_index_is_the_first_channels(self):
        values = np.ones((8, 3), dtype=complex)
        values[6, 1] = values[2, 2] = 0.0
        for fn in (instantaneous_phase, unit_phasor):
            with pytest.raises(ValueError, match="index 6$"):
                fn(values)


class TestUnitPhasor:
    def test_equals_exp_of_phase_within_rounding(self):
        rng = np.random.default_rng(6)
        a = analytic_signal(rng.standard_normal((1024, 3)))
        u = unit_phasor(a)
        assert np.max(np.abs(u - np.exp(1j * instantaneous_phase(a)))) <= 1e-15
        assert np.max(np.abs(np.abs(u) - 1.0)) <= 1e-15

    def test_input_is_not_modified(self):
        values = np.array([3.0 + 4.0j, -2.0j])
        u = unit_phasor(values)
        assert np.array_equal(values, [3.0 + 4.0j, -2.0j])
        assert np.max(np.abs(u - [0.6 + 0.8j, -1.0j])) <= 1e-15


def test_package_import_leaves_scipy_signal_unloaded():
    # scipy.signal dominates the import; eval, explain and plot never filter
    src = str(Path(eegfusion.__file__).resolve().parents[1])
    code = "import sys; import eegfusion, eegfusion.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.split() == ["False"]
