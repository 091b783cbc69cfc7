"""MVAR fitting, order selection, and the frequency-domain decomposition.

The spectral tests lean on two independent oracles: Welch estimates from long
simulations of the same process, and the algebraic identity S(f) P(f) = I that
must hold for any model by construction.
"""

import warnings

import numpy as np
import pytest
from scipy import signal as sig

from eegfusion.mvar import (
    FitDiagnostics,
    MvarModel,
    companion_matrix,
    companion_radius,
    fit_mvar,
    is_stable,
    select_order,
    simulate_var,
    spectral_decomposition,
)

FS = 128.0


def stable_var2_coeffs():
    """A fixed, comfortably stable 2-channel VAR(2)."""
    a = np.zeros((2, 2, 2))
    a[0] = [[0.5, 0.2], [0.1, 0.4]]
    a[1] = [[-0.25, 0.0], [0.05, -0.15]]
    return a


def random_stable_model(rng, c, p):
    """Rejection-sample coefficient stacks until the companion radius is < 0.95."""
    while True:
        a = rng.uniform(-0.45, 0.45, size=(p, c, c)) / p
        if np.abs(np.linalg.eigvals(companion_matrix(a))).max() < 0.95:
            break
    w = rng.standard_normal((c, c))
    sigma = w @ w.T / c + 0.5 * np.eye(c)
    return MvarModel(p=p, A=a, Sigma=sigma, fs=FS)


class TestFitMvar:
    def test_stacked_fit_equals_per_window_fits(self):
        y = simulate_var(stable_var2_coeffs(), 3000, rng=np.random.default_rng(13))
        subs = y.reshape(10, 300, 2)
        stack = fit_mvar(subs, 3, FS)
        assert stack.A.shape == (10, 3, 2, 2) and stack.Sigma.shape == (10, 2, 2)
        for t, sub in enumerate(subs):
            one = fit_mvar(sub, 3, FS)
            assert np.array_equal(stack.A[t], one.A)
            assert np.array_equal(stack.Sigma[t], one.Sigma)

    def test_recovers_known_var2(self):
        a = stable_var2_coeffs()
        y = simulate_var(a, 4096, rng=np.random.default_rng(0))
        m = fit_mvar(y, p=2, fs=FS)
        assert np.max(np.abs(m.A - a)) < 0.05
        assert m.p == 2 and m.fs == FS

    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((4096, 2)) * np.array([1.0, 2.0])
        m = fit_mvar(y, p=3, fs=FS)
        assert np.max(np.abs(m.A)) < 0.1
        sample_cov = np.cov(y.T)
        assert np.max(np.abs(m.Sigma - sample_cov)) < 0.05 * np.max(np.abs(sample_cov))

    def test_sigma_symmetric_psd(self):
        y = simulate_var(stable_var2_coeffs(), 1024, rng=np.random.default_rng(2))
        m = fit_mvar(y, p=2, fs=FS)
        assert np.array_equal(m.Sigma, m.Sigma.T)
        assert np.linalg.eigvalsh(m.Sigma).min() >= 0

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_mvar(np.zeros((10, 4)), p=3, fs=FS)

    def test_permutation_equivariance(self):
        y = simulate_var(stable_var2_coeffs(), 2048, rng=np.random.default_rng(3))
        y3 = np.column_stack([y, simulate_var(stable_var2_coeffs(), 2048,
                                              rng=np.random.default_rng(4))[:, 0]])
        perm = np.array([2, 0, 1])
        m = fit_mvar(y3, p=2, fs=FS)
        mp = fit_mvar(y3[:, perm], p=2, fs=FS)
        for k in range(2):
            assert np.allclose(mp.A[k], m.A[k][np.ix_(perm, perm)], atol=1e-12)
        assert np.allclose(mp.Sigma, m.Sigma[np.ix_(perm, perm)], atol=1e-12)

    def test_scaling_leaves_coefficients(self):
        y = simulate_var(stable_var2_coeffs(), 2048, rng=np.random.default_rng(5))
        m1 = fit_mvar(y, p=2, fs=FS)
        m2 = fit_mvar(3.0 * y, p=2, fs=FS)
        assert np.max(np.abs(m2.A - m1.A)) < 1e-10
        assert np.allclose(m2.Sigma, 9.0 * m1.Sigma, rtol=1e-10)


class TestSelectOrder:
    def test_var3_data_selects_near_three(self):
        a = np.zeros((3, 2, 2))
        a[0] = [[0.4, 0.2], [0.0, 0.3]]
        a[1] = [[-0.3, 0.0], [0.1, -0.2]]
        a[2] = [[0.2, 0.1], [0.0, 0.25]]
        y = simulate_var(a, 4096, rng=np.random.default_rng(6))
        assert select_order(y, p_max=8) in (2, 3, 4)

    def test_white_noise_selects_low_order(self):
        hits = 0
        for s in range(50):
            y = np.random.default_rng(100 + s).standard_normal((2048, 2))
            hits += select_order(y, p_max=6) <= 2
        assert hits >= 45

    def test_pmax_zero_rejected(self):
        with pytest.raises(ValueError):
            select_order(np.zeros((100, 2)), p_max=0)


class TestStability:
    def test_zero_coefficients_stable(self):
        m = MvarModel(p=2, A=np.zeros((2, 2, 2)), Sigma=np.eye(2), fs=FS)
        assert is_stable(m)

    def test_ar1_above_one_unstable(self):
        m = MvarModel(p=1, A=np.array([[[1.05]]]), Sigma=np.eye(1), fs=FS)
        assert not is_stable(m)

    def test_stack_is_stable_only_if_every_fit_is(self):
        a = np.array([[[[0.9]]], [[[1.05]]]])
        assert not is_stable(MvarModel(p=1, A=a, Sigma=np.ones((2, 1, 1)), fs=FS))
        assert is_stable(MvarModel(p=1, A=a[:1], Sigma=np.ones((1, 1, 1)), fs=FS))
        assert companion_radius(a).tolist() == [0.9, 1.05]

    def test_ar1_below_one_stable(self):
        m = MvarModel(p=1, A=np.array([[[0.9]]]), Sigma=np.eye(1), fs=FS)
        assert is_stable(m)

    def test_companion_eigenvalues_are_ar_roots(self):
        # AR(2) poles r e^{+-i theta} come back as companion eigenvalues
        r, theta = 0.8, 0.7
        a = np.array([[[2 * r * np.cos(theta)]], [[-r * r]]])
        eig = np.linalg.eigvals(companion_matrix(a))
        assert np.allclose(sorted(np.abs(eig)), [r, r], atol=1e-12)


class TestSpectralDecomposition:
    def test_zero_model_constant_spectra(self):
        m = MvarModel(p=1, A=np.zeros((1, 2, 2)), Sigma=np.diag([1.0, 4.0]), fs=FS)
        sd = spectral_decomposition(m, n_freqs=16)
        eye = np.broadcast_to(np.eye(2), (16, 2, 2))
        assert np.allclose(sd.Abar, eye, atol=1e-15)
        assert np.allclose(sd.H, eye, atol=1e-15)
        assert np.allclose(sd.S, np.diag([1.0, 4.0]), atol=1e-15)
        assert np.allclose(sd.P, np.diag([1.0, 0.25]), atol=1e-15)

    def test_frequency_grid_excludes_zero(self):
        m = MvarModel(p=1, A=np.zeros((1, 2, 2)), Sigma=np.eye(2), fs=FS)
        sd = spectral_decomposition(m, n_freqs=64)
        expected = (FS / 2) * np.arange(1, 65) / 64
        assert np.array_equal(sd.freqs, expected)
        assert sd.freqs[0] > 0

    def test_s_times_p_is_identity_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_stable_model(rng, c=int(rng.integers(2, 5)),
                                    p=int(rng.integers(1, 4)))
            sd = spectral_decomposition(m, n_freqs=32)
            eye = np.eye(m.n_channels)
            prod = sd.S @ sd.P
            err = np.linalg.norm(prod - eye, axis=(1, 2))
            assert err.max() < 1e-8

    def test_s_and_p_hermitian_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_stable_model(rng, c=3, p=2)
            sd = spectral_decomposition(m, n_freqs=32)
            for mat in (sd.S, sd.P):
                assert np.abs(mat - mat.conj().transpose(0, 2, 1)).max() < 1e-10
                eig = np.linalg.eigvalsh(mat)
                trace = np.trace(mat, axis1=1, axis2=2).real
                assert np.all(eig.min(axis=1) >= -1e-8 * trace)

    def test_spectrum_matches_welch_oracle_at_peak(self):
        # resonant AR(2): theoretical S(f) should equal (2/fs) * Welch density
        r, f0 = 0.8, 20.0
        a = np.array([[[2 * r * np.cos(2 * np.pi * f0 / FS)]], [[-r * r]]])
        m = MvarModel(p=2, A=a, Sigma=np.eye(1), fs=FS)
        sd = spectral_decomposition(m, n_freqs=128)
        y = simulate_var(a, 2**17, rng=np.random.default_rng(9))
        f_w, pxx = sig.welch(y[:, 0], fs=FS, nperseg=8192)
        i_pk = int(np.argmax(sd.S[:, 0, 0].real))
        j = int(np.argmin(np.abs(f_w - sd.freqs[i_pk])))
        model_density = (2.0 / FS) * sd.S[i_pk, 0, 0].real
        assert abs(pxx[j] - model_density) < 0.1 * model_density

    def test_singular_abar_names_frequency(self):
        # unit-circle AR(2) roots at 32 Hz put a zero of Abar on the grid
        theta = 2 * np.pi * 32.0 / FS
        a = np.array([[[2 * np.cos(theta)]], [[-1.0]]])
        m = MvarModel(p=2, A=a, Sigma=np.eye(1), fs=FS)
        with pytest.raises(ValueError, match="32"):
            spectral_decomposition(m, n_freqs=64)

    def test_ill_conditioned_sigma_jittered_and_counted(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        m = MvarModel(p=1, A=np.zeros((1, 2, 2)), Sigma=sigma, fs=FS)
        diag = FitDiagnostics()
        with pytest.warns(RuntimeWarning, match="jitter"):
            sd = spectral_decomposition(m, n_freqs=8, diagnostics=diag)
        assert diag.sigma_jitter_events == 1
        assert np.all(np.isfinite(sd.P))

    def test_stack_equals_per_fit_and_counts_each_jitter(self):
        rng = np.random.default_rng(12)
        models = [random_stable_model(rng, c=3, p=2) for _ in range(3)]
        models[1].Sigma = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]])
        stack = MvarModel(p=2, A=np.stack([m.A for m in models]),
                          Sigma=np.stack([m.Sigma for m in models]), fs=FS)
        diag = FitDiagnostics()
        with pytest.warns(RuntimeWarning, match="jitter") as caught:
            sd = spectral_decomposition(stack, n_freqs=16, diagnostics=diag)
        assert diag.sigma_jitter_events == 1 and len(caught) == 1
        assert np.array_equal(stack.Sigma[1], models[1].Sigma)  # the model is not modified
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            singles = [spectral_decomposition(m, n_freqs=16) for m in models]
        for t, one in enumerate(singles):
            for name in ("Abar", "H", "S", "P"):
                assert np.array_equal(getattr(sd, name)[t], getattr(one, name))

    def test_singular_abar_in_a_stack_names_frequency(self):
        theta = 2 * np.pi * 32.0 / FS
        a = np.array([[[[0.5]], [[0.0]]], [[[2 * np.cos(theta)]], [[-1.0]]]])
        m = MvarModel(p=2, A=a, Sigma=np.ones((2, 1, 1)), fs=FS)
        with pytest.raises(ValueError, match="32"):
            spectral_decomposition(m, n_freqs=64)

    def test_diagnostics_merge(self):
        a, b = FitDiagnostics(unstable_fits=2), FitDiagnostics(sigma_jitter_events=3)
        a.merge(b)
        assert (a.unstable_fits, a.sigma_jitter_events) == (2, 3)


class TestSimulateVar:
    def test_deterministic_given_rng_seed(self):
        a = stable_var2_coeffs()
        y1 = simulate_var(a, 256, rng=np.random.default_rng(10))
        y2 = simulate_var(a, 256, rng=np.random.default_rng(10))
        assert np.array_equal(y1, y2)

    def test_explicit_innovations_shape_checked(self):
        with pytest.raises(ValueError, match="innovations shape"):
            simulate_var(stable_var2_coeffs(), 100, innovations=np.zeros((50, 2)))

    def test_noise_cov_colors_innovations(self):
        a = np.zeros((1, 2, 2))
        cov = np.array([[2.0, 1.2], [1.2, 1.5]])
        y = simulate_var(a, 2**16, rng=np.random.default_rng(11), noise_cov=cov)
        assert np.max(np.abs(np.cov(y.T) - cov)) < 0.1
