"""MVAR fitting, order selection, and the frequency-domain decomposition.

The spectral tests lean on two independent oracles: Welch estimates from long
simulations of the same process, and the algebraic identity S(f) P(f) = I that
must hold for any model by construction.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import signal as sig

from eegfusion.mvar import (
    FitDiagnostics,
    MvarModel,
    _aic_table,
    _ridged_solve,
    companion_matrix,
    companion_radius,
    fit_mvar,
    is_stable,
    select_order,
    simulate_var,
    spectral_decomposition,
    unstable_mask,
)
from eegfusion import mvar
from eegfusion.connectivity import _subwindow_stack
from eegfusion.dsp import BROADBAND, design_bandpass, filtfilt
from eegfusion.signal_io import extract_labeled_windows, generate_synthetic, SynthSpec

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


def aic_oracle(x, p_max, ridge=1e-4):
    """AIC(p), p = 1..p_max, from one least-squares fit per order; inf where
    Sigma_p has no positive determinant."""
    n, c = x.shape
    out = np.full(p_max, np.inf)
    for p in range(1, p_max + 1):
        sign, logdet = np.linalg.slogdet(fit_mvar(x, p, FS, ridge).Sigma)
        if sign > 0:
            out[p - 1] = logdet + 2.0 * p * c * c / n
    return out


def clinical_subwindows(seed):
    """The broadband sub-windows (100, 512, 19) of the ten seizure windows
    of a C=19, fs=256 coupled recording, as the feature path fits them."""
    spec = SynthSpec(kind="coupled", n_channels=19, fs=256.0, duration_s=200.0,
                     coupling_strength=0.08, seed=seed)
    windows = extract_labeled_windows(*generate_synthetic(spec), n_nonseizure=0)
    assert len(windows) == 10
    filt = design_bandpass(BROADBAND, 256.0, 4)
    return np.concatenate([_subwindow_stack(filtfilt(filt, w.samples), 1, 10) for w in windows])


class TestOrderSearch:
    """select_order gets every order from one shared lag design; it must
    choose as a fit per order does."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_clinical_orders_equal_a_fit_per_order(self, seed):
        subs = clinical_subwindows(seed)
        n, c = subs.shape[1:]
        aic = np.empty((12, len(subs)))
        for p in range(1, 13):
            sign, logdet = np.linalg.slogdet(fit_mvar(subs, p, 256.0).Sigma)
            assert np.all(sign > 0)
            aic[p - 1] = logdet + 2.0 * p * c * c / n
        assert select_order(subs, 12) == tuple(int(p) + 1 for p in np.argmin(aic, axis=0))

    @pytest.mark.parametrize("c", [2, 4, 19])
    def test_matches_a_fit_per_order(self, c):
        rng = np.random.default_rng(40 + c)
        for p_true in (1, 3, 6):
            a = random_stable_model(rng, c, p_true).A
            x = simulate_var(a, 512, rng=rng) + 0.05 * rng.standard_normal((512, c))
            want = aic_oracle(x, 12)
            got = _aic_table(x - x.mean(axis=0), 12, 1e-4)
            assert np.all(np.isfinite(want))
            assert np.max(np.abs(got - want)) <= 1e-9
            assert select_order(x, 12) == int(np.argmin(want)) + 1

    def test_stack_equals_one_sub_window_at_a_time(self):
        rng = np.random.default_rng(11)
        a = random_stable_model(rng, 4, 3).A
        x = simulate_var(a, 6 * 300, rng=rng).reshape(6, 300, 4)
        got = select_order(x, 8)
        assert isinstance(got, tuple) and all(type(p) is int for p in got)
        assert got == tuple(select_order(sub, 8) for sub in x)
        assert type(select_order(x[0], 8)) is int

    def test_stacked_table_equals_one_sub_window_at_a_time_byte_for_byte(self):
        rng = np.random.default_rng(15)
        a = random_stable_model(rng, 19, 3).A
        x = simulate_var(a, 4 * 512, rng=rng).reshape(4, 512, 19)
        x = x - x.mean(axis=1, keepdims=True)
        got = _aic_table(x, 12, 1e-4)
        assert got.shape == (12, 4) and np.all(np.isfinite(got))
        for t in range(4):
            assert got[:, t].tobytes() == _aic_table(x[t], 12, 1e-4).tobytes()

    def test_insufficient_samples_names_the_smallest_short_order(self):
        x = np.random.default_rng(12).standard_normal((50, 4))
        with pytest.raises(ValueError) as per_order:
            fit_mvar(x, 10, FS)
        for data in (x, x[None]):
            with pytest.raises(ValueError) as search:
                select_order(data, p_max=12)
            assert str(search.value) == str(per_order.value)
        assert "order 10: 50 rows, need more than 50" in str(per_order.value)
        with pytest.raises(ValueError, match="insufficient samples for order 1:"):
            select_order(x[:5], p_max=3)

    def test_unridged_zero_channel_is_singular(self):
        x = np.random.default_rng(13).standard_normal((300, 3))
        x[:, 1] = 0.0
        with pytest.raises(ValueError, match="singular regularized normal equations"):
            fit_mvar(x, 1, FS, ridge=0.0)
        with pytest.raises(ValueError, match="singular regularized normal equations"):
            select_order(x, p_max=4, ridge=0.0)

    def test_no_positive_determinant_gives_order_one(self):
        rng = np.random.default_rng(14)
        x = simulate_var(stable_var2_coeffs(), 3 * 400, rng=rng).reshape(3, 400, 2)
        x = np.concatenate([x, np.zeros((3, 400, 1))], axis=-1)
        x[1, :, 2] = rng.standard_normal(400)
        assert np.all(np.isinf(aic_oracle(x[0], 6)))
        aic = _aic_table(x - x.mean(axis=1, keepdims=True), 6, 1e-4)
        assert np.all(np.isposinf(aic[:, [0, 2]])) and np.all(np.isfinite(aic[:, 1]))
        orders = select_order(x, 6)
        assert orders[0] == orders[2] == 1
        assert orders[1] == int(np.argmin(aic_oracle(x[1], 6))) + 1 > 1

    def test_cholesky_failure_falls_back_to_lu(self):
        gram = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # symmetric, indefinite
        rhs = np.array([[[1.0], [3.0]]])
        lam, coef = _ridged_solve(gram, np.empty((1, 0, 2)), rhs, 0.0)
        assert lam.tolist() == [0.0]
        assert np.array_equal(coef, np.linalg.solve(gram, rhs))

    def test_lu_fallback_rebuilds_the_boundary_rows_and_ridge(self):
        rng = np.random.default_rng(16)
        gram = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        head, rhs = rng.standard_normal((1, 1, 2)), rng.standard_normal((1, 2, 3))
        lam, coef = _ridged_solve(gram, head, rhs, 1e-4)
        full = gram[0] + head[0].T @ head[0]
        assert lam[0] == 1e-4 * np.mean(np.diag(full))
        want = np.linalg.solve(full + lam[0] * np.eye(2), rhs[0])
        assert np.allclose(coef[0], want, rtol=1e-12, atol=0)

    def test_ridge_zero_singular_system_raises_through_the_fallback(self, monkeypatch):
        x = np.random.default_rng(13).standard_normal((300, 3))
        x[:, 1] = 0.0
        infos, real = [], mvar.lapack.dposv

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            infos.append(out[-1])
            return out

        monkeypatch.setattr(mvar.lapack, "dposv", spy)
        with pytest.raises(ValueError, match="singular regularized normal equations"):
            select_order(x, p_max=4, ridge=0.0)
        assert infos == [2]  # the zero channel's pivot: Cholesky fails, LU raises


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


def ar1(*diagonal):
    """A p=1 fit whose companion is diag(diagonal)."""
    return np.diag(diagonal)[None].astype(float)


#: p=1, C=2 fits the squaring certificate must decide as eigenvalues do.
MASK_CASES = {
    "zero": np.zeros((1, 2, 2)),
    "ar1_0.9": ar1(0.9, 0.0),
    "ar1_1.05": ar1(1.05, 0.0),
    "identity": ar1(1.0, 1.0),  # radius exactly 1: unstable
    "just_stable": ar1(1.0 - 1e-6, 0.0),  # certificate undecided: falls back
    "just_unstable": ar1(1.0 + 1e-6, 0.0),  # |tr C^4096| ~ 1 < 2n: falls back
    "overflowing": ar1(1e200, 0.0),  # ||C||_F overflows: falls back
    "transient_growth": np.array([[[0.5, 50.0], [0.0, 0.5]]]),  # ||C|| = 50, rho = 0.5
}


def assert_mask_is_eigen_rule(a):
    got = unstable_mask(a)
    want = companion_radius(a) >= 1.0
    assert np.shape(got) == np.shape(want) == np.shape(a)[:-3]
    assert np.array_equal(got, want)


def fallback_fits(monkeypatch):
    """Record how many fits each unstable_mask call leaves to eigenvalues."""
    calls, real = [], mvar._spectral_radius

    def spy(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(mvar, "_spectral_radius", spy)
    return calls


class TestUnstableMask:
    @pytest.mark.parametrize("name", list(MASK_CASES))
    def test_case_equals_eigenvalue_rule(self, name):
        a = MASK_CASES[name]
        assert_mask_is_eigen_rule(a)
        assert_mask_is_eigen_rule(a[None])

    def test_radius_one_and_just_below_fall_back(self, monkeypatch):
        calls = fallback_fits(monkeypatch)
        assert unstable_mask(MASK_CASES["identity"])
        assert not unstable_mask(MASK_CASES["just_stable"])
        assert calls == [1, 1]

    def test_radius_just_above_one_and_an_overflowing_power_fall_back(self, monkeypatch):
        calls = fallback_fits(monkeypatch)
        assert unstable_mask(MASK_CASES["just_unstable"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing norm is taken silently
            assert unstable_mask(MASK_CASES["overflowing"])
        assert calls == [1, 1]

    def test_clear_instability_is_certified_by_the_trace(self, monkeypatch):
        # 1.05^256 escapes the growth guard with trace 2.6e5 >= 2n = 4
        calls = fallback_fits(monkeypatch)
        assert unstable_mask(MASK_CASES["ar1_1.05"])
        assert unstable_mask(np.stack([MASK_CASES["ar1_1.05"], MASK_CASES["ar1_0.9"]])).tolist() == [
            True, False,
        ]
        assert calls == []

    def test_transient_growth_is_certified(self, monkeypatch):
        calls = fallback_fits(monkeypatch)
        assert not unstable_mask(MASK_CASES["transient_growth"])
        assert calls == []

    def test_mixed_stack_keeps_leading_shape(self):
        cases = list(MASK_CASES.values())
        a = np.stack(cases + cases[::-1]).reshape(2, len(cases), 1, 2, 2)
        assert_mask_is_eigen_rule(a)
        assert unstable_mask(a).sum() == 8

    @pytest.mark.parametrize("c", [4, 19])
    def test_random_stacks_near_radius_one(self, c):
        rng = np.random.default_rng(c)
        for low, high in ((0.95, 1.05), (1.0, 1.001)):
            for p in (1, 2, 4):
                a = rng.standard_normal((24, p, c, c))
                # scaling lag k by s**k scales every companion eigenvalue by s
                s = rng.uniform(low, high, 24) / companion_radius(a)
                a *= (s[:, None] ** np.arange(1, p + 1))[:, :, None, None]
                assert_mask_is_eigen_rule(a.reshape(4, 6, p, c, c))

    def test_nan_coefficient_raises_as_the_eigenvalue_rule(self):
        a = np.stack([MASK_CASES["ar1_0.9"]] * 2)
        a[1, 0, 0, 1] = np.nan
        with pytest.raises(Exception) as want:
            companion_radius(a)
        with pytest.raises(want.type):
            unstable_mask(a)


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

    @pytest.mark.parametrize("rows, raised", [
        ([[1, 1, 1, 1]] * 3, None),
        ([[1, np.nan, 2e13, 1], [1, 1, 1, 1], [1, 1, 1, 1]], None),
        ([[2e13, 1, np.nan, 1], [1, 1, 1, 1], [1, 1, 1, 1]], None),
        ([[1, np.nan, 2e13, 1], [1, 1, 3e13, 1], [1, 1, 1, 1]], "f = 48.0000 Hz (condition 3.000e+13)"),
        ([[1, 1, 1, 1], [1, 5e12, 1, 4e12], [1, 1, 1, 1]], "f = 32.0000 Hz (condition 5.000e+12)"),
    ], ids=["none", "nan_row", "nan_after_limit", "nan_row_then_singular", "worst_of_row"])
    def test_abar_condition_rows_decide_as_each_row_alone(self, monkeypatch, rows, raised):
        # the first fit whose row's argmax exceeds the limit raises, naming
        # that row's worst frequency; argmax picks a row's first NaN, so a
        # row holding NaN never raises
        real = mvar._inverse_and_cond

        def fake_abar_cond(m):
            inv, cond = real(m)
            return (inv, np.array(rows, dtype=float)) if m.ndim == 4 else (inv, cond)

        monkeypatch.setattr(mvar, "_inverse_and_cond", fake_abar_cond)
        m = MvarModel(p=1, A=np.zeros((3, 1, 1, 1)), Sigma=np.ones((3, 1, 1)), fs=FS)
        if raised is None:
            spectral_decomposition(m, n_freqs=4)
        else:
            with pytest.raises(ValueError) as exc:
                spectral_decomposition(m, n_freqs=4)
            assert str(exc.value) == f"Abar(f) numerically singular at {raised}"

    def test_abar_conditions_below_the_limit_walk_no_row(self, monkeypatch):
        calls, real = [], np.argmax
        monkeypatch.setattr(mvar.np, "argmax", lambda *a, **k: calls.append(1) or real(*a, **k))
        spectral_decomposition(random_stable_model(np.random.default_rng(17), 4, 3), n_freqs=16)
        assert calls == []

    @pytest.mark.parametrize("c, fs", [(4, 128.0), (19, 256.0)])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_kept_frequencies_equal_full_grid_rows(self, c, fs, stacked):
        # the default bands read the grid from 2 Hz up to, not including, 45 Hz
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, int(2 * fs), c))
        x[:, 1:] += 0.6 * x[:, :-1]
        m = fit_mvar(x if stacked else x[0], 5, fs)
        full = spectral_decomposition(m, n_freqs=64)
        keep = np.flatnonzero((full.freqs >= 2.0) & (full.freqs < 45.0))
        assert keep.size == (43 if fs == 128.0 else 22)
        # a lone frequency too, which numpy would take through gemv
        for kept in (keep, keep[:1], keep[-1:]):
            part = spectral_decomposition(m, n_freqs=64, keep=kept)
            assert np.array_equal(part.freqs, full.freqs[kept])
            for name in ("Abar", "H", "S", "P"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[..., kept, :, :])

    @pytest.mark.parametrize("c, fs", [(4, 128.0), (19, 256.0)])
    def test_abar_equals_the_lag_sum(self, c, fs):
        # A(f) is one (F, p) @ (p, C^2) product; the lag sum is its definition
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, int(2 * fs), c))
        x[:, 1:] += 0.6 * x[:, :-1]
        m = fit_mvar(x, 6, fs)
        sd = spectral_decomposition(m, n_freqs=64)
        phase = np.exp(-2j * np.pi * np.outer(sd.freqs, np.arange(1, 7)) / fs)
        want = np.eye(c) - np.einsum("fk,...kij->...fij", phase, m.A.astype(complex))
        assert np.max(np.abs(sd.Abar - want)) <= 1e-15

    def test_singular_abar_outside_kept_frequencies_is_not_evaluated(self):
        # unit-circle AR(2) roots at 50 Hz: Abar is singular there only
        theta = 2 * np.pi * 50.0 / FS
        a = np.array([[[2 * np.cos(theta)]], [[-1.0]]])
        m = MvarModel(p=2, A=a, Sigma=np.eye(1), fs=FS)
        with pytest.raises(ValueError, match="50.0000 Hz"):
            spectral_decomposition(m, n_freqs=64)
        keep = np.arange(1, 44)  # 2..44 Hz
        sd = spectral_decomposition(m, n_freqs=64, keep=keep)
        assert np.array_equal(sd.freqs, np.arange(2.0, 45.0))
        assert np.isfinite(sd.S).all()

    def test_diagnostics_merge(self):
        names = [f.name for f in dataclasses.fields(FitDiagnostics)]
        a = FitDiagnostics(**{name: i + 1 for i, name in enumerate(names)})
        a.merge(FitDiagnostics(**{name: 10 * (i + 1) for i, name in enumerate(names)}))
        assert [getattr(a, name) for name in names] == [11 * (i + 1) for i in range(len(names))]


class TestSimulateVar:
    def test_deterministic_given_rng_seed(self):
        a = stable_var2_coeffs()
        y1 = simulate_var(a, 256, rng=np.random.default_rng(10))
        y2 = simulate_var(a, 256, rng=np.random.default_rng(10))
        assert np.array_equal(y1, y2)

    def test_explicit_innovations_shape_checked(self):
        with pytest.raises(ValueError, match="innovations shape"):
            simulate_var(stable_var2_coeffs(), 100, innovations=np.zeros((50, 2)))
