"""Multivariate autoregressive model fitting and its frequency-domain objects.

A fitted model ``Y(n) = sum_k A(k) Y(n-k) + U(n)`` is turned into the
per-frequency matrices used by every spectral connectivity measure:

* ``Abar(f) = I - A(f)`` with ``A(f) = sum_k A(k) exp(-2j pi f k / fs)``
* transfer matrix ``H(f) = Abar(f)^-1``
* cross-spectral density ``S(f) = H(f) Sigma H(f)^H``
* inverse spectral matrix ``P(f) = Abar(f)^H Sigma^-1 Abar(f)``

``S(f) P(f) = I`` holds algebraically and is enforced as a test invariant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MvarModel",
    "SpectralDecomposition",
    "FitDiagnostics",
    "fit_mvar",
    "select_order",
    "is_stable",
    "companion_matrix",
    "companion_radius",
    "frequency_grid",
    "spectral_decomposition",
    "simulate_var",
]

#: Condition-number threshold beyond which Sigma gets a diagonal jitter and
#: Abar(f) is considered numerically singular.
_COND_LIMIT = 1e12

#: Frobenius condition bound above which the exact (SVD) condition number is
#: computed. Set 100x below _COND_LIMIT so that rounding in the inverse behind
#: the bound cannot hide a condition number above the limit.
_BOUND_GATE = 1e10


@dataclass
class FitDiagnostics:
    """Counters surfaced into run manifests."""

    unstable_fits: int = 0
    sigma_jitter_events: int = 0

    def merge(self, other: "FitDiagnostics") -> None:
        self.unstable_fits += other.unstable_fits
        self.sigma_jitter_events += other.sigma_jitter_events


@dataclass
class MvarModel:
    """Fitted MVAR coefficients and residual covariance.

    ``A`` has shape (p, C, C); ``A[k - 1][i, j]`` maps the lag-k past of
    channel j onto the present of channel i. ``Sigma`` is the symmetric
    positive-semidefinite residual covariance. A stack of T fits of one
    order holds ``A`` as (T, p, C, C) and ``Sigma`` as (T, C, C).
    """

    p: int
    A: np.ndarray
    Sigma: np.ndarray
    fs: float

    @property
    def n_channels(self) -> int:
        return self.Sigma.shape[-1]


@dataclass
class SpectralDecomposition:
    """Per-frequency matrices derived from one fitted model.

    All matrix stacks have shape (n_freqs, C, C), or (T, n_freqs, C, C) for a
    stacked model. ``S`` and ``P`` are Hermitian positive semidefinite at
    every frequency.
    """

    freqs: np.ndarray
    Abar: np.ndarray
    H: np.ndarray
    S: np.ndarray
    P: np.ndarray


def _lag_design(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Response rows Y(n) and stacked lag regressors [Y(n-1) ... Y(n-p)]."""
    n = x.shape[-2]
    response = x[..., p:, :]
    lags = np.concatenate([x[..., p - k : n - k, :] for k in range(1, p + 1)], axis=-1)
    return response, lags


def _fit_core(x: np.ndarray, p: int, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected samples x channels, got shape {x.shape}")
    n, c = x.shape[-2:]
    if p < 1:
        raise ValueError(f"model order must be >= 1, got {p}")
    if n <= c * p + p:
        raise ValueError(
            f"insufficient samples for order {p}: {n} rows, "
            f"need more than {c * p + p}"
        )
    x = x - x.mean(axis=-2, keepdims=True)
    response, lags = _lag_design(x, p)
    lags_t = np.swapaxes(lags, -1, -2)
    gram = lags_t @ lags
    if ridge > 0:
        lam = ridge * np.mean(np.diagonal(gram, axis1=-2, axis2=-1), axis=-1)
        gram = gram + lam[..., None, None] * np.eye(gram.shape[-1])
    try:
        coef = np.linalg.solve(gram, lags_t @ response)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular regularized normal equations") from exc
    resid = response - lags @ coef
    sigma = np.swapaxes(resid, -1, -2) @ resid / (n - p)
    sigma = 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
    # coef rows are lag-major: block k holds A(k) transposed
    a = np.ascontiguousarray(np.swapaxes(coef.reshape(coef.shape[:-2] + (p, c, c)), -1, -2))
    return a, sigma


def fit_mvar(x: np.ndarray, p: int, fs: float, ridge: float = 1e-4) -> MvarModel:
    """Least-squares MVAR fit with a relative ridge term.

    The ridge weight is ``lam = ridge * mean(diag(Gram))`` added to the normal
    equations, which keeps the fit well-posed for near-collinear multichannel
    regressors. The channel means are removed before fitting. The residual
    covariance uses divisor ``N - p``. ``x`` is one (N, C) signal, or a stack
    (T, N, C) fitted as T independent models in one batched solve.
    """
    a, sigma = _fit_core(x, p, ridge)
    return MvarModel(p=p, A=a, Sigma=sigma, fs=float(fs))


def select_order(x: np.ndarray, p_max: int = 12, ridge: float = 1e-4) -> int:
    """Pick the order minimizing ``AIC(p) = ln det Sigma_p + 2 p C^2 / N``."""
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    x = np.asarray(x, dtype=float)
    n, c = x.shape
    best_p, best_aic = 1, np.inf
    for p in range(1, p_max + 1):
        _, sigma = _fit_core(x, p, ridge)
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            continue
        aic = logdet + 2.0 * p * c * c / n
        if aic < best_aic:
            best_p, best_aic = p, aic
    return best_p


def companion_matrix(a: np.ndarray) -> np.ndarray:
    """Companion form of the lag-coefficient stack (p, C, C): shape (pC, pC).

    Leading axes of ``a`` are kept: (T, p, C, C) gives (T, pC, pC).
    """
    a = np.asarray(a, dtype=float)
    p, c = a.shape[-3], a.shape[-1]
    top = np.concatenate([a[..., k, :, :] for k in range(p)], axis=-1)
    if p == 1:
        return top
    lower = np.broadcast_to(np.eye((p - 1) * c, p * c), a.shape[:-3] + ((p - 1) * c, p * c))
    return np.concatenate([top, lower], axis=-2)


def companion_radius(a: np.ndarray) -> np.ndarray:
    """Spectral radius of the companion matrix, per leading index of ``a``."""
    return np.abs(np.linalg.eigvals(companion_matrix(a))).max(axis=-1)


def is_stable(m: MvarModel) -> bool:
    """True iff every fit in ``m`` has companion spectral radius strictly below 1."""
    return bool(np.all(companion_radius(m.A) < 1.0))


def frequency_grid(fs: float, n_freqs: int) -> np.ndarray:
    """The spectral grid ``f_k = k (fs/2) / n_freqs`` for ``k = 1..n_freqs``."""
    return (fs / 2.0) * np.arange(1, n_freqs + 1) / n_freqs


def _inverse_and_cond(m: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Inverse of each matrix in ``m`` and its 2-norm condition number.

    The SVD behind the condition number runs only where the Frobenius bound
    ``||M||_F ||M^-1||_F``, which is never below it, exceeds ``_BOUND_GATE``;
    elsewhere the condition reads 0, far below ``_COND_LIMIT``. An exactly
    singular matrix in the stack gives no inverse and an SVD of every matrix.
    """
    try:
        inv = np.linalg.inv(m)
        bound = np.linalg.norm(m, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    except np.linalg.LinAlgError:
        inv, bound = None, np.full(m.shape[:-2], np.inf)
    cond = np.zeros(bound.shape)
    suspect = ~(bound <= _BOUND_GATE)  # a NaN bound is suspect too
    if suspect.any():
        cond[suspect] = np.linalg.cond(m[suspect])
    return inv, cond


def _sigma_inverse(sigma: np.ndarray, diagnostics: FitDiagnostics | None) -> np.ndarray:
    """Inverse residual covariance, jittering ill-conditioned ones first."""
    c = sigma.shape[-1]
    inv, cond = _inverse_and_cond(sigma)
    ill = np.flatnonzero(cond > _COND_LIMIT)
    if ill.size:
        sigma = sigma.copy()
        flat = sigma.reshape((-1, c, c))
        for i in ill:
            jitter = 1e-10 * np.trace(flat[i]) / c
            warnings.warn(
                f"residual covariance ill-conditioned; adding diagonal jitter {jitter:.3e}",
                RuntimeWarning,
                stacklevel=3,
            )
            flat[i] = flat[i] + jitter * np.eye(c)
            if diagnostics is not None:
                diagnostics.sigma_jitter_events += 1
        if inv is not None:
            inv.reshape((-1, c, c))[ill] = np.linalg.inv(flat[ill])
    return np.linalg.inv(sigma) if inv is None else inv


def spectral_decomposition(
    m: MvarModel,
    n_freqs: int = 64,
    diagnostics: FitDiagnostics | None = None,
) -> SpectralDecomposition:
    """Evaluate Abar, H, S, P on a uniform frequency grid up to Nyquist.

    The grid is ``f_k = k (fs/2) / n_freqs`` for ``k = 1..n_freqs``; zero
    frequency is excluded because ``Abar(0)`` can be near-singular for
    strongly autocorrelated data. If Sigma is ill-conditioned a small
    diagonal jitter is added (with a warning); if ``Abar(f)`` is numerically
    singular at some frequency, that is an error naming the frequency. A
    stacked model gives stacked matrices, one leading index per fit.

    Both conditions are checked against ``_COND_LIMIT`` on the 2-norm
    condition number. The SVD behind it runs only where the cheap Frobenius
    bound ``||M||_F ||M^-1||_F`` (from the inverse needed anyway) exceeds
    ``_BOUND_GATE``, so every decision matches an SVD of every matrix.
    """
    if n_freqs < 1:
        raise ValueError(f"n_freqs must be >= 1, got {n_freqs}")
    c = m.n_channels
    sigma = np.asarray(m.Sigma, dtype=float)
    sigma_inv = _sigma_inverse(sigma, diagnostics)

    freqs = frequency_grid(m.fs, n_freqs)
    lags = np.arange(1, m.p + 1)
    # phase[k_freq, k_lag] = exp(-2j pi f k / fs)
    phase = np.exp(-2j * np.pi * np.outer(freqs, lags) / m.fs)
    a_f = np.einsum("fk,...kij->...fij", phase, m.A.astype(complex))
    abar = np.eye(c) - a_f

    h, cond = _inverse_and_cond(abar)
    for row in cond.reshape((-1, n_freqs)):
        worst = int(np.argmax(row))
        if row[worst] > _COND_LIMIT:
            raise ValueError(
                f"Abar(f) numerically singular at f = {freqs[worst]:.4f} Hz "
                f"(condition {row[worst]:.3e})"
            )
    if h is None:
        h = np.linalg.inv(abar)
    abar_h = np.swapaxes(abar.conj(), -1, -2)
    h_h = np.swapaxes(h.conj(), -1, -2)
    s = h @ sigma[..., None, :, :] @ h_h
    p_mat = abar_h @ sigma_inv[..., None, :, :] @ abar
    # kill the floating-point Hermitian drift so diagonals are exactly real
    s = 0.5 * (s + np.swapaxes(s.conj(), -1, -2))
    p_mat = 0.5 * (p_mat + np.swapaxes(p_mat.conj(), -1, -2))
    return SpectralDecomposition(freqs=freqs, Abar=abar, H=h, S=s, P=p_mat)


def simulate_var(
    a: np.ndarray,
    n_samples: int,
    *,
    rng: np.random.Generator | None = None,
    noise_cov: np.ndarray | None = None,
    innovations: np.ndarray | None = None,
    burn_in: int = 200,
) -> np.ndarray:
    """Simulate a VAR process, discarding an initial transient.

    Either pass ``rng`` (innovations drawn as standard normal, optionally
    colored by ``noise_cov``) or pass ``innovations`` explicitly with
    ``n_samples + burn_in`` rows. ``a`` is one coefficient stack (p, C, C),
    giving (n_samples, C), or R stacks (R, p, C, C) driven by innovations
    (R, n_samples + burn_in, C), giving (R, n_samples, C) from one recursion.

    The recursion runs in place in the innovations buffer: a float64
    ``innovations`` array is overwritten, and the result is a view of it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (3, 4):
        raise ValueError(f"expected coefficients (p, C, C) or (R, p, C, C), got {a.shape}")
    p, c = a.shape[-3], a.shape[-1]
    total = n_samples + burn_in
    shape = a.shape[:-3] + (total, c)
    if innovations is None:
        if rng is None:
            raise ValueError("need rng when innovations are not supplied")
        y = rng.standard_normal(shape)
        if noise_cov is not None:
            y = y @ np.linalg.cholesky(noise_cov).T
    else:
        y = np.asarray(innovations, dtype=float)
        if y.shape != shape:
            raise ValueError(
                f"innovations shape {y.shape} != expected {shape}"
            )
    # y[..., n, :] holds e(n) until step n adds sum_k A(k) y(n-k) to it
    lag_a = [a[..., k, :, :] for k in range(p)]
    for n in range(total):
        acc = y[..., n, :]
        for k in range(1, min(p, n) + 1):
            acc += np.matmul(lag_a[k - 1], y[..., n - k, :, None])[..., 0]
    return y[..., burn_in:, :]
