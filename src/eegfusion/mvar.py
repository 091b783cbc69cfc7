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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MvarModel",
    "SpectralDecomposition",
    "FitDiagnostics",
    "fit_mvar",
    "select_order",
    "is_stable",
    "companion_matrix",
    "frequency_grid",
    "spectral_decomposition",
    "simulate_var",
]

#: Condition-number threshold beyond which Sigma gets a diagonal jitter and
#: Abar(f) is considered numerically singular.
_COND_LIMIT = 1e12


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
    positive-semidefinite residual covariance.
    """

    p: int
    A: np.ndarray
    Sigma: np.ndarray
    fs: float

    @property
    def n_channels(self) -> int:
        return self.Sigma.shape[0]


@dataclass
class SpectralDecomposition:
    """Per-frequency matrices derived from one fitted model.

    All matrix stacks have shape (n_freqs, C, C). ``S`` and ``P`` are
    Hermitian positive semidefinite at every frequency.
    """

    freqs: np.ndarray
    Abar: np.ndarray
    H: np.ndarray
    S: np.ndarray
    P: np.ndarray


def _lag_design(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Response rows Y(n) and stacked lag regressors [Y(n-1) ... Y(n-p)]."""
    n = x.shape[0]
    response = x[p:]
    lags = np.hstack([x[p - k : n - k] for k in range(1, p + 1)])
    return response, lags


def _fit_core(x: np.ndarray, p: int, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected samples x channels, got shape {x.shape}")
    n, c = x.shape
    if p < 1:
        raise ValueError(f"model order must be >= 1, got {p}")
    if n <= c * p + p:
        raise ValueError(
            f"insufficient samples for order {p}: {n} rows, "
            f"need more than {c * p + p}"
        )
    x = x - x.mean(axis=0)
    response, lags = _lag_design(x, p)
    gram = lags.T @ lags
    lam = ridge * float(np.mean(np.diag(gram)))
    if lam > 0:
        gram = gram + lam * np.eye(gram.shape[0])
    try:
        coef = np.linalg.solve(gram, lags.T @ response)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular regularized normal equations") from exc
    resid = response - lags @ coef
    sigma = resid.T @ resid / (n - p)
    sigma = 0.5 * (sigma + sigma.T)
    a = np.stack([coef[(k - 1) * c : k * c, :].T for k in range(1, p + 1)])
    return a, sigma


def fit_mvar(x: np.ndarray, p: int, fs: float, ridge: float = 1e-4) -> MvarModel:
    """Least-squares MVAR fit with a relative ridge term.

    The ridge weight is ``lam = ridge * mean(diag(Gram))`` added to the normal
    equations, which keeps the fit well-posed for near-collinear multichannel
    regressors. The channel means are removed before fitting. The residual
    covariance uses divisor ``N - p``.
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
    """Companion form of the lag-coefficient stack, shape (pC, pC)."""
    a = np.asarray(a, dtype=float)
    p, c, _ = a.shape
    top = np.concatenate(list(a), axis=1)
    if p == 1:
        return top
    lower = np.eye((p - 1) * c, p * c)
    return np.vstack([top, lower])


def is_stable(m: MvarModel) -> bool:
    """True iff the companion spectral radius is strictly below 1."""
    radius = np.abs(np.linalg.eigvals(companion_matrix(m.A))).max()
    return bool(radius < 1.0)


def frequency_grid(fs: float, n_freqs: int) -> np.ndarray:
    """The spectral grid ``f_k = k (fs/2) / n_freqs`` for ``k = 1..n_freqs``."""
    return (fs / 2.0) * np.arange(1, n_freqs + 1) / n_freqs


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
    singular at some frequency, that is an error naming the frequency.
    """
    if n_freqs < 1:
        raise ValueError(f"n_freqs must be >= 1, got {n_freqs}")
    c = m.n_channels
    sigma = np.asarray(m.Sigma, dtype=float)
    if np.linalg.cond(sigma) > _COND_LIMIT:
        jitter = 1e-10 * np.trace(sigma) / c
        warnings.warn(
            f"residual covariance ill-conditioned; adding diagonal jitter {jitter:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
        sigma = sigma + jitter * np.eye(c)
        if diagnostics is not None:
            diagnostics.sigma_jitter_events += 1
    sigma_inv = np.linalg.inv(sigma)

    freqs = frequency_grid(m.fs, n_freqs)
    lags = np.arange(1, m.p + 1)
    # phase[k_freq, k_lag] = exp(-2j pi f k / fs)
    phase = np.exp(-2j * np.pi * np.outer(freqs, lags) / m.fs)
    a_f = np.einsum("fk,kij->fij", phase, m.A.astype(complex))
    abar = np.eye(c) - a_f

    cond = np.linalg.cond(abar)
    worst = int(np.argmax(cond))
    if cond[worst] > _COND_LIMIT:
        raise ValueError(
            f"Abar(f) numerically singular at f = {freqs[worst]:.4f} Hz "
            f"(condition {cond[worst]:.3e})"
        )
    h = np.linalg.inv(abar)
    abar_h = abar.conj().transpose(0, 2, 1)
    h_h = h.conj().transpose(0, 2, 1)
    s = h @ sigma @ h_h
    p_mat = abar_h @ sigma_inv @ abar
    # kill the floating-point Hermitian drift so diagonals are exactly real
    s = 0.5 * (s + s.conj().transpose(0, 2, 1))
    p_mat = 0.5 * (p_mat + p_mat.conj().transpose(0, 2, 1))
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
    ``n_samples + burn_in`` rows.
    """
    a = np.asarray(a, dtype=float)
    p, c, _ = a.shape
    total = n_samples + burn_in
    if innovations is None:
        if rng is None:
            raise ValueError("need rng when innovations are not supplied")
        e = rng.standard_normal((total, c))
        if noise_cov is not None:
            e = e @ np.linalg.cholesky(noise_cov).T
    else:
        e = np.asarray(innovations, dtype=float)
        if e.shape != (total, c):
            raise ValueError(
                f"innovations shape {e.shape} != expected {(total, c)}"
            )
    y = np.zeros((total, c))
    for n in range(total):
        acc = e[n].copy()
        for k in range(1, min(p, n) + 1):
            acc += a[k - 1] @ y[n - k]
        y[n] = acc
    return y[burn_in:]
