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
from scipy.linalg import blas, lapack

__all__ = [
    "MvarModel",
    "SpectralDecomposition",
    "FitDiagnostics",
    "fit_mvar",
    "fit_aic",
    "select_order",
    "is_stable",
    "companion_matrix",
    "companion_radius",
    "unstable_mask",
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

#: Squarings of a companion matrix (powers up to C^4096) before
#: :func:`unstable_mask` leaves an undecided fit to the trace test and then
#: the eigenvalue rule.
_SQUARINGS = 12

#: A power C^k whose Frobenius norm is at most this certifies the fit stable:
#: rho(C) <= ||C^k||^(1/k) <= 2^(-1/k) < 1.
_CERTIFY_NORM = 0.5

#: A power whose norm exceeds this leaves the squarings for the trace test,
#: or for the eigenvalue rule when it is not finite. It bounds each
#: squaring's rounding to about n eps 1e8 (2.5e-6 at n = 114), far inside
#: either certificate's margin.
_GROWTH_GUARD = 1e4


@dataclass
class FitDiagnostics:
    """Counters surfaced into run manifests, one ``warnings`` key per field."""

    unstable_fits: int = 0
    sigma_jitter_events: int = 0
    #: AIC order searches whose choice is the cap ``aic_max``.
    order_cap_hits: int = 0


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

    ``freqs`` holds the grid frequencies evaluated (all, or those ``keep``
    picks), in Hz. All matrix stacks have shape (F, C, C), or (T, F, C, C)
    for a stacked model, F = ``len(freqs)``. ``S`` and ``P`` are Hermitian
    positive semidefinite at every frequency.
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


def _demeaned(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected samples x channels, got shape {x.shape}")
    return x - x.mean(axis=-2, keepdims=True)


def _check_order(n: int, c: int, p: int) -> None:
    if p < 1:
        raise ValueError(f"model order must be >= 1, got {p}")
    if n <= c * p + p:
        raise ValueError(
            f"insufficient samples for order {p}: {n} rows, "
            f"need more than {c * p + p}"
        )


def fit_mvar(x: np.ndarray, p: int, fs: float, ridge: float = 1e-4) -> MvarModel:
    """Least-squares MVAR fit with a relative ridge term.

    The ridge weight is ``lam = ridge * mean(diag(Gram))`` added to the normal
    equations, which keeps the fit well-posed for near-collinear multichannel
    regressors. The channel means are removed before fitting. The residual
    covariance uses divisor ``N - p``. ``x`` is one (N, C) signal, or a stack
    (T, N, C) fitted as T independent models in one batched solve.
    """
    x = _demeaned(x)
    n, c = x.shape[-2:]
    _check_order(n, c, p)
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
    return _solved_model(response, lags, coef, fs)


def _solved_model(response: np.ndarray, lags: np.ndarray, coef: np.ndarray, fs: float) -> MvarModel:
    """The model of solved lag coefficients ``coef`` (..., pC, C): Sigma from
    the explicit residuals, divisor N - p (the rows of ``response``)."""
    resid = response - lags @ coef
    sigma = np.swapaxes(resid, -1, -2) @ resid / resid.shape[-2]
    sigma = 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
    # coef rows are lag-major: block k holds A(k) transposed
    c = coef.shape[-1]
    p = coef.shape[-2] // c
    a = np.ascontiguousarray(np.swapaxes(coef.reshape(coef.shape[:-2] + (p, c, c)), -1, -2))
    return MvarModel(p=p, A=a, Sigma=sigma, fs=float(fs))


def select_order(
    x: np.ndarray, p_max: int = 12, ridge: float = 1e-4
) -> int | tuple[int, ...]:
    """Pick the order minimizing ``AIC(p) = ln det Sigma_p + 2 p C^2 / N``.

    ``x`` is one sub-window (N, C), giving an int, or a stack (T, N, C),
    giving one order per sub-window as a tuple. ``Sigma_p`` is the residual
    covariance of ``fit_mvar(x, p, ridge=ridge)``: least squares on the N - p
    rows that have p lags, the ridge ``ridge * mean(diag(Gram_p))`` of that
    order, divisor N - p. Orders whose ``Sigma_p`` has no positive
    determinant are skipped; when none has one, the order is 1.

    Every order of a sub-window comes from its zero-padded lag design with
    p_max lags. Its Gram, cross term and ``Y^T Y`` over the rows p_max..N-1
    are shared; order p takes their leading pC block and adds the rows
    p..p_max-1 it also fits. The ridged normal equations are solved by
    Cholesky (LU where Cholesky fails), and ``(N - p) Sigma_p = Y^T Y - b^T
    coef - lam coef^T coef``, which follows from ``(Gram + lam I) coef = b``.
    The AIC values match a fit per order up to rounding (the tests allow
    1e-9), and a stack gives each sub-window's values byte for byte.
    """
    x = _demeaned(x)
    orders, _ = _aic_search(x.reshape((-1,) + x.shape[-2:]), p_max, ridge)
    return orders if x.ndim == 3 else orders[0]


def fit_aic(
    x: np.ndarray, fs: float, p_max: int = 12, ridge: float = 1e-4
) -> tuple[int, MvarModel] | tuple[tuple[int, ...], dict[int, MvarModel]]:
    """Each sub-window fitted at the order :func:`select_order` picks, from
    the order search's own solutions.

    ``x`` is one sub-window (N, C), giving its order and model, or a stack
    (T, N, C), giving one order per sub-window as a tuple and a dict that
    maps each order, in order of first appearance, to the stacked model of
    its sub-windows in input order. The coefficients are the search's
    Cholesky solutions of the ridged normal equations, which ``fit_mvar``
    solves by LU, and Sigma comes from the explicit residuals as there, so
    the two fits differ by rounding only. Each sub-window of a stack gets
    the model it gets alone, byte for byte.
    """
    x = _demeaned(x)
    stack = x.reshape((-1,) + x.shape[-2:])
    orders, coefs = _aic_search(stack, p_max, ridge)
    models = {}
    for p in dict.fromkeys(orders):
        idx = [t for t, q in enumerate(orders) if q == p]
        response, lags = _lag_design(stack[idx], p)
        models[p] = _solved_model(response, lags, np.stack([coefs[t] for t in idx]), fs)
    if x.ndim == 3:
        return orders, models
    m = models[orders[0]]
    return orders[0], MvarModel(p=m.p, A=m.A[0], Sigma=m.Sigma[0], fs=m.fs)


def _aic_search(x: np.ndarray, p_max: int, ridge: float) -> tuple[tuple[int, ...], list]:
    """The AIC orders of de-meaned sub-windows (T, N, C) and each one's
    coefficients (pC, C) at its order."""
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    n, c = x.shape[-2:]
    # orders 1..top have enough samples; a larger p_max fails on top + 1, as
    # a fit per order would after fitting the orders below it
    top = min(p_max, (n - 1) // (c + 1))
    if top >= 1:
        solved = []
        orders = tuple(int(p) for p in np.argmin(_aic_table(x, top, ridge, solved), axis=0) + 1)
    if top < p_max:
        _check_order(n, c, top + 1)
    return orders, [solved[p - 1][t] for t, p in enumerate(orders)]


def _aic_table(x: np.ndarray, p_max: int, ridge: float, solved: list | None = None) -> np.ndarray:
    """AIC(p), p = 1..p_max, of de-meaned signals (..., N, C): shape (p_max, ...).

    The lag design is built one sub-window at a time in one reused buffer.
    Only its Gram and cross term over the shared rows and its first p_max
    rows, which the orders add, are kept, so a stack holds one (N, p_max C)
    design, not one per sub-window. An order whose ``Sigma_p`` has no
    positive determinant reads inf. A list ``solved`` receives each order's
    coefficients, (T, pC, C) for the T signals.
    """
    lead = x.shape[:-2]
    x = x.reshape((-1,) + x.shape[-2:])
    t_sub, n, c = x.shape
    y = x[:, p_max:]
    gram = np.empty((t_sub, p_max * c, p_max * c))
    cross = np.empty((t_sub, p_max * c, c))
    top = np.empty((t_sub, p_max, p_max * c))
    # every sub-window writes the same cells, so the zero padding stays
    design = np.zeros((n, p_max * c))
    for t in range(t_sub):
        for k in range(1, p_max + 1):
            design[k:, (k - 1) * c : k * c] = x[t, : n - k]
        shared = design[p_max:]
        np.matmul(shared.T, shared, out=gram[t])
        np.matmul(shared.T, y[t], out=cross[t])
        top[t] = design[:p_max]
    del design, shared  # the orders read only top, gram and cross
    yty = np.swapaxes(y, -1, -2) @ y
    sigmas = np.empty((p_max, t_sub, c, c))
    for p in range(1, p_max + 1):
        k = p * c
        head, y_head = top[:, p:, :k], x[:, p:p_max]
        b = np.swapaxes(head, -1, -2) @ y_head
        b += cross[:, :k]
        lam, coef = _ridged_solve(gram[:, :k, :k], head, b, ridge)
        if solved is not None:
            solved.append(coef)
        # (N - p) Sigma_p = Y^T Y - b^T coef - lam coef^T coef
        scatter = yty + np.swapaxes(y_head, -1, -2) @ y_head
        scatter -= np.swapaxes(b, -1, -2) @ coef
        scatter -= lam[:, None, None] * (np.swapaxes(coef, -1, -2) @ coef)
        sigmas[p - 1] = 0.5 * (scatter + np.swapaxes(scatter, -1, -2)) / (n - p)
        # free this order's products before the next order allocates its own
        del b, coef
    sign, logdet = np.linalg.slogdet(sigmas)
    penalty = 2.0 * np.arange(1, p_max + 1) * c * c / n
    aic = np.where(sign > 0, logdet + penalty[:, None], np.inf)
    aic[np.isnan(aic)] = np.inf
    return aic.reshape((p_max,) + lead)


def _ridged_solve(
    gram: np.ndarray, head: np.ndarray, b: np.ndarray, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``(gram[t] + head[t]^T head[t] + lam[t] I) coef[t] = b[t]`` for
    each t, ``lam = ridge * mean(diag)`` of the unridged matrix: (lam, coef).

    Each system is built and factored in one Fortran-ordered scratch: the
    copied ``gram`` block, the boundary rows ``head`` added to its lower
    triangle by ``syrk``, the ridge added to that triangle's diagonal, then
    ``posv`` in place. A system that is not positive definite to working
    precision is rebuilt whole and solved by LU, as ``fit_mvar`` solves it,
    so an exactly singular one raises the same error.
    """
    t_sub, k, c = b.shape
    lam, coef = np.empty(t_sub), np.empty((t_sub, k, c))
    scratch = np.empty((k, k), order="F")
    diag = scratch.reshape(-1, order="F")[:: k + 1]
    for t in range(t_sub):
        np.copyto(scratch, gram[t])
        if head.shape[1]:
            blas.dsyrk(1.0, head[t], beta=1.0, c=scratch, trans=1, lower=1, overwrite_c=1)
        lam[t] = (ridge if ridge > 0 else 0.0) * np.mean(diag)
        diag += lam[t]
        coef[t], info = lapack.dposv(scratch, b[t], lower=1, overwrite_a=1)[1:]
        if info:
            full = gram[t] + head[t].T @ head[t]
            full.reshape(-1)[:: k + 1] += lam[t]
            try:
                coef[t] = np.linalg.solve(full, b[t])
            except np.linalg.LinAlgError as exc:
                raise ValueError("singular regularized normal equations") from exc
    return lam, coef


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
    """Spectral radius of the companion matrix, per leading index of ``a``.

    The exact eigenvalue rule: ``companion_radius(a) >= 1.0`` is what
    :func:`unstable_mask` reproduces without an eigendecomposition for most fits.
    """
    return _spectral_radius(companion_matrix(a))


def _spectral_radius(m: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvals(m)).max(axis=-1)


def is_stable(m: MvarModel) -> bool:
    """True iff every fit in ``m`` has companion spectral radius strictly below 1.

    Decided by eigenvalues (:func:`companion_radius`), the rule that
    :func:`unstable_mask` reproduces.
    """
    return bool(np.all(companion_radius(m.A) < 1.0))


def unstable_mask(a: np.ndarray) -> np.ndarray:
    """``companion_radius(a) >= 1.0`` per leading index of ``a`` (T, p, C, C).

    Each companion matrix is squared up to ``_SQUARINGS`` times, all fits
    at once. By Gelfand's formula rho(C)^k <= ||C^k||_F, so a fit whose power
    falls to ``_CERTIFY_NORM`` is stable. A fit whose finite power exceeds
    ``_GROWTH_GUARD``, or that is still undecided after the squarings, is
    unstable if ``|tr C^k| >= 2n``: rho^k >= |tr C^k| / n >= 2, the stable
    side's margin mirrored. Every other such fit, and every fit whose power
    is not finite, is decided by the eigenvalue rule itself; a fit at radius
    exactly 1 always is, and non-finite coefficients raise as they do there.
    """
    comp = companion_matrix(a)
    n = comp.shape[-1]
    comp = comp.reshape((-1, n, n))
    power, left = comp, np.arange(len(comp))
    mask = np.zeros(len(comp), dtype=bool)
    fallback = []
    for squaring in range(_SQUARINGS + 1):
        if squaring:
            power = power @ power
        with np.errstate(over="ignore"):  # an infinite norm escapes to eigenvalues
            norm = np.linalg.norm(power, axis=(-2, -1))
        going = norm > _CERTIFY_NORM
        decide = ~(norm <= _GROWTH_GUARD)  # NaN norms escape too
        if squaring == _SQUARINGS:
            decide |= going
        if decide.any():
            tested = decide & np.isfinite(norm)
            unstable = np.zeros_like(decide)
            unstable[tested] = np.abs(np.trace(power[tested], axis1=-2, axis2=-1)) >= 2 * n
            mask[left[unstable]] = True
            fallback.append(left[decide & ~unstable])
            going &= ~decide
        power, left = power[going], left[going]
        if not len(left):
            break
    idx = np.concatenate(fallback) if fallback else []
    if len(idx):
        mask[idx] = _spectral_radius(comp[idx]) >= 1.0
    return mask.reshape(np.shape(a)[:-3])


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
    keep: np.ndarray | slice = slice(None),
) -> SpectralDecomposition:
    """Evaluate Abar, H, S, P on a uniform frequency grid up to Nyquist.

    The grid is ``f_k = k (fs/2) / n_freqs`` for ``k = 1..n_freqs``; zero
    frequency is excluded because ``Abar(0)`` can be near-singular for
    strongly autocorrelated data. ``keep``, indices into the grid, evaluates
    those frequencies only, each byte for byte as the whole grid does. If
    Sigma is ill-conditioned a small diagonal jitter is added (with a
    warning); if ``Abar(f)`` is numerically singular at an evaluated
    frequency, that is an error naming the frequency. A stacked model gives
    stacked matrices, one leading index per fit.

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

    freqs = frequency_grid(m.fs, n_freqs)[keep]
    lags = np.arange(1, m.p + 1)
    # phase[k_freq, k_lag] = exp(-2j pi f k / fs); A(f) is one (F, p) @ (p, C^2)
    # product per fit. numpy takes a single row through gemv, which rounds
    # differently from gemm, so a lone frequency is evaluated as a pair.
    rows = np.repeat(freqs, 2) if freqs.size == 1 else freqs
    phase = np.exp(-2j * np.pi * np.outer(rows, lags) / m.fs)
    a = np.asarray(m.A, dtype=float)
    a_f = (phase @ a.reshape(a.shape[:-2] + (c * c,)))[..., : freqs.size, :]
    abar = np.eye(c) - a_f.reshape(a_f.shape[:-1] + (c, c))

    h, cond = _inverse_and_cond(abar)
    # rows are walked only when some value exceeds the limit; argmax picks a
    # row's first NaN, which compares below it, so such a row never raises
    for row in cond.reshape((-1, freqs.size)) if np.any(cond > _COND_LIMIT) else ():
        worst = int(np.argmax(row))
        if row[worst] > _COND_LIMIT:
            raise ValueError(
                f"Abar(f) numerically singular at f = {freqs[worst]:.4f} Hz "
                f"(condition {row[worst]:.3e})"
            )
    if h is None:
        h = np.linalg.inv(abar)
    # Abar^H written contiguous, so that its rows stack without a copy
    abar_h = np.conjugate(np.swapaxes(abar, -1, -2), out=np.empty(abar.shape, complex))
    h_h = np.swapaxes(h.conj(), -1, -2)
    # one product per fit with Sigma and its inverse: the frequencies' rows
    # stacked as (F*C, C), not F products of (C, C)
    fit_rows = sigma.shape[:-2] + (freqs.size * c, c)
    s = (h.reshape(fit_rows) @ sigma).reshape(h.shape) @ h_h
    p_mat = (abar_h.reshape(fit_rows) @ sigma_inv).reshape(abar.shape) @ abar
    # kill the floating-point Hermitian drift so diagonals are exactly real
    s = 0.5 * (s + np.swapaxes(s.conj(), -1, -2))
    p_mat = 0.5 * (p_mat + np.swapaxes(p_mat.conj(), -1, -2))
    return SpectralDecomposition(freqs=freqs, Abar=abar, H=h, S=s, P=p_mat)


def simulate_var(
    a: np.ndarray,
    n_samples: int,
    *,
    rng: np.random.Generator | None = None,
    innovations: np.ndarray | None = None,
    burn_in: int = 200,
) -> np.ndarray:
    """Simulate a VAR process, discarding an initial transient.

    Either pass ``rng`` (innovations drawn as standard normal) or pass
    ``innovations`` explicitly with ``n_samples + burn_in`` rows. ``a`` is one
    coefficient stack (p, C, C), giving (n_samples, C), or R stacks
    (R, p, C, C) driven by innovations (R, n_samples + burn_in, C), giving
    (R, n_samples, C) from one recursion.

    The recursion steps sample by sample, one product per lag, in place in
    the innovations buffer: a float64 ``innovations`` array is overwritten,
    and the result is a view of it.
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
