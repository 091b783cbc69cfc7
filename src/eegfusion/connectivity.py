"""Connectivity measures and the per-window feature tensor.

Seven measures per window, in this fixed order along the first tensor axis:

    SM    cross-spectral density S(f)
    ISM   inverse spectral matrix P(f)
    DC    directed coherence (rows summing to 1)
    COH   spectral coherence
    PDC   partial directed coherence (rows summing to 1)
    PCOH  partial coherence
    PLV   phase locking value

The first six come from a per-sub-window MVAR fit as real powers |M(f)|^2:
SM and ISM are |S(f)|^2 and |P(f)|^2, and :func:`directed_coherence`,
:func:`coherence`, :func:`partial_directed_coherence` and
:func:`partial_coherence` return the other four squared, each into an
optional ``out`` buffer. :func:`band_aggregate` averages a power over the
frequency bins inside each rhythm band, and SM and ISM are compressed with
ln(1 + x) after averaging. PLV is computed in the time domain from
band-filtered analytic phasors. The result for one 20 s window is a
(7, T, C, C, B) tensor.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dsp import BROADBAND, DEFAULT_BANDS, BandSpec, design_bandpass, filtfilt, analytic_signal, unit_phasor
from .mvar import (
    FitDiagnostics,
    SpectralDecomposition,
    fit_aic,
    fit_mvar,
    frequency_grid,
    spectral_decomposition,
    unstable_mask,
)
from .signal_io import LabeledWindow, _mean_std_in_place, _subwindow_length
from .util import one_blas_thread

__all__ = [
    "FEATURE_ORDER",
    "PipelineConfig",
    "WindowTensor",
    "NormStats",
    "coherence",
    "partial_coherence",
    "directed_coherence",
    "partial_directed_coherence",
    "plv_from_phases",
    "plv_matrix",
    "band_aggregate",
    "band_features",
    "window_chunks",
    "refuse_bad_channels",
    "build_feature_tensors",
    "build_feature_tensor",
    "normalize_features",
]

#: Feature axis order of every window tensor.
FEATURE_ORDER = ("SM", "ISM", "DC", "COH", "PDC", "PCOH", "PLV")


def _diagonal_products(mat: np.ndarray, what: str) -> np.ndarray:
    """M_ii M_jj of Hermitian matrices M, whose diagonals must be positive."""
    d = np.real(np.diagonal(mat, axis1=-2, axis2=-1))
    if np.any(d <= 0):
        raise ValueError(f"nonpositive diagonal in {what}; cannot normalize")
    return d[..., :, None] * d[..., None, :]


def _squared_modulus(mat: np.ndarray, out=None) -> np.ndarray:
    """``re^2 + im^2`` of a complex array, into ``out`` or a new real array."""
    out = np.square(mat.real, out=out)
    out += np.square(mat.imag)
    return out


def coherence(sd: SpectralDecomposition, out=None, sm=None) -> np.ndarray:
    """Squared coherence |Coh_ij(f)|^2 = |S_ij|^2 / (S_ii S_jj), (..., F, C, C).
    S is Hermitian, so |S_ii|^2 is the product S_ii S_ii and the diagonal is
    exactly 1. ``sm`` is SM, |S|^2, if the caller has formed it already."""
    sm = _squared_modulus(sd.S) if sm is None else sm
    return np.divide(sm, _diagonal_products(sd.S, "spectral matrix"), out=out)


def partial_coherence(sd: SpectralDecomposition, out=None, ism=None) -> np.ndarray:
    """Squared partial coherence |PCoh_ij(f)|^2 = |P_ij|^2 / (P_ii P_jj) on the
    inverse spectral matrix, (..., F, C, C); the diagonal is exactly 1. ``ism``
    is ISM, |P|^2, if the caller has formed it already."""
    ism = _squared_modulus(sd.P) if ism is None else ism
    return np.divide(ism, _diagonal_products(sd.P, "inverse spectral matrix"), out=out)


def _innovation_variance(sigma: np.ndarray) -> np.ndarray:
    d = np.diagonal(np.asarray(sigma, dtype=float), axis1=-2, axis2=-1)
    if np.any(d <= 0):
        raise ValueError("nonpositive innovation variance; cannot normalize")
    return d


def directed_coherence(sd: SpectralDecomposition, sigma: np.ndarray, out=None) -> np.ndarray:
    """Squared directed coherence |DC_ij(f)|^2 = s_j^2 |H_ij|^2 / sum_m s_m^2 |H_im|^2,
    (..., F, C, C), s_j^2 the innovation variances; each row sums to 1."""
    var = _innovation_variance(sigma)
    dc = _squared_modulus(sd.H, out)
    dc *= var[..., None, None, :]
    dc /= dc.sum(axis=-1, keepdims=True)
    return dc


def partial_directed_coherence(sd: SpectralDecomposition, sigma: np.ndarray, out=None) -> np.ndarray:
    """Squared partial directed coherence |PDC_ij(f)|^2 = s_j^-2 |Abar_ij|^2 /
    sum_m s_m^-2 |Abar_im|^2, (..., F, C, C); each row sums to 1."""
    var = _innovation_variance(sigma)
    pdc = _squared_modulus(sd.Abar, out)
    pdc /= var[..., None, None, :]
    pdc /= pdc.sum(axis=-1, keepdims=True)
    return pdc


def plv_from_phases(phases: np.ndarray) -> np.ndarray:
    """PLV_ij = |mean_n exp(j (phi_i(n) - phi_j(n)))| from phases (..., N, C):
    the feature path's PLV kernel on ``exp(j phi)``, with equal channels found
    on the phases, so a NaN phase never equals itself and an infinite one does."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim < 2 or phases.shape[-2] < 1:
        raise ValueError(f"expected (n_samples, n_channels) phases, got {phases.shape}")
    return _phasor_plv(np.exp(1j * phases), phases)


def _phasor_plv(u: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """PLV of unit phasors u (..., N, C) as the Gram product ``|U^T conj(U)| / N``,
    which rounds differently from the phase differences. So the result is made
    exactly symmetric (the larger of each mirrored pair), capped at 1, and
    exactly 1 where two channels of ``columns`` (..., N, C) are equal sample
    for sample (the diagonal, a duplicated channel). A channel equals itself
    unless it holds a NaN, so the diagonal needs no comparison. Equal
    channels give a product within rounding of 1, and NaN ones NaN, so only
    off-diagonal pairs above ``1 - 1e-6`` or NaN are compared sample by sample.
    """
    n, c = u.shape[-2:]
    plv = np.abs(np.swapaxes(u, -1, -2) @ u.conj()) / n
    plv = np.minimum(np.maximum(plv, np.swapaxes(plv, -1, -2)), 1.0)
    ch = np.arange(c)
    candidate = ~(plv <= 1.0 - 1e-6)
    candidate[..., ch, ch] = False
    pairs = np.nonzero(candidate)
    *lead, i, j = pairs
    by_channel = np.swapaxes(columns, -1, -2)
    same = np.all(by_channel[(*lead, i)] == by_channel[(*lead, j)], axis=-1)
    plv[tuple(ix[same] for ix in pairs)] = 1.0
    # a NaN sample makes its channel's diagonal NaN, so only then are the columns scanned
    nan = np.isnan(plv[..., ch, ch]).any() and np.isnan(columns).any(axis=-2)
    plv[..., ch, ch] = np.where(nan, plv[..., ch, ch], 1.0)
    return plv


def plv_matrix(
    window: LabeledWindow,
    band: BandSpec,
    n_sub: int = 10,
    filter_order: int = 4,
) -> np.ndarray:
    """Per-sub-window phase locking values, shape (n_sub, C, C).

    Phasors come from the analytic signal of the band-filtered full window,
    so sub-windows at the edges are not distorted by per-slice transforms.
    """
    filt = design_bandpass(band, window.fs, filter_order)
    return _band_plv(filtfilt(filt, window.samples), band, 1, n_sub)[0]


def _subwindow_stack(x: np.ndarray, n_windows: int, n_sub: int) -> np.ndarray:
    """Sub-windows of W windows held side by side in x (N, W*C): (W*T, N/T, C).

    One strided copy fills the window-major stack in the layout that
    ``np.stack(split_subwindows(...))`` gives: sample-contiguous sub-windows
    when x is (filter output), else channel-contiguous (phasors). The layout
    decides the bytes: sums and Gram products over the samples round
    differently when they are not contiguous.
    """
    n, c = _subwindow_length(x.shape[0], n_sub), x.shape[1] // n_windows
    by_channel = n > 1 and c > 1 and abs(x.strides[0]) < abs(x.strides[1])
    stack = np.empty((n_windows * n_sub,) + ((c, n) if by_channel else (n, c)), x.dtype)
    stack = stack.swapaxes(1, 2) if by_channel else stack
    by_window = x.reshape(n_sub, n, n_windows, c).transpose(2, 0, 1, 3)
    np.copyto(stack.reshape(n_windows, n_sub, n, c), by_window)
    return stack


def _band_plv(x: np.ndarray, band: BandSpec, n_windows: int, n_sub: int) -> np.ndarray:
    """PLV (W, T, C, C) of band-filtered windows held side by side in x (N, W*C)."""
    u = _subwindow_stack(unit_phasor(analytic_signal(x)), n_windows, n_sub)
    plv = _phasor_plv(u, u)
    return plv.reshape((n_windows, n_sub) + plv.shape[-2:])


def _in_band(freqs: np.ndarray, band: BandSpec) -> np.ndarray:
    """Mask of the grid frequencies inside ``band``: half-open, [low_hz, high_hz)."""
    return (freqs >= band.low_hz) & (freqs < band.high_hz)


def _band_bins(freqs: np.ndarray, band: BandSpec) -> np.ndarray:
    """Indices of the grid frequencies inside ``band``; a band holding none
    is an error: widen the grid (n_freqs) or the band."""
    idx = np.flatnonzero(_in_band(freqs, band))
    if not idx.size:
        raise ValueError(
            f"band {band.name!r} [{band.low_hz}, {band.high_hz}] Hz contains "
            f"no grid frequencies; increase n_freqs or widen the band"
        )
    return idx


def band_aggregate(
    power: np.ndarray, bands: tuple[BandSpec, ...], freqs: np.ndarray
) -> np.ndarray:
    """Band means of a per-frequency power (..., n_freqs, C, C): (..., C, C, B).

    A band's value is the sum over the grid frequencies inside it (a slice
    where they are contiguous, as on an ascending grid) divided by their
    count, so a measure that is exactly 1 at every frequency stays exactly 1.
    Band membership is half-open, [low_hz, high_hz) (:func:`_band_bins`).
    """
    out = np.empty(power.shape[:-3] + power.shape[-2:] + (len(bands),))
    for b, band in enumerate(bands):
        idx = _band_bins(freqs, band)
        bins = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == idx.size - 1 else idx
        # adds the contiguous C x C planes in order: the bytes of .sum(axis=-3)
        out[..., b] = np.einsum("...fij->...ij", power[..., bins, :, :]) / idx.size
    return out


def band_features(
    sd: SpectralDecomposition, sigma: np.ndarray, bands: tuple[BandSpec, ...]
) -> np.ndarray:
    """The six MVAR band features of one fit or fit stack: (6, ..., C, C, B),
    in FEATURE_ORDER.

    The band means of |S|^2, |P|^2 and the named squared measures DC, COH,
    PDC and PCOH, with SM and ISM compressed by ln(1 + x) after averaging.
    Every measure is formed before any band mean, so the errors come in the
    measures' order (innovation variance, S diagonal, P diagonal) and an
    empty band last. Each measure writes its slot of one buffer; COH and PCOH
    divide the SM and ISM slots. The six share one :func:`band_aggregate`
    call: a sum per band over all six costs far less than six of one each.
    """
    power = np.empty((len(FEATURE_ORDER) - 1,) + sd.S.shape)
    _squared_modulus(sd.S, power[0])
    _squared_modulus(sd.P, power[1])
    directed_coherence(sd, sigma, out=power[2])
    coherence(sd, out=power[3], sm=power[0])
    partial_directed_coherence(sd, sigma, out=power[4])
    partial_coherence(sd, out=power[5], ism=power[1])
    out = band_aggregate(power, bands, sd.freqs)
    np.log1p(out[:2], out=out[:2])
    return out


@dataclass(frozen=True)
class PipelineConfig:
    """Feature-extraction settings shared by every window of a run.

    One MVAR model is fitted per sub-window on the ``broadband``-filtered
    signal, and its spectra are averaged inside each of ``bands``; PLV is
    computed on each band-filtered signal.
    """

    order: int = 5
    aic: bool = False
    aic_max: int = 12
    n_freqs: int = 64
    ridge: float = 1e-4
    filter_order: int = 4
    subwindows: int = 10
    bands: tuple[BandSpec, ...] = DEFAULT_BANDS
    broadband: BandSpec = BROADBAND

    def __post_init__(self) -> None:
        for name in ("order", "aic_max", "n_freqs", "subwindows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # bounds on work (README: "Each size field has an upper bound")
        for name, top in (("n_freqs", 512), ("filter_order", 64)):
            if getattr(self, name) > top:
                raise ValueError(f"{name} must be <= {top}, got {getattr(self, name)}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        if not self.bands:
            raise ValueError("bands must hold at least one rhythm band")


@dataclass
class WindowTensor:
    """Feature tensor of one window: values has shape (7, T, C, C, B)."""

    values: np.ndarray
    label: int
    source_id: str

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


#: Cap on F * C^2 * sub-windows per stacked MVAR pass, F the in-band grid
#: frequencies. Each pass holds about six complex and six real (T, F, C, C)
#: arrays, so the cap bounds its memory; the AIC lag design is built one sub-window at a
#: time and does not grow with the pass. A pass takes the sub-windows of a
#: window chunk in order and may span window boundaries: with the default
#: bands a pass holds 47 sub-windows at C=4, fs=128 and four at C=19, fs=256.
_CHUNK_ELEMENTS = 1 << 15

#: Cap on samples * channels over the windows of one extraction chunk. A
#: chunk holds its filtered signals, analytic signals and sub-window stacks
#: at once (traced peaks of 6.5 MB for a C=4, fs=128 chunk and 8.6 MB for a
#: C=19, fs=256 window with AIC at this cap), which stays below the memory a
#: study's synthesis needs: a C=4, fs=128 chunk holds six windows, and a
#: C=19, fs=256 window is a chunk of one.
_WINDOW_CHUNK_SAMPLES = 1 << 16


def window_chunks(windows) -> Iterator[list[LabeledWindow]]:
    """Split windows, in order, into chunks for :func:`build_feature_tensors`:
    runs of consecutive windows of equal ``fs`` and sample shape, each at
    most ``_WINDOW_CHUNK_SAMPLES`` samples * channels and at least one window.

    Each chunk is yielded as soon as it is full or the next window's rate or
    shape differs, so windows that arrive lazily are never all held at once.
    """
    for _, run in itertools.groupby(windows, key=lambda w: (w.fs, w.samples.shape)):
        for first in run:
            size = max(1, _WINDOW_CHUNK_SAMPLES // first.samples.size)
            yield [first, *itertools.islice(run, size - 1)]


def _mvar_planes(
    subs: np.ndarray,
    fs: float,
    cfg: PipelineConfig,
    keep: np.ndarray,
    diagnostics: FitDiagnostics,
) -> np.ndarray:
    """The six MVAR measures of sub-windows (T, n, C), band-averaged: (6, T, C, C, B).

    With AIC one order search covers the stack, each sub-window picks its
    order, and the search's fits at those orders (:func:`fit_aic`) are
    decomposed as one stack per order. :func:`unstable_mask` counts each fit
    stack's unstable fits, by the squaring certificate and eigenvalues only
    where it cannot decide.
    """
    if cfg.aic:
        orders, models = fit_aic(subs, fs, cfg.aic_max, cfg.ridge)
        diagnostics.order_cap_hits += orders.count(cfg.aic_max)
    else:
        orders = (cfg.order,) * len(subs)
        models = {cfg.order: fit_mvar(subs, cfg.order, fs, cfg.ridge)}
    c = subs.shape[-1]
    planes = np.empty((len(FEATURE_ORDER) - 1, len(subs), c, c, len(cfg.bands)))
    for p, model in models.items():
        idx = [t for t, q in enumerate(orders) if q == p]
        diagnostics.unstable_fits += int(np.count_nonzero(unstable_mask(model.A)))
        sd = spectral_decomposition(model, cfg.n_freqs, diagnostics, keep)
        planes[:, idx] = band_features(sd, model.Sigma, cfg.bands)
    return planes


def refuse_bad_channels(windows, n_sub: int) -> None:
    """Raise ValueError naming the first window, sub-window and channel whose
    raw samples over that sub-window are all equal (flat) or not all finite.

    A flat channel carries no signal: its MVAR innovation variance is 0 and
    its phase is undefined; the zero-phase filter would spread a NaN or
    infinity over its whole channel. One min and one max per window find
    both, taken over a channel-major copy: numpy reduces its contiguous rows
    several times faster than the strided sample axis of (T, n, C). A NaN
    makes both NaN and an infinity one of them, so neither reads as flat.
    """
    for w in windows:
        x = w.samples
        n = _subwindow_length(x.shape[0], n_sub)
        subs = np.ascontiguousarray(x.T).reshape(x.shape[1], n_sub, n)
        lo, hi = subs.min(axis=-1), subs.max(axis=-1)
        finite = np.isfinite(lo) & np.isfinite(hi)
        bad = ~finite | (lo == hi)
        if bad.any():
            t, ch = (int(i) for i in np.argwhere(bad.T)[0])
            where = f"window {w.source_id!r}, sub-window {t}: channel {ch}"
            if finite[ch, t]:
                raise ValueError(f"{where} is flat (every sample is {float(subs[ch, t, 0])!r})")
            odd = hi[ch, t] if np.isfinite(lo[ch, t]) else lo[ch, t]
            raise ValueError(f"{where} holds a non-finite sample ({float(odd)!r})")


@one_blas_thread()
def build_feature_tensors(
    windows: list[LabeledWindow],
    cfg: PipelineConfig = PipelineConfig(),
    diagnostics: FitDiagnostics | None = None,
) -> list[WindowTensor]:
    """The (7, T, C, C, B) tensors of one chunk of windows of equal fs and
    sample shape (see :func:`window_chunks`), in order.

    Every step runs once for the whole chunk: each filter over the windows
    side by side as one (N, W*C) block, one analytic-signal FFT and one PLV
    product per band, and the MVAR fits of all W*T sub-windows as one stack,
    taken in passes of at most ``_CHUNK_ELEMENTS`` in-band
    frequency-channel-pair cells that may span windows. The tensors equal
    those of each window alone byte for byte, with one OpenBLAS thread
    (:func:`util.one_blas_thread`) whatever the count outside.

    A window with a flat or non-finite channel is refused before any
    filtering (:func:`refuse_bad_channels`). Fit health is counted into
    ``diagnostics``, a new one when it is None. A failing MVAR pass is
    rerun one sub-window at a time (warnings off, counters thrown away), so
    the error names the first failing window and sub-window with its own
    message; one the rerun does not reproduce is raised as it was raised. A
    band's PLV error names the window of its first zero-magnitude sample.
    """
    fs, shape = windows[0].fs, windows[0].samples.shape
    if any(w.fs != fs or w.samples.shape != shape for w in windows):
        raise ValueError("a window chunk needs one sampling rate and one sample shape")
    refuse_bad_channels(windows, cfg.subwindows)
    diagnostics = FitDiagnostics() if diagnostics is None else diagnostics
    c, n_w, t_sub = shape[1], len(windows), cfg.subwindows
    ids = [w.source_id for w in windows]
    block = np.concatenate([w.samples for w in windows], axis=1)
    tensor = np.empty((n_w, len(FEATURE_ORDER), t_sub, c, c, len(cfg.bands)))
    freqs = frequency_grid(fs, cfg.n_freqs)
    keep = np.flatnonzero(np.any([_in_band(freqs, band) for band in cfg.bands], axis=0))
    per_pass = max(1, _CHUNK_ELEMENTS // (max(1, keep.size) * c * c))

    def filtered(band: BandSpec) -> np.ndarray:
        return filtfilt(design_bandpass(band, fs, cfg.filter_order), block)

    subs = _subwindow_stack(filtered(cfg.broadband), n_w, t_sub)
    planes = np.empty((len(FEATURE_ORDER) - 1, len(subs), c, c, len(cfg.bands)))
    for start in range(0, len(subs), per_pass):
        part = slice(start, min(start + per_pass, len(subs)))
        try:
            planes[:, part] = _mvar_planes(subs[part], fs, cfg, keep, diagnostics)
        except ValueError:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for k in range(part.start, part.stop):
                    try:
                        _mvar_planes(subs[k : k + 1], fs, cfg, keep, FitDiagnostics())
                    except ValueError as first:
                        w, t = divmod(k, t_sub)
                        raise ValueError(f"window {ids[w]!r}, sub-window {t}: {first}") from first
            raise
    planes = planes.reshape(planes.shape[:1] + (n_w, t_sub) + planes.shape[2:])
    tensor[:, :-1] = np.swapaxes(planes, 0, 1)

    for b, band in enumerate(cfg.bands):
        x = None
        try:
            x = filtered(band)
            tensor[:, -1, ..., b] = _band_plv(x, band, n_w, t_sub)
        except ValueError as exc:  # a zero analytic sample in block column j: window j // c
            zero = [] if x is None else np.flatnonzero(np.any(analytic_signal(x) == 0, axis=0))
            w = zero[0] // c if len(zero) else 0
            raise ValueError(f"window {ids[w]!r}, band {band.name!r} PLV: {exc}") from exc

    finite = np.isfinite(tensor).reshape(n_w, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"window {ids[int(np.argmin(finite))]!r}: non-finite feature values")
    return [
        WindowTensor(values=values, label=w.label, source_id=w.source_id)
        for w, values in zip(windows, tensor)
    ]


def build_feature_tensor(
    window: LabeledWindow,
    cfg: PipelineConfig = PipelineConfig(),
    diagnostics: FitDiagnostics | None = None,
) -> WindowTensor:
    """Compute the full (7, T, C, C, B) tensor for one labeled window.

    The window runs as a chunk of one through :func:`build_feature_tensors`:
    its sub-windows form MVAR passes of at most ``_CHUNK_ELEMENTS``
    in-band frequency-channel-pair cells, and an error names the first
    failing sub-window with its own message.
    """
    return build_feature_tensors([window], cfg, diagnostics)[0]


@dataclass(frozen=True)
class NormStats:
    """Per-(feature, band) z-scoring statistics learned on training data."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, t: WindowTensor) -> WindowTensor:
        """Z-score in float64, returned in the tensor's dtype; (feature, band)
        cells with zero spread pass through unchanged."""
        spread = self.std > 0
        scaled = t.values - self.mean[:, None, None, None, :]
        scaled /= np.where(spread, self.std, 1.0)[:, None, None, None, :]
        for f, b in zip(*np.nonzero(~spread)):
            scaled[f, ..., b] = t.values[f, ..., b]
        values = scaled.astype(t.values.dtype, copy=False)
        return WindowTensor(values=values, label=t.label, source_id=t.source_id)

    def apply_many(self, tensors) -> list[WindowTensor]:
        """Each tensor z-scored as by :meth:`apply`, with the same bytes; the
        windows' values are the rows, in order, of one array of the tensors'
        shared shape and dtype."""
        tensors = list(tensors)
        if not tensors:
            return []
        out = np.empty((len(tensors),) + tensors[0].shape, dtype=tensors[0].values.dtype)
        for row, t in zip(out, tensors):
            row[...] = self.apply(t).values
        return [
            WindowTensor(values=row, label=t.label, source_id=t.source_id)
            for row, t in zip(out, tensors)
        ]


def normalize_features(train: list[WindowTensor]) -> tuple[NormStats, list[WindowTensor]]:
    """Fit per-(feature, band) mean/std on training tensors and z-score them.
    Both run in float64 also for float32 tensors such as a stored dataset's;
    the z-scored tensors keep their input dtype, as the rows of one array
    (:meth:`NormStats.apply_many`). The statistics are the bytes of ``mean``
    and ``std`` of the whole float64 stack, reduced one feature at a time:
    each feature's (N, T, C, C, B) float64 stack is one seventh of the
    whole, and the reduction runs in it."""
    if not train:
        raise ValueError("cannot fit normalization on an empty training set")
    f, *_, b = train[0].shape
    mean, std = np.empty((f, b)), np.empty((f, b))
    for k in range(f):
        stack = np.stack([t.values[k] for t in train], dtype=float)
        mean[k], std[k] = _mean_std_in_place(stack, axis=(0, 1, 2, 3))
    del stack  # before the z-scored copies are made
    stats = NormStats(mean=mean, std=std)
    return stats, stats.apply_many(train)
