"""Connectivity measures and the per-window feature tensor.

Seven measures per window, in this fixed order along the first tensor axis:

    SM    cross-spectral density S(f)
    ISM   inverse spectral matrix P(f)
    DC    directed coherence (rows of unit power)
    COH   spectral coherence
    PDC   partial directed coherence (rows of unit power)
    PCOH  partial coherence
    PLV   phase locking value

The first six come from a per-sub-window MVAR fit and are averaged over the
frequency bins inside each rhythm band as mean |M(f)|^2, with ln(1 + x)
compression applied to SM and ISM after averaging. PLV is computed in the
time domain from band-filtered analytic phases. The result for one 20 s
window is a (7, T, C, C, B) tensor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import BROADBAND, DEFAULT_BANDS, BandSpec, design_bandpass, filtfilt, analytic_signal, instantaneous_phase
from .mvar import (
    FitDiagnostics,
    SpectralDecomposition,
    companion_radius,
    fit_mvar,
    is_stable,
    select_order,
    spectral_decomposition,
)
from .signal_io import LabeledWindow, split_subwindows

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
    "build_feature_tensor",
    "normalize_features",
]

#: Feature axis order of every window tensor.
FEATURE_ORDER = ("SM", "ISM", "DC", "COH", "PDC", "PCOH", "PLV")

#: Measures compressed with ln(1 + x) after band averaging.
_LOG_COMPRESSED = ("SM", "ISM")


def _hermitian_diag(mat: np.ndarray, what: str) -> np.ndarray:
    d = np.real(np.diagonal(mat, axis1=-2, axis2=-1))
    if np.any(d <= 0):
        raise ValueError(f"nonpositive diagonal in {what}; cannot normalize")
    return d


def _divide_by_real(mat: np.ndarray, denom: np.ndarray) -> np.ndarray:
    # complex/complex division would round d_i/d_i on the diagonal; dividing
    # the parts by the (positive real) denominator keeps the diagonal exact
    return mat.real / denom + 1j * (mat.imag / denom)


def coherence(sd: SpectralDecomposition) -> np.ndarray:
    """Coh_ij(f) = S_ij / sqrt(S_ii S_jj); the diagonal is exactly 1."""
    d = _hermitian_diag(sd.S, "spectral matrix")
    return _divide_by_real(sd.S, np.sqrt(d[..., :, None] * d[..., None, :]))


def partial_coherence(sd: SpectralDecomposition) -> np.ndarray:
    """PCoh_ij(f) = P_ij / sqrt(P_ii P_jj) on the inverse spectral matrix."""
    d = _hermitian_diag(sd.P, "inverse spectral matrix")
    return _divide_by_real(sd.P, np.sqrt(d[..., :, None] * d[..., None, :]))


def _innovation_std(sigma: np.ndarray) -> np.ndarray:
    d = np.diagonal(np.asarray(sigma, dtype=float), axis1=-2, axis2=-1)
    if np.any(d <= 0):
        raise ValueError("nonpositive innovation variance; cannot normalize")
    return np.sqrt(d)


def directed_coherence(sd: SpectralDecomposition, sigma: np.ndarray) -> np.ndarray:
    """DC_ij = s_j H_ij / sqrt(sum_m s_m^2 |H_im|^2); rows have unit power."""
    s = _innovation_std(sigma)
    num = sd.H * s[..., None, None, :]
    denom = np.sqrt(np.sum(np.abs(num) ** 2, axis=-1, keepdims=True))
    return num / denom


def partial_directed_coherence(sd: SpectralDecomposition, sigma: np.ndarray) -> np.ndarray:
    """PDC_ij = (1/s_j) Abar_ij / sqrt(sum_m (1/s_m^2) |Abar_im|^2), unit-power rows."""
    s = _innovation_std(sigma)
    num = sd.Abar / s[..., None, None, :]
    denom = np.sqrt(np.sum(np.abs(num) ** 2, axis=-1, keepdims=True))
    return num / denom


def plv_from_phases(phases: np.ndarray) -> np.ndarray:
    """PLV_ij = |mean_n exp(j (phi_i(n) - phi_j(n)))| from phases (N, C).

    Computed as the Gram product ``|U^T conj(U)| / N`` of the unit phasors
    ``U = exp(j phi)``; leading axes of ``phases`` (..., N, C) are kept, one
    product per index. The Gram form rounds differently from the phase
    differences, so three properties of the definition are restored
    explicitly: the result is made exactly symmetric (the larger of each
    mirrored pair), it is capped at 1, and wherever two channels' phases are
    equal sample for sample (the diagonal, or a duplicated channel) it is
    exactly 1, as the zero phase difference gives.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim < 2 or phases.shape[-2] < 1:
        raise ValueError(f"expected (n_samples, n_channels) phases, got {phases.shape}")
    n, c = phases.shape[-2:]
    u = np.exp(1j * phases)
    plv = np.abs(np.swapaxes(u, -1, -2) @ u.conj()) / n
    plv = np.minimum(np.maximum(plv, np.swapaxes(plv, -1, -2)), 1.0)
    same = np.stack([np.all(phases == phases[..., i : i + 1], axis=-2) for i in range(c)], axis=-2)
    plv[same] = 1.0
    return plv


def plv_matrix(
    window: LabeledWindow,
    band: BandSpec,
    n_sub: int = 10,
    filter_order: int = 4,
) -> np.ndarray:
    """Per-sub-window phase locking values, shape (n_sub, C, C).

    Phases come from the analytic signal of the band-filtered full window,
    so sub-windows at the edges are not distorted by per-slice transforms.
    """
    filt = design_bandpass(band, window.fs, filter_order)
    xb = filtfilt(filt, window.samples)
    phases = instantaneous_phase(analytic_signal(xb, band=band.name))
    return plv_from_phases(np.stack(split_subwindows(phases, n_sub)))


def band_aggregate(
    values: np.ndarray,
    bands: tuple[BandSpec, ...],
    freqs: np.ndarray,
    measure: str,
) -> np.ndarray:
    """Average |M(f)|^2 over the grid frequencies inside each band: (B, C, C).

    ``values`` is (n_freqs, C, C), or (..., n_freqs, C, C) giving
    (..., B, C, C). Band membership is half-open, [low_hz, high_hz). SM and
    ISM are compressed with ln(1 + x) after averaging. A band holding no grid
    frequency is an error: widen the grid (n_freqs) or the band.
    """
    if measure not in FEATURE_ORDER:
        raise ValueError(f"unknown measure {measure!r}; expected one of {FEATURE_ORDER}")
    power = np.abs(np.asarray(values)) ** 2
    out = np.empty(power.shape[:-3] + (len(bands),) + power.shape[-2:])
    for b, band in enumerate(bands):
        mask = (freqs >= band.low_hz) & (freqs < band.high_hz)
        if not mask.any():
            raise ValueError(
                f"band {band.name!r} [{band.low_hz}, {band.high_hz}] Hz contains "
                f"no grid frequencies; increase n_freqs or widen the band"
            )
        avg = power[..., mask, :, :].mean(axis=-3)
        out[..., b, :, :] = np.log1p(avg) if measure in _LOG_COMPRESSED else avg
    return out


@dataclass(frozen=True)
class PipelineConfig:
    """Feature-extraction settings shared by every window of a run.

    mode "broadband" fits one MVAR per sub-window on the broadband-filtered
    signal and band-averages its spectra; "per_band" refits on each
    band-filtered signal and averages only inside that band.
    """

    mode: str = "broadband"
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
        if self.mode not in ("broadband", "per_band"):
            raise ValueError(f"mode must be 'broadband' or 'per_band', got {self.mode!r}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.aic_max < 1:
            raise ValueError(f"aic_max must be >= 1, got {self.aic_max}")
        if self.n_freqs < 1:
            raise ValueError(f"n_freqs must be >= 1, got {self.n_freqs}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        if self.subwindows < 1:
            raise ValueError(f"subwindows must be >= 1, got {self.subwindows}")
        if not self.bands:
            raise ValueError("need at least one rhythm band")


@dataclass
class WindowTensor:
    """Feature tensor of one window: values has shape (7, T, C, C, B)."""

    values: np.ndarray
    label: int
    source_id: str

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def _spectral_measures(sd: SpectralDecomposition, sigma: np.ndarray) -> dict[str, np.ndarray]:
    """The six MVAR measures, keyed and ordered as in FEATURE_ORDER."""
    return {
        "SM": sd.S,
        "ISM": sd.P,
        "DC": directed_coherence(sd, sigma),
        "COH": coherence(sd),
        "PDC": partial_directed_coherence(sd, sigma),
        "PCOH": partial_coherence(sd),
    }


#: Cap on n_freqs * C^2 * sub-windows per stacked MVAR pass. Each pass holds
#: about a dozen complex (T, n_freqs, C, C) arrays, so the cap bounds its
#: memory: a C=4 window runs its ten sub-windows in one pass, a C=19 window
#: one sub-window at a time.
_CHUNK_ELEMENTS = 1 << 15


def _mvar_planes(
    subs: np.ndarray,
    fs: float,
    cfg: PipelineConfig,
    bands: tuple[BandSpec, ...],
    diagnostics: FitDiagnostics | None,
) -> np.ndarray:
    """The six MVAR measures of sub-windows (T, n, C), band-averaged: (6, T, C, C, B).

    With AIC each sub-window picks its order; sub-windows of one order are
    fitted and decomposed as one stack.
    """
    if cfg.aic:
        orders = [select_order(sub, cfg.aic_max, cfg.ridge) for sub in subs]
    else:
        orders = [cfg.order] * len(subs)
    c = subs.shape[-1]
    planes = np.empty((len(FEATURE_ORDER) - 1, len(subs), c, c, len(bands)))
    for p in dict.fromkeys(orders):
        idx = [t for t, q in enumerate(orders) if q == p]
        model = fit_mvar(subs[idx], p, fs, cfg.ridge)
        if diagnostics is not None and not is_stable(model):
            diagnostics.unstable_fits += int(np.count_nonzero(companion_radius(model.A) >= 1.0))
        sd = spectral_decomposition(model, cfg.n_freqs, diagnostics)
        for k, (name, vals) in enumerate(_spectral_measures(sd, model.Sigma).items()):
            planes[k, idx] = np.moveaxis(band_aggregate(vals, bands, sd.freqs, name), -3, -1)
    return planes


def build_feature_tensor(
    window: LabeledWindow,
    cfg: PipelineConfig = PipelineConfig(),
    diagnostics: FitDiagnostics | None = None,
) -> WindowTensor:
    """Compute the full (7, T, C, C, B) tensor for one labeled window.

    The sub-windows are processed as stacks of at most ``_CHUNK_ELEMENTS``
    frequency-channel-pair cells. When a stack fails, its sub-windows are
    rerun one at a time (warnings and counters off) so that the error names
    the first failing sub-window and its own message.
    """
    t_sub = cfg.subwindows
    c = window.samples.shape[1]
    tensor = np.empty((len(FEATURE_ORDER), t_sub, c, c, len(cfg.bands)))
    chunk = max(1, _CHUNK_ELEMENTS // (cfg.n_freqs * c * c))

    def fail(context: str, exc: Exception) -> ValueError:
        return ValueError(f"window {window.source_id!r}, {context}: {exc}")

    def mvar_features(filter_band: BandSpec, bands: tuple[BandSpec, ...], out, context: str):
        filt = design_bandpass(filter_band, window.fs, cfg.filter_order)
        subs = np.stack(split_subwindows(filtfilt(filt, window.samples), t_sub))
        for start in range(0, t_sub, chunk):
            part = slice(start, min(start + chunk, t_sub))
            try:
                out[:, part] = _mvar_planes(subs[part], window.fs, cfg, bands, diagnostics)
            except ValueError as exc:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    for t in range(part.start, part.stop):
                        try:
                            _mvar_planes(subs[t : t + 1], window.fs, cfg, bands, None)
                        except ValueError as first:
                            raise fail(f"{context}sub-window {t}", first) from first
                raise fail(f"{context}sub-windows {part.start}-{part.stop - 1}", exc) from exc

    if cfg.mode == "broadband":
        mvar_features(cfg.broadband, cfg.bands, tensor[:-1], "")
    else:
        for b, band in enumerate(cfg.bands):
            mvar_features(band, (band,), tensor[:-1, ..., b : b + 1], f"band {band.name!r}, ")

    for b, band in enumerate(cfg.bands):
        try:
            tensor[-1, ..., b] = plv_matrix(window, band, t_sub, cfg.filter_order)
        except ValueError as exc:
            raise fail(f"band {band.name!r} PLV", exc) from exc

    if not np.isfinite(tensor).all():
        raise ValueError(f"window {window.source_id!r}: non-finite feature values")
    return WindowTensor(values=tensor, label=window.label, source_id=window.source_id)


@dataclass(frozen=True)
class NormStats:
    """Per-(feature, band) z-scoring statistics learned on training data."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, t: WindowTensor) -> WindowTensor:
        """Z-score; (feature, band) cells with zero spread pass through unchanged."""
        mean = self.mean[:, None, None, None, :]
        std = self.std[:, None, None, None, :]
        scaled = np.where(std > 0, (t.values - mean) / np.where(std > 0, std, 1.0), t.values)
        return WindowTensor(values=scaled, label=t.label, source_id=t.source_id)

    def apply_many(self, tensors) -> list[WindowTensor]:
        return [self.apply(t) for t in tensors]


def normalize_features(train: list[WindowTensor]) -> tuple[NormStats, list[WindowTensor]]:
    """Fit per-(feature, band) mean/std on training tensors and z-score them."""
    if not train:
        raise ValueError("cannot fit normalization on an empty training set")
    arr = np.stack([t.values for t in train])
    mean = arr.mean(axis=(0, 2, 3, 4))
    std = arr.std(axis=(0, 2, 3, 4))
    stats = NormStats(mean=mean, std=std)
    return stats, stats.apply_many(train)
