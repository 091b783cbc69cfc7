"""Rhythm band definitions, zero-phase Butterworth filtering, and analytic phase.

The five canonical rhythm bands are fixed as module constants; everything else
(band edges, filter order) stays configurable. Filtering is always zero-phase
(forward-backward) because downstream phase-synchrony estimates must not see
filter phase distortion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import signal as _sig

__all__ = [
    "BandSpec",
    "FilterSpec",
    "AnalyticSignal",
    "DEFAULT_BANDS",
    "BROADBAND",
    "design_bandpass",
    "filtfilt",
    "analytic_signal",
    "instantaneous_phase",
]


@dataclass(frozen=True)
class BandSpec:
    """A named frequency band, ``low_hz <= f < high_hz``."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self) -> None:
        if not (0 < self.low_hz < self.high_hz):
            raise ValueError(
                f"band {self.name!r}: need 0 < low < high, got "
                f"[{self.low_hz}, {self.high_hz})"
            )


#: Canonical EEG rhythm table. The gamma upper edge is capped at 45 Hz to stay
#: clear of mains interference and of the Nyquist limit at common EEG rates.
DEFAULT_BANDS: tuple[BandSpec, ...] = (
    BandSpec("delta", 2.0, 4.0),
    BandSpec("theta", 4.0, 8.0),
    BandSpec("alpha", 8.0, 13.0),
    BandSpec("beta", 13.0, 30.0),
    BandSpec("gamma", 30.0, 45.0),
)

#: Wide cleanup band applied before autoregressive fitting (removes drift and
#: out-of-band noise).
BROADBAND = BandSpec("broadband", 0.5, 45.0)


@dataclass(frozen=True)
class FilterSpec:
    """A designed band-pass filter as a cascade of second-order sections.

    ``sos`` has shape (n_sections, 6) in scipy convention
    ``[b0, b1, b2, 1, a1, a2]``. ``order`` is the digital band-pass order of a
    single pass (2 * n_sections). ``sos`` is read-only, because one designed
    filter is shared by every caller asking for the same band, rate and order.
    """

    sos: np.ndarray
    order: int
    band: BandSpec
    fs: float

    def poles(self) -> np.ndarray:
        """Poles of every section, concatenated."""
        return np.concatenate(
            [np.roots(section[3:]) for section in self.sos]
        )


def design_bandpass(band: BandSpec, fs: float, order: int = 4) -> FilterSpec:
    """Design a digital Butterworth band-pass filter for one rhythm band.

    Parameters
    ----------
    band : BandSpec
        Pass band; requires ``0 < low_hz < high_hz < fs / 2``.
    fs : float
        Sampling rate in Hz.
    order : int
        Band-pass order of a single pass. Must be even and >= 2; the analog
        prototype order is ``order / 2``.

    Returns
    -------
    FilterSpec
        Second-order sections obtained via the bilinear transform with
        frequency pre-warping (maximally flat pass band). Every section is
        verified stable at design time.
    """
    if fs <= 0:
        raise ValueError(f"sampling rate must be positive, got {fs}")
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 2, got {order}")
    if band.low_hz <= 0:
        raise ValueError(f"band {band.name!r}: low edge must be > 0 Hz")
    if band.high_hz >= fs / 2:
        raise ValueError(
            f"band {band.name!r}: high edge {band.high_hz} Hz must be below "
            f"the Nyquist frequency {fs / 2} Hz"
        )
    return _designed(band, float(fs), order)


@functools.cache
def _designed(band: BandSpec, fs: float, order: int) -> FilterSpec:
    """The validated design, made once per (band, fs, order) and then shared."""
    sos = np.asarray(
        _sig.butter(order // 2, [band.low_hz, band.high_hz], btype="bandpass", fs=fs, output="sos"),
        dtype=float,
    )
    sos.flags.writeable = False
    spec = FilterSpec(sos=sos, order=order, band=band, fs=fs)
    pole_radius = np.abs(spec.poles()).max()
    if pole_radius >= 1.0:
        raise ValueError(
            f"band {band.name!r}: designed filter is unstable "
            f"(pole radius {pole_radius:.6f})"
        )
    return spec


def filtfilt(f: FilterSpec, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering: forward and backward pass with edge padding.

    ``x`` may be 1-D or 2-D (samples x channels); filtering runs along axis 0.
    Uses odd-reflection padding of ``3 * order`` samples, discarded after
    filtering, so the effective magnitude response is the squared single-pass
    response with zero net phase shift.
    """
    x = np.asarray(x, dtype=float)
    padlen = 3 * f.order
    if x.shape[0] <= padlen:
        raise ValueError(
            f"signal too short for zero-phase filtering: {x.shape[0]} samples, "
            f"need more than {padlen}"
        )
    # scipy's compiled filter loop takes writable buffers only; sos is shared
    return _sig.sosfiltfilt(f.sos.copy(), x, axis=0, padtype="odd", padlen=padlen)


@dataclass
class AnalyticSignal:
    """Complex analytic signal; the real part equals the input exactly."""

    values: np.ndarray
    band: str | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)


def analytic_signal(x: np.ndarray, band: str | None = None) -> AnalyticSignal:
    """One-sided spectrum construction of the analytic signal.

    FFT the input, zero the negative-frequency bins, double the positive
    bins (DC and Nyquist stay unchanged), inverse FFT. ``x`` is one signal
    (N,) or a samples-by-channels block (N, C) transformed in one FFT along
    axis 0. The caller is expected to have removed the mean (band-pass
    output already has none).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected (N,) or (N, C) samples, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    spectrum = np.fft.fft(x, axis=0)
    gain = np.zeros(n)
    if n % 2 == 0:
        gain[0] = 1.0
        gain[n // 2] = 1.0
        gain[1 : n // 2] = 2.0
    else:
        gain[0] = 1.0
        gain[1 : (n + 1) // 2] = 2.0
    gain = gain.reshape((n,) + (1,) * (x.ndim - 1))
    return AnalyticSignal(values=np.fft.ifft(spectrum * gain, axis=0), band=band)


def instantaneous_phase(a: AnalyticSignal) -> np.ndarray:
    """Per-sample phase of the analytic signal, in (-pi, pi]."""
    magnitude = np.abs(a.values)
    # search channel by channel, so the index is the first zero sample of
    # the first channel holding one
    zero = np.flatnonzero(np.moveaxis(magnitude == 0.0, 0, -1))
    if zero.size:
        raise ValueError(
            f"phase undefined: zero-magnitude analytic sample at index "
            f"{zero[0] % magnitude.shape[0]}"
        )
    return np.angle(a.values)
