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

__all__ = [
    "BandSpec",
    "FilterSpec",
    "DEFAULT_BANDS",
    "BROADBAND",
    "design_bandpass",
    "filtfilt",
    "analytic_signal",
    "instantaneous_phase",
    "unit_phasor",
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
    single pass (2 * n_sections). ``zi`` (n_sections, 2) holds the initial
    conditions of a unit step response in steady state, from
    ``scipy.signal.sosfilt_zi``. Both arrays are read-only, because one
    designed filter is shared by every caller asking for the same band, rate
    and order.
    """

    sos: np.ndarray
    order: int
    band: BandSpec
    fs: float
    zi: np.ndarray

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
        Pass band (``0 < low_hz`` by construction); requires ``high_hz < fs / 2``.
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
    _check_filter_order(order)
    if band.high_hz >= fs / 2:
        raise ValueError(
            f"high_hz must be below the Nyquist frequency {fs / 2} Hz, got "
            f"{band.high_hz} in band {band.name!r}"
        )
    return _designed(band, float(fs), order)


def _check_filter_order(order: int) -> None:
    """The band-pass order rule of :func:`design_bandpass`: even and >= 2."""
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 2, got {order}")


@functools.cache
def _designed(band: BandSpec, fs: float, order: int) -> FilterSpec:
    """The validated design, made once per (band, fs, order) and then shared."""
    from scipy import signal  # imported on first use: it dominates the package import
    # at orders of several hundred butter's gain overflows (or it raises
    # OverflowError itself); the non-finite design is refused, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sos = signal.butter(order // 2, [band.low_hz, band.high_hz], btype="bandpass", fs=fs, output="sos")
    sos = np.asarray(sos, dtype=float)
    if not np.isfinite(sos).all():
        raise OverflowError("the design is not finite")
    zi = signal.sosfilt_zi(sos)
    sos.flags.writeable = zi.flags.writeable = False
    spec = FilterSpec(sos=sos, order=order, band=band, fs=fs, zi=zi)
    pole_radius = np.abs(spec.poles()).max()
    if pole_radius >= 1.0:
        raise ValueError(
            f"band {band.name!r}: designed filter is unstable "
            f"(pole radius {pole_radius:.6f})"
        )
    return spec


def _check_filter_length(n: int, order: int) -> int:
    """filtfilt's padding at ``order``; ValueError unless ``n`` samples exceed it."""
    padlen = 3 * order
    if n <= padlen:
        raise ValueError(
            f"signal too short for zero-phase filtering: {n} samples, "
            f"need more than {padlen}"
        )
    return padlen


def filtfilt(f: FilterSpec, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering: forward and backward pass with edge padding.

    ``x`` may be 1-D or 2-D (samples x channels); filtering runs along axis 0.
    Uses odd-reflection padding of ``3 * order`` samples, discarded after
    filtering, so the effective magnitude response is the squared single-pass
    response with zero net phase shift. Each pass starts from the filter's
    cached steady-state initial conditions scaled by its first sample; the
    result equals ``scipy.signal.sosfiltfilt(sos, x, axis=0, padtype="odd",
    padlen=3 * order)`` bit for bit.
    """
    from scipy import signal

    x = np.asarray(x, dtype=float)
    padlen = _check_filter_length(x.shape[0], f.order)
    ext = np.concatenate(
        (2 * x[:1] - x[padlen:0:-1], x, 2 * x[-1:] - x[-2 : -(padlen + 2) : -1])
    )
    zi = f.zi.reshape(f.zi.shape + (1,) * (x.ndim - 1))
    # scipy's compiled filter loop takes writable buffers only; sos is shared
    sos = f.sos.copy()
    y, _ = signal.sosfilt(sos, ext, axis=0, zi=zi * ext[:1])
    y, _ = signal.sosfilt(sos, y[::-1], axis=0, zi=zi * y[-1:])
    return y[::-1][padlen:-padlen]


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Complex analytic signal ``x + j H(x)`` from real FFTs.

    The real part is ``x`` itself, exactly. The Hilbert transform ``H(x)`` is the
    inverse real FFT of ``-j rfft(x)`` with the DC and Nyquist bins zeroed,
    which equals the imaginary part of the one-sided spectrum construction
    (negative bins zeroed, positive bins doubled). ``x`` is one signal (N,)
    or a samples-by-channels block (N, C) transformed along axis 0. The
    caller is expected to have removed the mean (band-pass output already
    has none).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected (N,) or (N, C) samples, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    spectrum = np.fft.rfft(x, axis=0)
    spectrum *= -1j
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = 0.0
    values = np.empty(x.shape, dtype=complex)
    values.real = x
    values.imag = np.fft.irfft(spectrum, n=n, axis=0)
    return values


def _magnitude(values: np.ndarray) -> np.ndarray:
    """``|values|``; a zero sample, whose phase is undefined, is an error."""
    magnitude = np.abs(values)
    if magnitude.min(initial=np.inf) > 0:
        return magnitude
    # search channel by channel, so the index is the first zero sample of
    # the first channel holding one
    zero = np.flatnonzero(np.moveaxis(magnitude == 0.0, 0, -1))
    if zero.size:
        raise ValueError(
            f"phase undefined: zero-magnitude analytic sample at index "
            f"{zero[0] % magnitude.shape[0]}"
        )
    return magnitude


def instantaneous_phase(a: np.ndarray) -> np.ndarray:
    """Per-sample phase of the complex analytic signal ``a``, in (-pi, pi]."""
    _magnitude(a)
    return np.angle(a)


def unit_phasor(a: np.ndarray) -> np.ndarray:
    """Per-sample unit phasor ``z / |z|`` of the analytic signal, equal to
    ``exp(j phase)`` up to rounding without computing the phase.

    It multiplies by ``1 / |z|``. numpy divides a complex by a real through
    that reciprocal, so the bytes are those of the division, which costs
    about twice as much.
    """
    return a * (1.0 / _magnitude(a))
