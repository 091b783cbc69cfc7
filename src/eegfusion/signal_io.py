"""Recordings, seizure annotations, window extraction, and synthetic EEG.

A recording is a samples-by-channels array at a fixed rate. Annotated seizure
intervals are cut into non-overlapping 20 s windows; non-seizure windows are
drawn (seeded) from spans that keep a guard margin away from any seizure.
The synthetic generator produces two recording classes that differ only in
cross-channel coupling, which is what the connectivity features measure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mvar import companion_radius
from .util import read_json, to_json

__all__ = [
    "WINDOW_S",
    "Recording",
    "AnnotationSet",
    "LabeledWindow",
    "SynthSpec",
    "load_recording",
    "load_annotations",
    "save_recording",
    "save_annotations",
    "synth_spectral_radius",
    "extract_labeled_windows",
    "has_nonseizure_span",
    "split_subwindows",
    "generate_synthetic",
    "train_test_split",
]

#: Analysis window length in seconds.
WINDOW_S = 20.0

_TOL_S = 1e-9
#: Samples per call of a coupled recording's mode filter (64 KiB of complex
#: output per call). Carrying the filter state from block to block gives the
#: bytes of one call over the whole series.
_MODE_BLOCK = 4096


@dataclass
class Recording:
    """Multichannel signal: ``samples`` is (n_samples, n_channels) float64."""

    samples: np.ndarray
    fs: float
    channel_names: tuple[str, ...]
    id: str

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {self.samples.shape}")
        n, c = self.samples.shape
        if n < 1:
            raise ValueError(
                f"samples must hold at least one row, got shape {self.samples.shape}"
            )
        if c < 2:
            raise ValueError(f"n_channels must be >= 2, got {c}")
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        self.channel_names = tuple(self.channel_names)
        if len(self.channel_names) != c:
            raise ValueError(
                f"channel_names must name {c} channels, got {len(self.channel_names)}"
            )
        if len(set(self.channel_names)) != c:
            raise ValueError("channel_names must be unique")
        bad = np.argwhere(~np.isfinite(self.samples))
        if bad.size:
            r, col = bad[0]
            raise ValueError(
                f"samples must be finite, got {self.samples[r, col]} at row {r}, "
                f"channel {self.channel_names[col]!r}"
            )

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs


@dataclass(frozen=True)
class Seizure:
    """One annotated seizure interval, in seconds from the recording's start."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise ValueError(f"end_s must be > start_s {self.start_s}, got {self.end_s}")


@dataclass(frozen=True)
class AnnotationFile:
    """An annotations file: ``{"seizures": [{"start_s": ..., "end_s": ...}, ...]}``."""

    seizures: tuple[Seizure, ...]


@dataclass(frozen=True)
class AnnotationSet:
    """Seizure intervals in seconds, sorted and non-overlapping."""

    intervals: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_intervals(cls, intervals) -> "AnnotationSet":
        """Validate (as :class:`Seizure`), sort, and merge overlapping or touching intervals."""
        seizures = [Seizure(float(start), float(end)) for start, end in intervals]
        merged: list[tuple[float, float]] = []
        for start, end in sorted((s.start_s, s.end_s) for s in seizures):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return cls(intervals=tuple(merged))

    def validate_for(self, rec: Recording) -> None:
        if self.intervals and self.intervals[-1][1] > rec.duration_s + _TOL_S:
            raise ValueError(
                f"interval ending at {self.intervals[-1][1]} s exceeds "
                f"recording duration {rec.duration_s:.3f} s"
            )


@dataclass
class LabeledWindow:
    """One 20 s analysis window; label 1 = seizure, 0 = non-seizure."""

    samples: np.ndarray
    label: int
    source_id: str
    offset_s: float
    fs: float


def load_recording(path, fs: float) -> Recording:
    """Read a recording whose CSV header row holds the channel names."""
    path = Path(path)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    names = [n.strip() for n in lines[0].split(",")]
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(
                f"{path}: line {i} has {len(cells)} values, expected {len(names)}"
            )
        row = np.empty(len(cells))
        for j, cell in enumerate(cells):
            try:
                row[j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: line {i}, channel {names[j]!r}: "
                    f"cannot parse {cell.strip()!r}"
                ) from None
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    try:
        return Recording(samples=np.vstack(rows), fs=fs, channel_names=tuple(names), id=path.stem)
    except ValueError as exc:  # Recording's own checks
        raise ValueError(f"{path}: {exc}") from exc


def save_recording(rec: Recording, path) -> None:
    """Write the CSV form read back by load_recording (full float precision)."""
    lines = [",".join(rec.channel_names)]
    for row in rec.samples:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def save_annotations(ann: AnnotationSet, path) -> None:
    doc = to_json(AnnotationFile(tuple(Seizure(s, e) for s, e in ann.intervals)))
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_annotations(path, duration_s: float = math.inf) -> AnnotationSet:
    """Read an :class:`AnnotationFile` for a recording of ``duration_s``
    seconds; a malformed file, or a seizure that ends past the recording,
    is an error naming the file and the field."""
    seizures = read_json(AnnotationFile, path).seizures
    for k, s in enumerate(seizures):
        if s.end_s > duration_s + _TOL_S:
            raise ValueError(
                f"{path}: seizures[{k}].end_s: must be <= the recording's {duration_s:g} s, "
                f"got {s.end_s}"
            )
    return AnnotationSet.from_intervals((s.start_s, s.end_s) for s in seizures)


def _window(rec: Recording, offset_s: float, label: int, w_len: int) -> LabeledWindow:
    idx = int(round(offset_s * rec.fs))
    idx = min(max(idx, 0), rec.n_samples - w_len)
    return LabeledWindow(
        samples=rec.samples[idx : idx + w_len].copy(),
        label=label,
        source_id=f"{rec.id}@{offset_s:.2f}s",
        offset_s=offset_s,
        fs=rec.fs,
    )


def _free_start_ranges(
    rec: Recording, ann: AnnotationSet, guard_s: float
) -> list[tuple[float, float]]:
    """Ranges of valid non-seizure window start offsets, guard margin applied."""
    padded = AnnotationSet.from_intervals(
        [
            (max(0.0, s - guard_s), min(rec.duration_s, e + guard_s))
            for s, e in ann.intervals
        ]
    ).intervals
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for s, e in padded:
        if s > cursor:
            gaps.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < rec.duration_s:
        gaps.append((cursor, rec.duration_s))
    return [(lo, hi - WINDOW_S) for lo, hi in gaps if hi - lo >= WINDOW_S - _TOL_S]


def has_nonseizure_span(rec: Recording, ann: AnnotationSet, guard_s: float = 60.0) -> bool:
    """True when at least one guarded seizure-free span can hold a window."""
    return bool(_free_start_ranges(rec, ann, guard_s))


def extract_labeled_windows(
    rec: Recording,
    ann: AnnotationSet,
    n_nonseizure: int = 4,
    seed: int = 0,
    guard_s: float = 60.0,
) -> list[LabeledWindow]:
    """Cut seizure intervals into 20 s windows and sample non-seizure ones.

    Each seizure interval of duration d yields floor(d / 20) windows from its
    start plus, when d is not a multiple of 20, one trailing window covering
    the final 20 s; intervals shorter than 20 s are skipped. Non-seizure
    window starts are drawn uniformly (seeded) from the spans lying at least
    ``guard_s`` away from every seizure interval.
    """
    if n_nonseizure < 0:
        raise ValueError(f"n_nonseizure must be >= 0, got {n_nonseizure}")
    w_len = int(round(WINDOW_S * rec.fs))
    if rec.n_samples < w_len:
        raise ValueError(
            f"recording {rec.id!r} shorter than one {WINDOW_S:.0f} s window"
        )
    ann.validate_for(rec)

    windows: list[LabeledWindow] = []
    for start, end in ann.intervals:
        d = end - start
        if d < WINDOW_S - _TOL_S:
            continue
        k = int((d + _TOL_S) // WINDOW_S)
        offsets = [start + WINDOW_S * i for i in range(k)]
        if d - WINDOW_S * k > _TOL_S:
            offsets.append(end - WINDOW_S)
        for off in offsets:
            windows.append(_window(rec, off, 1, w_len))

    if n_nonseizure > 0:
        starts = _free_start_ranges(rec, ann, guard_s)
        if not starts:
            raise ValueError(
                f"recording {rec.id!r}: no seizure-free span of at least "
                f"{WINDOW_S:.0f} s outside the {guard_s:.0f} s guard margin"
            )
        lengths = np.array([hi - lo for lo, hi in starts])
        total = float(lengths.sum())
        rng = np.random.default_rng(seed)
        for _ in range(n_nonseizure):
            if total > 0:
                u = rng.uniform(0.0, total)
                for (lo, _hi), span in zip(starts, lengths):
                    if u <= span:
                        off = lo + u
                        break
                    u -= span
                else:
                    off = starts[-1][1]
            else:
                off = starts[int(rng.integers(len(starts)))][0]
            windows.append(_window(rec, off, 0, w_len))
    return windows


def _subwindow_length(n: int, n_sub: int) -> int:
    """Samples per sub-window of an n-sample window cut into ``n_sub`` equal parts."""
    if n_sub < 1:
        raise ValueError(f"n_sub must be >= 1, got {n_sub}")
    if n % n_sub:
        raise ValueError(
            f"window of {n} samples does not divide into {n_sub} sub-windows"
        )
    return n // n_sub


def split_subwindows(samples: np.ndarray, n_sub: int = 10) -> tuple[np.ndarray, ...]:
    """Split samples along axis 0 into ``n_sub`` equal consecutive pieces."""
    step = _subwindow_length(samples.shape[0], n_sub)
    return tuple(samples[t * step : (t + 1) * step] for t in range(n_sub))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic recording.

    Each channel is a resonant AR(2) process (pole radius ``ar_pole_radius``
    at ``ar_freq_hz``; radius 0 gives white noise). The coupled class adds
    lag-1 ring coupling of the given strength: channel i additionally receives
    channel i-1 (mod C). With ``match_power`` the coupled channels are
    rescaled to the standard deviation an uncoupled twin (same noise draws)
    would have, so the two classes differ only in coupling structure, not in
    per-channel power. The process is the VAR(2) of ``synth_spectral_radius``;
    :func:`generate_synthetic` runs it as recursive filters, which match
    ``mvar.simulate_var`` on the same noise draws up to rounding.
    """

    kind: str
    n_channels: int = 4
    fs: float = 128.0
    duration_s: float = 200.0
    coupling_strength: float = 0.0
    seed: int = 0
    ar_pole_radius: float = 0.8
    ar_freq_hz: float = 12.0
    noise_std: float = 1.0
    match_power: bool = True
    rec_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("coupled", "uncoupled"):
            raise ValueError(f"kind must be 'coupled' or 'uncoupled', got {self.kind!r}")
        if self.n_channels < 2:
            raise ValueError(f"n_channels must be >= 2, got {self.n_channels}")
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.duration_s < WINDOW_S:
            raise ValueError(
                f"duration_s must be >= {WINDOW_S:g} (one window), got {self.duration_s}"
            )
        if not 0 <= self.ar_pole_radius < 1:
            raise ValueError(
                f"ar_pole_radius must be in [0, 1), got {self.ar_pole_radius}"
            )
        # measured: the features (~noise_std**4 and its inverse) leave the floats near 1e+-75
        if not 1e-50 <= self.noise_std <= 1e50:
            raise ValueError(f"noise_std must lie in [1e-50, 1e+50], got {self.noise_std}")
        if not 0 < self.ar_freq_hz < self.fs / 2:
            raise ValueError(
                f"ar_freq_hz must lie in (0, fs/2), got {self.ar_freq_hz}"
            )
        if self.coupling_strength < 0:
            raise ValueError(
                f"coupling_strength must be >= 0, got {self.coupling_strength}"
            )


def _ar2(spec: SynthSpec) -> tuple[float, float]:
    """Lag-1 and lag-2 coefficients of each channel's resonant AR(2) process."""
    a1 = 2.0 * spec.ar_pole_radius * np.cos(2.0 * np.pi * spec.ar_freq_hz / spec.fs)
    return a1, -spec.ar_pole_radius**2


def _synth_coefficients(spec: SynthSpec, coupled: bool) -> np.ndarray:
    c = spec.n_channels
    a1, a2 = _ar2(spec)
    a = np.zeros((2, c, c))
    a[0] = a1 * np.eye(c)
    a[1] = a2 * np.eye(c)
    if coupled:
        ring = np.zeros((c, c))
        for i in range(c):
            ring[i, (i - 1) % c] = 1.0
        a[0] += spec.coupling_strength * ring
    return a


def synth_spectral_radius(spec: SynthSpec) -> float:
    """Companion spectral radius of the coupled coefficient stack (< 1 means stable)."""
    return float(companion_radius(_synth_coefficients(spec, spec.kind == "coupled")))


def _check_stable(spec: SynthSpec) -> None:
    """ValueError unless ``spec``'s process is stable (spectral radius < 1)."""
    radius = synth_spectral_radius(spec)
    if radius >= 1.0:
        raise ValueError(
            f"coupling_strength makes the process unstable (spectral radius "
            f"{radius:.3f}); reduce coupling_strength or ar_pole_radius"
        )


def _innovations(spec: SynthSpec, n_rows: int) -> np.ndarray:
    e = np.empty((n_rows, spec.n_channels))
    np.random.default_rng(spec.seed).standard_normal(out=e)
    e *= spec.noise_std
    return e


def _mean_std_in_place(y: np.ndarray, axis=0) -> tuple[np.ndarray, np.ndarray]:
    """``y.mean(axis)`` and ``y.std(axis)`` bit for bit: the operations of
    numpy's own, computed in y's buffer, which they overwrite."""
    mean = y.sum(axis=axis, keepdims=True)
    n = y.size // mean.size
    mean /= n
    y -= mean
    np.square(y, out=y)
    var = y.sum(axis=axis)
    var /= n
    return mean.reshape(var.shape), np.sqrt(var, out=var)


def generate_synthetic(spec: SynthSpec) -> tuple[Recording, AnnotationSet]:
    """Simulate one recording; the coupled class is annotated end to end.

    The process starts from rest and its first 500 samples are dropped. An
    uncoupled process is one real AR(2) filter over all channels. The ring
    coupling matrix is circulant, so the DFT over channels turns a coupled
    process into C//2 + 1 independent scalar recursions, one per mode k,
    with the complex lag-1 coefficient ``a1 + g exp(-2 pi i k / C)``; each
    runs as a filter, in blocks of ``_MODE_BLOCK`` samples that carry the
    filter state, so no full-length mode is allocated beside the modes; an
    inverse real DFT brings the channels back into the innovations' buffer.
    A power-matched twin is the uncoupled filter run on the same
    innovations; its standard deviation is taken in its own buffer, which is
    then dropped, and the coupled samples are scaled in place.
    """
    from scipy.signal import lfilter  # imported on first use, as in dsp

    _check_stable(spec)
    burn = 500
    e = _innovations(spec, int(round(spec.duration_s * spec.fs)) + burn)
    a1, a2 = _ar2(spec)
    uncoupled = [1.0, -a1, -a2]
    if spec.kind == "uncoupled" or spec.coupling_strength == 0.0:
        y = lfilter([1.0], uncoupled, e, axis=0)
    else:
        if spec.match_power:
            _, twin_std = _mean_std_in_place(lfilter([1.0], uncoupled, e, axis=0)[burn:])
        modes = np.fft.rfft(e, axis=1)
        shift = np.exp(-2j * np.pi * np.arange(modes.shape[1]) / spec.n_channels)
        for k, lag1 in enumerate(a1 + spec.coupling_strength * shift):
            den, state = [1.0, -lag1, -a2], np.zeros(2, dtype=complex)  # at rest
            for i in range(0, len(modes), _MODE_BLOCK):
                rows = slice(i, i + _MODE_BLOCK)  # no named view: `del modes` frees it
                modes[rows, k], state = lfilter([1.0], den, modes[rows, k], zi=state)
        # the recording reuses the innovations' buffer: a fresh one, placed
        # past the freed twin, fragments the heap (peak RSS +2% when two
        # clinical-size recordings are made in turn)
        y = np.fft.irfft(modes, n=spec.n_channels, axis=1, out=e)
        del modes
        if spec.match_power:
            y[burn:] *= twin_std / y[burn:].std(axis=0)
    rec = Recording(
        samples=y[burn:],
        fs=spec.fs,
        channel_names=tuple(f"ch{k + 1:02d}" for k in range(spec.n_channels)),
        id=spec.rec_id or f"synth-{spec.kind}-s{spec.seed}",
    )
    intervals = [(0.0, rec.duration_s)] if spec.kind == "coupled" else []
    return rec, AnnotationSet.from_intervals(intervals)


def _check_test_fraction(test_fraction: float) -> None:
    """ValueError unless 0 < test_fraction < 1."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")


def _test_count(n: int, test_fraction: float) -> int:
    """Windows of an n-window class that go to test, round(n * test_fraction);
    ValueError unless both sides keep at least one."""
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(f"a class of {n} windows split at {test_fraction} leaves a side empty")
    return n_test


def train_test_split(ds, test_fraction: float = 0.15, seed: int = 0):
    """Stratified split of labeled items; per class, round(n * fraction) go to test."""
    _check_test_fraction(test_fraction)
    by_label: dict[int, list[int]] = {}
    for i, item in enumerate(ds):
        by_label.setdefault(item.label, []).append(i)
    if len(by_label) < 2:
        raise ValueError("need samples from both classes to split")
    rng = np.random.default_rng(seed)
    test_idx: set[int] = set()
    for label in sorted(by_label):
        idxs = by_label[label]
        pick = rng.permutation(len(idxs))[: _test_count(len(idxs), test_fraction)]
        test_idx.update(idxs[i] for i in pick)
    train = [ds[i] for i in range(len(ds)) if i not in test_idx]
    test = [ds[i] for i in range(len(ds)) if i in test_idx]
    return train, test
