"""Recordings, seizure annotations, window extraction, and synthetic EEG.

A recording is a samples-by-channels array at a fixed rate. Annotated seizure
intervals are cut into non-overlapping 20 s windows; non-seizure windows are
drawn (seeded) from spans that keep a guard margin away from any seizure.
The synthetic generator produces two recording classes that differ only in
cross-channel coupling, which is what the connectivity features measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .mvar import companion_radius, simulate_var

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
    "generate_synthetic_batch",
    "train_test_split",
]

#: Analysis window length in seconds.
WINDOW_S = 20.0

_TOL_S = 1e-9


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
            raise ValueError("recording has no samples")
        if c < 2:
            raise ValueError(f"need at least 2 channels, got {c}")
        if self.fs <= 0:
            raise ValueError(f"sample rate must be positive, got {self.fs}")
        self.channel_names = tuple(self.channel_names)
        if len(self.channel_names) != c:
            raise ValueError(
                f"{len(self.channel_names)} channel names for {c} channels"
            )
        if len(set(self.channel_names)) != c:
            raise ValueError("channel names must be unique")
        bad = np.argwhere(~np.isfinite(self.samples))
        if bad.size:
            r, col = bad[0]
            raise ValueError(
                f"non-finite sample at row {r}, channel {self.channel_names[col]!r}"
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
class AnnotationSet:
    """Seizure intervals in seconds, sorted and non-overlapping."""

    intervals: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_intervals(cls, intervals) -> "AnnotationSet":
        """Validate, sort, and merge overlapping or touching intervals."""
        items = []
        for k, (start, end) in enumerate(intervals):
            start, end = float(start), float(end)
            if start < 0:
                raise ValueError(f"interval {k}: start {start} < 0")
            if end <= start:
                raise ValueError(f"interval {k}: end {end} <= start {start}")
            items.append((start, end))
        items.sort()
        merged: list[tuple[float, float]] = []
        for start, end in items:
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


def load_recording(path, fs: float, fmt: str = "csv") -> Recording:
    """Read a recording whose CSV header row holds the channel names."""
    if fmt != "csv":
        raise ValueError(f"unsupported recording format {fmt!r}")
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
    return Recording(
        samples=np.vstack(rows), fs=fs, channel_names=tuple(names), id=path.stem
    )


def save_recording(rec: Recording, path) -> None:
    """Write the CSV form read back by load_recording (full float precision)."""
    lines = [",".join(rec.channel_names)]
    for row in rec.samples:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def save_annotations(ann: AnnotationSet, path) -> None:
    doc = {"seizures": [{"start_s": s, "end_s": e} for s, e in ann.intervals]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_annotations(path) -> AnnotationSet:
    """Read ``{"seizures": [{"start_s": ..., "end_s": ...}, ...]}``."""
    path = Path(path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "seizures" not in doc:
        raise ValueError(f"{path}: missing top-level 'seizures' list")
    items = doc["seizures"]
    if not isinstance(items, list):
        raise ValueError(f"{path}: 'seizures' must be a list")
    intervals = []
    for k, item in enumerate(items):
        for key in ("start_s", "end_s"):
            if not isinstance(item, dict) or key not in item:
                raise ValueError(f"{path}: seizures[{k}] missing field {key!r}")
            if not isinstance(item[key], (int, float)):
                raise ValueError(f"{path}: seizures[{k}].{key} must be a number")
        intervals.append((item["start_s"], item["end_s"]))
    return AnnotationSet.from_intervals(intervals)


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


def split_subwindows(samples: np.ndarray, n_sub: int = 10) -> tuple[np.ndarray, ...]:
    """Split samples along axis 0 into ``n_sub`` equal consecutive pieces."""
    n = samples.shape[0]
    if n_sub < 1:
        raise ValueError(f"n_sub must be >= 1, got {n_sub}")
    if n % n_sub:
        raise ValueError(
            f"window of {n} samples does not divide into {n_sub} sub-windows"
        )
    step = n // n_sub
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
    per-channel power.
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
            raise ValueError(f"need at least 2 channels, got {self.n_channels}")
        if self.fs <= 0:
            raise ValueError(f"sample rate must be positive, got {self.fs}")
        if self.duration_s < WINDOW_S:
            raise ValueError(
                f"duration {self.duration_s} s shorter than one {WINDOW_S:.0f} s window"
            )
        if not 0 <= self.ar_pole_radius < 1:
            raise ValueError(
                f"ar_pole_radius must be in [0, 1), got {self.ar_pole_radius}"
            )
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")
        if self.ar_freq_hz < 0 or self.ar_freq_hz > self.fs / 2:
            raise ValueError(
                f"ar_freq_hz must lie in [0, fs/2], got {self.ar_freq_hz}"
            )


def _synth_coefficients(spec: SynthSpec, coupled: bool) -> np.ndarray:
    c = spec.n_channels
    a1 = 2.0 * spec.ar_pole_radius * np.cos(2.0 * np.pi * spec.ar_freq_hz / spec.fs)
    a2 = -spec.ar_pole_radius**2
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


def generate_synthetic(spec: SynthSpec) -> tuple[Recording, AnnotationSet]:
    """Simulate one recording; the coupled class is annotated end to end."""
    return next(generate_synthetic_batch([spec]))


def _simulate_class(specs: list[SynthSpec], coupled: bool) -> np.ndarray:
    """The specs' processes, all with coupled or all with uncoupled
    coefficients, in one VAR recursion over a leading axis: (R, n, C)."""
    c = specs[0].n_channels
    n = int(round(specs[0].duration_s * specs[0].fs))
    burn = 500
    e = np.empty((len(specs), n + burn, c))
    for row, spec in zip(e, specs):
        np.random.default_rng(spec.seed).standard_normal(out=row)
        row *= spec.noise_std
    a = np.stack([_synth_coefficients(spec, coupled) for spec in specs])
    return simulate_var(a, n, innovations=e, burn_in=burn)


def generate_synthetic_batch(specs):
    """Simulate recordings of one shape in at most two VAR recursions.

    Every spec must share ``n_channels``, ``fs`` and ``duration_s``. One
    recursion runs every process with uncoupled coefficients: the uncoupled
    specs and the uncoupled twin (same noise draws) of each power-matched
    coupled spec, which fixes that spec's channel scale. The other runs the
    coupled specs. Yields ``(recording, annotations)`` per spec, in order;
    each recording owns its samples and equals what simulating that spec
    alone gives, bit for bit.
    """
    specs = list(specs)
    if len({(s.n_channels, s.fs, s.duration_s) for s in specs}) > 1:
        raise ValueError("batched synthetic specs must share n_channels, fs and duration_s")
    for spec in specs:
        radius = synth_spectral_radius(spec)
        if radius >= 1.0:
            raise ValueError(
                f"synthetic process unstable (spectral radius {radius:.3f}); "
                f"reduce coupling_strength or ar_pole_radius"
            )
    coupled = [i for i, spec in enumerate(specs) if spec.kind == "coupled"]
    plain = [i for i, spec in enumerate(specs) if spec.kind == "uncoupled" or spec.match_power]
    samples, twin_std = {}, {}
    if plain:
        for i, y in zip(plain, _simulate_class([specs[i] for i in plain], coupled=False)):
            if specs[i].kind == "coupled":
                twin_std[i] = y.std(axis=0)
            else:
                samples[i] = y.copy()
        del y  # the last row would keep the whole stack alive
    if coupled:
        for i, y in zip(coupled, _simulate_class([specs[i] for i in coupled], coupled=True)):
            samples[i] = y * (twin_std[i] / y.std(axis=0)) if i in twin_std else y.copy()
        del y
    for i, spec in enumerate(specs):
        rec = Recording(
            samples=samples.pop(i),
            fs=spec.fs,
            channel_names=tuple(f"ch{k + 1:02d}" for k in range(spec.n_channels)),
            id=spec.rec_id or f"synth-{spec.kind}-s{spec.seed}",
        )
        intervals = [(0.0, rec.duration_s)] if spec.kind == "coupled" else []
        yield rec, AnnotationSet.from_intervals(intervals)


def train_test_split(ds, test_fraction: float = 0.15, seed: int = 0):
    """Stratified split of labeled items; per class, round(n * fraction) go to test."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    by_label: dict[int, list[int]] = {}
    for i, item in enumerate(ds):
        by_label.setdefault(item.label, []).append(i)
    if len(by_label) < 2:
        raise ValueError("need samples from both classes to split")
    for label, idxs in by_label.items():
        if len(idxs) < 2:
            raise ValueError(f"class {label} has only {len(idxs)} sample(s); need >= 2")
    rng = np.random.default_rng(seed)
    test_idx: set[int] = set()
    for label in sorted(by_label):
        idxs = by_label[label]
        n_test = int(round(len(idxs) * test_fraction))
        pick = rng.permutation(len(idxs))[:n_test]
        test_idx.update(idxs[i] for i in pick)
    train = [ds[i] for i in range(len(ds)) if i not in test_idx]
    test = [ds[i] for i in range(len(ds)) if i in test_idx]
    return train, test
