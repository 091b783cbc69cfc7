"""Config-driven end-to-end runs: synth -> extract -> train -> eval -> explain.

A run is described by a :class:`RunConfig` (usually parsed from a JSON file),
validated up front against every stage's preconditions, executed with fixed
seeds and fixed evaluation order, and summarized by a :class:`RunManifest`
written atomically as the last artifact. Rerunning the same config and seed
reproduces every output bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .connectivity import (
    PipelineConfig,
    WindowTensor,
    _band_bins,
    build_feature_tensors,
    normalize_features,
    window_chunks,
)
from .dataset import dataset_manifest, read_dataset, split_dataset, write_dataset
from .dsp import BandSpec, _check_filter_length, _check_filter_order, design_bandpass
from .model import (
    THRESHOLD,
    ArchConfig,
    ModelConfig,
    TrainConfig,
    build_fusion_model,
    evaluate,
    load_model,
    save_model,
    train,
)
from .mvar import FitDiagnostics, _check_order, frequency_grid
from .plotting import write_svg
from .relevance import RelevanceReport, relevance_report, write_report_csv, write_report_json
from .signal_io import (
    WINDOW_S,
    LabeledWindow,
    SynthSpec,
    _check_stable,
    _check_test_fraction,
    _subwindow_length,
    _test_count,
    extract_labeled_windows,
    generate_synthetic,
    has_nonseizure_span,
)
from .util import ConfigError, atomic_write_text, config_hash, field_errors, to_json
from .util import _openblas_thread_calls

__all__ = [
    "ConfigError",
    "SynthStudyConfig",
    "SplitConfig",
    "RunConfig",
    "RunManifest",
    "validate_pipeline",
    "validate_run_config",
    "derive_seed",
    "study_recordings",
    "cut_windows",
    "study_windows",
    "stream_tensors",
    "extract_tensors",
    "train_dataset",
    "evaluate_stored",
    "explain_stored",
    "pipeline_run",
]


@dataclass(frozen=True)
class SynthStudyConfig:
    """Shape of the synthetic two-class study: how many recordings of each
    class to simulate and how many 20 s windows to keep per recording. The
    recording fields take a coupled ``SynthSpec``'s ranges and stability check."""

    n_per_class: int = 10
    windows_per_recording: int = 10
    n_channels: int = 4
    fs: float = 128.0
    duration_s: float = 220.0
    coupling_strength: float = 0.15
    match_power: bool = True
    ar_pole_radius: float = 0.8
    ar_freq_hz: float = 12.0
    noise_std: float = 1.0
    guard_s: float = 60.0

    def __post_init__(self) -> None:
        for name in ("n_per_class", "windows_per_recording"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # bounds on work (README), checked before the stability check's 2C x 2C matrix
        for name, top in (("n_channels", 256), ("duration_s", 3600.0)):
            if getattr(self, name) > top:
                raise ValueError(f"{name} must be <= {top:g}, got {getattr(self, name)}")
        _check_stable(_synth_spec(self, "coupled"))
        if self.guard_s < 0:
            raise ValueError(f"guard_s must be >= 0, got {self.guard_s}")
        max_windows = int(self.duration_s // WINDOW_S)
        if max_windows < self.windows_per_recording:
            raise ValueError(
                f"windows_per_recording must be <= {max_windows}, the {WINDOW_S:.0f} s "
                f"windows a {self.duration_s} s recording holds, got {self.windows_per_recording}"
            )


@dataclass(frozen=True)
class SplitConfig:
    """The stratified train/test split (:func:`signal_io.train_test_split`)."""

    test_fraction: float = 0.15

    def __post_init__(self) -> None:
        _check_test_fraction(self.test_fraction)


@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs; validated before any work starts."""

    out_dir: str = "run"
    seed: int = 0
    synth: SynthStudyConfig = field(default_factory=SynthStudyConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    model: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitConfig = field(default_factory=SplitConfig)

    def __post_init__(self) -> None:
        if isinstance(self.model, ModelConfig):  # train_dataset would drop its dims
            raise ConfigError("model", "takes an ArchConfig: the model dims come from the dataset")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def test_fraction(self) -> float:
        # read by perfbench/workloads.py (fusion_train): the benchmark's code
        # stays the same across the revisions it compares
        return self.split.test_fraction


def _synth_spec(s: SynthStudyConfig, kind: str, **extra) -> SynthSpec:
    """A ``kind`` recording of the study: every field that
    :class:`SynthStudyConfig` shares with :class:`SynthSpec`, then ``extra``."""
    shared = {f.name: getattr(s, f.name) for f in fields(SynthSpec) if hasattr(s, f.name)}
    return SynthSpec(kind=kind, **{**shared, **extra})


def _check_design(band, fs: float, filter_order: int, path: str) -> None:
    """Design ``band``'s filter; a refused band names ``path`` or its field,
    and a design that overflows (orders of several hundred) names the order."""
    try:
        with field_errors(path, BandSpec):
            design_bandpass(band, fs, filter_order)
    except OverflowError as exc:
        raise ConfigError(
            "pipeline.filter_order", f"band {band.name!r}: the design overflows ({exc})"
        ) from exc


def validate_pipeline(p: PipelineConfig, fs: float, n_channels: int) -> None:
    """Check the pipeline against recordings of rate ``fs`` with ``n_channels``
    channels, before any window is extracted, with the checks the stages run."""
    with field_errors("pipeline.filter_order"):
        _check_filter_order(p.filter_order)
    freqs = frequency_grid(fs, p.n_freqs)
    for i, band in enumerate(p.bands):
        _check_design(band, fs, p.filter_order, f"pipeline.bands[{i}]")
        with field_errors(f"pipeline.bands[{i}]"):
            _band_bins(freqs, band)
    _check_design(p.broadband, fs, p.filter_order, "pipeline.broadband")

    n_window = int(round(WINDOW_S * fs))
    try:  # filtfilt runs on whole windows, never on sub-windows
        _check_filter_length(n_window, p.filter_order)
    except ValueError as exc:
        raise ConfigError("pipeline.filter_order", f"{n_window}-sample windows: {exc}") from exc
    with field_errors("pipeline.subwindows"):
        sub_len = _subwindow_length(n_window, p.subwindows)
    # the fit's own sample bound, so that no order passing here fails there
    field, order_cap = ("pipeline.aic_max", p.aic_max) if p.aic else ("pipeline.order", p.order)
    try:
        _check_order(sub_len, n_channels, order_cap)
    except ValueError as exc:
        raise ConfigError(
            field, f"{sub_len}-sample sub-windows of {n_channels} channels: {exc}"
        ) from exc


def validate_run_config(cfg: RunConfig) -> None:
    """Check the rules that span sections before any work starts; each
    section has checked itself at construction.

    Raises :class:`ConfigError` naming the offending field. A passing config
    reaches training without input-shape errors: the model dims come from the data.
    """
    s = cfg.synth
    validate_pipeline(cfg.pipeline, s.fs, s.n_channels)
    n_class = s.n_per_class * s.windows_per_recording
    with field_errors("split.test_fraction"):
        n_test = _test_count(n_class, cfg.split.test_fraction)
    n_train = 2 * (n_class - n_test)
    if cfg.train.batch_size > n_train:
        raise ConfigError(
            "train.batch_size",
            f"batch_size {cfg.train.batch_size} exceeds the {n_train}-window training set",
        )


def derive_seed(base: int, *branch: int) -> int:
    """Stable per-task seed from a base seed and integer branch indices."""
    return int(np.random.SeedSequence([base, *branch]).generate_state(1)[0])


def study_recordings(cfg: RunConfig):
    """Simulate the study's recordings: every uncoupled one, then every
    coupled one, each yielded as ``(kind, recording, annotations)``.

    Each recording is simulated only when the caller asks for it."""
    s = cfg.synth
    for class_idx, kind in enumerate(("uncoupled", "coupled")):
        for i in range(s.n_per_class):
            spec = _synth_spec(
                s,
                kind,
                coupling_strength=s.coupling_strength if kind == "coupled" else 0.0,
                seed=derive_seed(cfg.seed, class_idx, i),
                rec_id=f"{kind}-{i:02d}",
            )
            yield (kind, *generate_synthetic(spec))


def cut_windows(recordings, cfg: RunConfig) -> Iterator[LabeledWindow]:
    """Cut labeled windows from ``(recording, annotations)`` pairs, in order,
    yielding each recording's windows before the next recording is taken.

    Each recording gives its first ``windows_per_recording`` seizure slices
    plus, when it has a guarded seizure-free span, ``windows_per_recording``
    non-seizure draws seeded by the recording's position i in the sequence.
    """
    s = cfg.synth
    for i, (rec, ann) in enumerate(recordings):
        n_free = s.windows_per_recording if has_nonseizure_span(rec, ann, s.guard_s) else 0
        ws = extract_labeled_windows(
            rec, ann, n_free, seed=derive_seed(cfg.seed, 0, i, 1), guard_s=s.guard_s
        )
        yield from [w for w in ws if w.label == 1][: s.windows_per_recording]
        yield from (w for w in ws if w.label == 0)


def _study_stream(cfg: RunConfig) -> Iterator[LabeledWindow]:
    return cut_windows(((rec, ann) for _, rec, ann in study_recordings(cfg)), cfg)


def study_windows(cfg: RunConfig) -> list[LabeledWindow]:
    """Simulate the study's recordings and cut their windows (:func:`cut_windows`).

    Coupled recordings are annotated end to end and give seizure slices;
    uncoupled ones, which come first, give non-seizure draws.
    """
    return list(_study_stream(cfg))


def stream_tensors(
    windows, pcfg: PipelineConfig, diagnostics: FitDiagnostics | None = None
) -> Iterator[WindowTensor]:
    """Feature tensors for every window, in input order, yielded chunk by chunk.

    Windows are extracted in chunks (:func:`window_chunks`); a chunk is cut
    from ``windows`` only when the last one's tensors have been taken, so a
    lazy ``windows`` is held one chunk at a time. Each chunk's fit health is
    counted into ``diagnostics`` when one is given.
    """
    for chunk in window_chunks(windows):
        tensors = build_feature_tensors(chunk, pcfg, diagnostics)
        del chunk  # the chunk's windows are not held while its tensors are taken
        yield from tensors


def extract_tensors(
    windows, pcfg: PipelineConfig, diagnostics: FitDiagnostics | None = None
) -> list[WindowTensor]:
    """Feature tensors for every window, in input order (:func:`stream_tensors`)."""
    return list(stream_tensors(windows, pcfg, diagnostics))


def _split(dataset, tensors, manifest) -> tuple[list, list]:
    """The stored split's (train, test) sides; a split record that leaves a
    side empty is an error naming the manifest and its ``split`` field."""
    try:
        return split_dataset(tensors, manifest)
    except ValueError as exc:
        raise ValueError(f"{dataset_manifest(dataset)}: split: {exc}") from None


def train_dataset(cfg: RunConfig, dataset, model_path, history_path) -> list[dict]:
    """Fit the ``cfg.model`` architecture, with the dims of the manifest's
    shape, on the training side of a stored dataset. Writes the model file,
    with the training side's norm stats, and the per-epoch history; returns it."""
    tensors, manifest = read_dataset(dataset)
    train_ds, _ = _split(dataset, tensors, manifest)
    stats, normed = normalize_features(train_ds)
    del tensors, train_ds  # training holds the z-scored side only
    f, t, c, _, b = manifest.shape
    mcfg = ModelConfig(**vars(cfg.model), n_features=f, subwindows=t, n_channels=c, n_bands=b)
    model, history = train(build_fusion_model(mcfg), normed, cfg.train)
    save_model(model, model_path, stats)
    atomic_write_text(history_path, json.dumps(history, indent=2) + "\n")
    return history


def _stored(model_path, dataset):
    """A model file, and a dataset z-scored with the model's norm stats in
    the array it was read into, so one copy of the dataset is held. A model
    whose input shape is not the dataset's names the model file."""
    model, stats = load_model(model_path)
    tensors, manifest = read_dataset(dataset)
    if model.cfg.tensor_shape != manifest.shape:
        raise ValueError(
            f"{model_path}: model_config: reads tensors of shape {list(model.cfg.tensor_shape)}, "
            f"the dataset holds {list(manifest.shape)}"
        )
    if stats is not None:
        with np.errstate(over="ignore"):
            for t in tensors:
                t.values[...] = stats.apply(t).values
        if not all(np.isfinite(t.values).all() for t in tensors):
            raise ValueError(
                f"{model_path}: norm_stats: z-score the dataset past the float32 range"
            )
    return model, tensors, manifest


def _metrics(dataset, model, tensors, manifest) -> dict:
    train_ds, test_ds = _split(dataset, tensors, manifest)
    return {
        "train": evaluate(model, train_ds).to_dict(),
        "test": evaluate(model, test_ds).to_dict(),
        "threshold": THRESHOLD,
    }


def evaluate_stored(model_path, dataset) -> dict:
    """The metrics document ``{train, test, threshold}`` of a stored model."""
    return _metrics(dataset, *_stored(model_path, dataset))


def explain_stored(model_path, dataset, config_hash: str | None = None) -> RelevanceReport:
    """Relevance report of a stored model over every stored window, in order."""
    model, tensors, _ = _stored(model_path, dataset)
    return relevance_report(model, tensors, config_hash)


@dataclass
class RunManifest:
    """Inventory and provenance of one run; written atomically at run end."""

    config_hash: str
    seed: int
    versions: dict
    #: the BLAS thread variables, each as set or None, ``os.cpu_count()``, and
    #: ``pinned``: whether feature extraction ran with one OpenBLAS thread
    threads: dict
    warnings: dict
    timing_s: dict
    files: list[str]
    config: dict
    metrics: dict | None = None

    def to_dict(self) -> dict:
        return to_json(self)

    def write(self, path) -> None:
        path = Path(path)
        for name in self.files:
            if not (path.parent / name).exists():
                raise RuntimeError(f"manifest lists missing file: {name}")
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eegfusion": __version__,
    }


def _threads() -> dict:
    """The BLAS thread settings; ``pinned`` says whether feature extraction
    ran with one OpenBLAS thread (:func:`util.one_blas_thread`). Only where
    it is false do the bytes of C=19 features depend on the variables."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {n: os.environ.get(n) for n in names}
    return {**env, "cpu_count": os.cpu_count(), "pinned": bool(_openblas_thread_calls())}


class _StageFailed(RuntimeError):
    """A stage of a run failed; the message leads with ``stage '<name>' failed``."""


class _StageClock:
    """Each stage's own accumulated seconds, where stages interleave: time a
    stage spends waiting on the stage it pulls items from is charged to that one."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._name: str | None = None
        self._t0 = time.perf_counter()

    def _switch(self, name: str | None) -> None:
        now = time.perf_counter()
        if self._name is not None:
            self.seconds[self._name] = self.seconds.get(self._name, 0.0) + now - self._t0
        self._name, self._t0 = name, now

    @contextlib.contextmanager
    def stage(self, name: str):
        """Charge the block's time to ``name``, and prefix its failure with the name."""
        outer = self._name
        self._switch(name)
        try:
            yield
        except (ConfigError, _StageFailed):
            raise
        except Exception as exc:
            raise _StageFailed(f"stage {name!r} failed: {exc}") from exc
        finally:
            self._switch(outer)

    def stream(self, name: str, items) -> Iterator:
        """Yield ``items``, the work of producing each charged to stage ``name``."""
        items = iter(items)
        while True:
            with self.stage(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item


def pipeline_run(cfg: RunConfig) -> RunManifest:
    """Run the full study under ``cfg.out_dir`` and return its manifest.

    Synthesis, extraction and the dataset write form one stream: each
    recording is cut into windows as it is simulated, each chunk of windows
    is extracted as it fills, and each tensor is written as it arrives, so
    memory holds one recording and one chunk at a time. Training, evaluation
    and explanation read the stored dataset and model file, so a run equals
    the CLI chain synth -> extract -> train -> eval -> explain. Stage
    failures abort with the stage name prefixed to the error message, and
    ``timing_s`` holds each stage's own seconds. The manifest
    (run_manifest.json) is written last, so its presence marks a completed run.
    """
    validate_run_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_doc = to_json(cfg)
    # out_dir does not influence any output bytes, so it stays out of the hash
    cfg_hash = config_hash({k: v for k, v in cfg_doc.items() if k != "out_dir"})
    clock = _StageClock()
    diag = FitDiagnostics()

    dataset, model_path = out / "dataset", out / "model.bin"
    windows = clock.stream("synthesize", _study_stream(cfg))
    tensors = clock.stream("extract", stream_tensors(windows, cfg.pipeline, diag))
    with clock.stage("write_dataset"):
        write_dataset(tensors, dataset, cfg.pipeline, cfg.split.test_fraction, cfg.seed)
    files = sorted(f"dataset/{p.name}" for p in dataset.iterdir())  # manifest.json, then tensors.bin

    with clock.stage("train"):
        train_dataset(cfg, dataset, model_path, out / "history.json")
    files += ["model.bin", "history.json"]

    with clock.stage("evaluate"):
        stored = _stored(model_path, dataset)  # explain reads the same z-scored windows
        metrics = _metrics(dataset, *stored)
        atomic_write_text(out / "metrics.json", json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    files.append("metrics.json")
    model, tensors, _ = stored
    warnings = to_json(diag)

    if cfg.model.scheme in (1, 2):
        with clock.stage("explain"):
            report = relevance_report(model, tensors, cfg_hash)
            write_report_json(report, out / "relevance.json")
            write_report_csv(report, out / "relevance.csv")
            write_svg(report, out / "relevance.svg")
        files.extend(["relevance.json", "relevance.csv", "relevance.svg"])
    else:
        warnings["explain_skipped"] = f"scheme {cfg.model.scheme} concatenates no per-feature branches"

    manifest = RunManifest(
        config_hash=cfg_hash,
        seed=cfg.seed,
        versions=_versions(),
        threads=_threads(),
        warnings=warnings,
        timing_s={name: round(sec, 6) for name, sec in clock.seconds.items()},
        files=files,
        config=cfg_doc,
        metrics=metrics,
    )
    manifest.write(out / "run_manifest.json")
    return manifest
