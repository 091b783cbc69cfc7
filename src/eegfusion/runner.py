"""Config-driven end-to-end runs: synth -> extract -> train -> eval -> explain.

A run is described by a :class:`RunConfig` (usually parsed from a JSON file),
validated up front against every stage's preconditions, executed with fixed
seeds and fixed evaluation order, and summarized by a :class:`RunManifest`
written atomically as the last artifact. Rerunning the same config and seed
reproduces every output bit for bit.
"""

from __future__ import annotations

import json
import os
import platform
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .connectivity import (
    FEATURE_ORDER,
    PipelineConfig,
    WindowTensor,
    build_feature_tensor,
    normalize_features,
)
from .dataset import read_dataset, split_dataset, write_dataset
from .dsp import design_bandpass
from .model import (
    ModelConfig,
    TrainConfig,
    build_fusion_model,
    evaluate,
    load_model,
    save_model,
    train,
)
from .mvar import FitDiagnostics, frequency_grid
from .plotting import write_svg
from .relevance import RelevanceReport, relevance_report, write_report_csv, write_report_json
from .signal_io import (
    WINDOW_S,
    SynthSpec,
    extract_labeled_windows,
    generate_synthetic_batch,
    has_nonseizure_span,
    synth_spectral_radius,
)
from .util import ConfigError, atomic_write_text, config_hash, from_json, to_json

__all__ = [
    "ConfigError",
    "SynthStudyConfig",
    "RunConfig",
    "RunManifest",
    "run_config_from_json",
    "run_config_to_json",
    "validate_synth_config",
    "validate_pipeline",
    "validate_run_config",
    "derive_seed",
    "study_recordings",
    "cut_windows",
    "study_windows",
    "extract_tensors",
    "train_dataset",
    "evaluate_stored",
    "explain_stored",
    "pipeline_run",
]


@dataclass(frozen=True)
class SynthStudyConfig:
    """Shape of the synthetic two-class study: how many recordings of each
    class to simulate and how many 20 s windows to keep per recording."""

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


@dataclass(frozen=True)
class RunConfig:
    """Everything a full run needs; validated before any work starts."""

    out_dir: str = "run"
    seed: int = 0
    synth: SynthStudyConfig = field(default_factory=SynthStudyConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    test_fraction: float = 0.15
    explain_per_sample: bool = False
    explain_predicted_labels: bool = False
    explain_svg: bool = True


#: RunConfig fields that the JSON layout nests in a section; inside the
#: section each is keyed by its name without the ``<section>_`` prefix.
_SECTION_FIELDS = {
    "split": ("test_fraction",),
    "explain": ("explain_per_sample", "explain_predicted_labels", "explain_svg"),
}


def run_config_from_json(doc) -> RunConfig:
    """Parse the nested JSON layout; unknown or ill-typed fields name their path."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    flat = {k: v for k, v in doc.items() if k not in _SECTION_FIELDS}
    hints = typing.get_type_hints(RunConfig)
    for section, names in _SECTION_FIELDS.items():
        for name in names:
            if name in flat:
                raise ConfigError(name, "unknown field")
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(section, "must be a JSON object")
        keys = {name.removeprefix(f"{section}_"): name for name in names}
        for key, value in sub.items():
            if key not in keys:
                raise ConfigError(f"{section}.{key}", "unknown field")
            flat[keys[key]] = from_json(hints[keys[key]], value, f"{section}.{key}")
    return from_json(RunConfig, flat)


def run_config_to_json(cfg: RunConfig) -> dict:
    doc = to_json(cfg)
    for section, names in _SECTION_FIELDS.items():
        doc[section] = {name.removeprefix(f"{section}_"): doc.pop(name) for name in names}
    return doc


def validate_synth_config(s: SynthStudyConfig) -> None:
    """Check the synth section alone, before any recording is simulated."""
    if s.n_per_class < 1:
        raise ConfigError("synth.n_per_class", f"must be >= 1, got {s.n_per_class}")
    if s.windows_per_recording < 1:
        raise ConfigError(
            "synth.windows_per_recording", f"must be >= 1, got {s.windows_per_recording}"
        )
    if s.n_channels < 2:
        raise ConfigError("synth.n_channels", f"need >= 2 channels, got {s.n_channels}")
    if s.fs <= 0:
        raise ConfigError("synth.fs", f"sampling rate must be positive, got {s.fs}")
    if not 0.0 <= s.ar_pole_radius < 1.0:
        raise ConfigError(
            "synth.ar_pole_radius", f"must lie in [0, 1), got {s.ar_pole_radius}"
        )
    if not 0.0 < s.ar_freq_hz < s.fs / 2:
        raise ConfigError(
            "synth.ar_freq_hz",
            f"must lie in (0, {s.fs / 2}) Hz at fs={s.fs}, got {s.ar_freq_hz}",
        )
    if s.noise_std <= 0:
        raise ConfigError("synth.noise_std", f"must be positive, got {s.noise_std}")
    if s.coupling_strength < 0:
        raise ConfigError(
            "synth.coupling_strength", f"must be >= 0, got {s.coupling_strength}"
        )
    if s.guard_s < 0:
        raise ConfigError("synth.guard_s", f"must be >= 0, got {s.guard_s}")
    max_windows = int(s.duration_s // WINDOW_S)
    if max_windows < s.windows_per_recording:
        raise ConfigError(
            "synth.windows_per_recording",
            f"a {s.duration_s} s recording holds at most {max_windows} windows "
            f"of {WINDOW_S:.0f} s, requested {s.windows_per_recording}",
        )
    probe = SynthSpec(
        kind="coupled",
        n_channels=s.n_channels,
        fs=s.fs,
        coupling_strength=s.coupling_strength,
        ar_pole_radius=s.ar_pole_radius,
        ar_freq_hz=s.ar_freq_hz,
        noise_std=s.noise_std,
    )
    radius = synth_spectral_radius(probe)
    if radius >= 1.0:
        raise ConfigError(
            "synth.coupling_strength",
            f"coupled process unstable (spectral radius {radius:.3f}); reduce "
            f"coupling_strength or ar_pole_radius",
        )


def _extraction_workers() -> int:
    """Worker processes for feature extraction, from EEGFUSION_WORKERS."""
    raw = os.environ.get("EEGFUSION_WORKERS", "1") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("EEGFUSION_WORKERS", f"must be an integer, got {raw!r}") from None


def validate_pipeline(p: PipelineConfig, fs: float, n_channels: int) -> None:
    """Check the pipeline against recordings of rate ``fs`` with ``n_channels``
    channels, before any window is extracted."""
    freqs = frequency_grid(fs, p.n_freqs)
    for i, band in enumerate(p.bands):
        if band.high_hz >= fs / 2:
            raise ConfigError(
                f"pipeline.bands[{i}].high_hz",
                f"band {band.name!r} high edge {band.high_hz} Hz must be below "
                f"the Nyquist frequency {fs / 2} Hz",
            )
        try:
            design_bandpass(band, fs, p.filter_order)
        except ValueError as exc:
            raise ConfigError(f"pipeline.bands[{i}]", str(exc)) from exc
        if not np.any((freqs >= band.low_hz) & (freqs < band.high_hz)):
            raise ConfigError(
                f"pipeline.bands[{i}]",
                f"band {band.name!r} holds no frequency of the {p.n_freqs}-point "
                f"grid (spacing {fs / 2 / p.n_freqs} Hz at fs={fs}); increase "
                f"pipeline.n_freqs or widen the band",
            )
    try:
        design_bandpass(p.broadband, fs, p.filter_order)
    except ValueError as exc:
        raise ConfigError("pipeline.broadband", str(exc)) from exc

    n_window = int(round(WINDOW_S * fs))
    if n_window % p.subwindows != 0:
        raise ConfigError(
            "pipeline.subwindows",
            f"window of {n_window} samples not divisible into {p.subwindows} parts",
        )
    sub_len = n_window // p.subwindows
    order_cap = p.aic_max if p.aic else p.order
    if sub_len - order_cap < order_cap * n_channels:
        raise ConfigError(
            "pipeline.order",
            f"{sub_len}-sample sub-windows cannot support order {order_cap} "
            f"with {n_channels} channels",
        )
    if sub_len <= 3 * p.filter_order:
        raise ConfigError(
            "pipeline.subwindows",
            f"{sub_len}-sample sub-windows too short for zero-phase filtering",
        )


def validate_run_config(cfg: RunConfig) -> None:
    """Check every stage's preconditions before any work starts.

    Raises :class:`ConfigError` naming the offending field; a passing config
    is guaranteed to reach the training stage without input-shape errors.
    """
    s = cfg.synth
    validate_synth_config(s)
    _extraction_workers()
    p = cfg.pipeline
    validate_pipeline(p, s.fs, s.n_channels)

    m = cfg.model
    if m.n_channels != s.n_channels:
        raise ConfigError(
            "model.n_channels", f"must equal synth.n_channels ({s.n_channels}), got {m.n_channels}"
        )
    if m.subwindows != p.subwindows:
        raise ConfigError(
            "model.subwindows", f"must equal pipeline.subwindows ({p.subwindows}), got {m.subwindows}"
        )
    if m.n_bands != len(p.bands):
        raise ConfigError(
            "model.n_bands", f"must equal the number of bands ({len(p.bands)}), got {m.n_bands}"
        )
    if m.n_features != len(FEATURE_ORDER):
        raise ConfigError(
            "model.n_features", f"must be {len(FEATURE_ORDER)}, got {m.n_features}"
        )

    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError(
            "split.test_fraction", f"must lie in (0, 1), got {cfg.test_fraction}"
        )
    n_class = s.n_per_class * s.windows_per_recording
    n_test = int(round(n_class * cfg.test_fraction))
    if n_test < 1 or n_class - n_test < 1:
        raise ConfigError(
            "split.test_fraction",
            f"splitting {n_class} windows per class at {cfg.test_fraction} leaves "
            f"an empty train or test side",
        )
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

    The batch runs one recursion per class; the twins that set the coupled
    recordings' channel scale join the uncoupled one."""
    s = cfg.synth
    specs = [
        SynthSpec(
            kind=kind,
            n_channels=s.n_channels,
            fs=s.fs,
            duration_s=s.duration_s,
            coupling_strength=s.coupling_strength if kind == "coupled" else 0.0,
            seed=derive_seed(cfg.seed, class_idx, i),
            ar_pole_radius=s.ar_pole_radius,
            ar_freq_hz=s.ar_freq_hz,
            noise_std=s.noise_std,
            match_power=s.match_power,
            rec_id=f"{kind}-{i:02d}",
        )
        for class_idx, kind in enumerate(("uncoupled", "coupled"))
        for i in range(s.n_per_class)
    ]
    for spec, (rec, ann) in zip(specs, generate_synthetic_batch(specs)):
        yield spec.kind, rec, ann


def cut_windows(recordings, cfg: RunConfig) -> list:
    """Cut labeled windows from ``(recording, annotations)`` pairs, in order.

    Each recording gives its first ``windows_per_recording`` seizure slices
    plus, when it has a guarded seizure-free span, ``windows_per_recording``
    non-seizure draws seeded by the recording's position i in the sequence.
    """
    s = cfg.synth
    windows = []
    for i, (rec, ann) in enumerate(recordings):
        n_free = s.windows_per_recording if has_nonseizure_span(rec, ann, s.guard_s) else 0
        ws = extract_labeled_windows(
            rec, ann, n_free, seed=derive_seed(cfg.seed, 0, i, 1), guard_s=s.guard_s
        )
        windows += [w for w in ws if w.label == 1][: s.windows_per_recording]
        windows += [w for w in ws if w.label == 0]
    return windows


def study_windows(cfg: RunConfig) -> list:
    """Simulate the study's recordings and cut their windows (:func:`cut_windows`).

    Coupled recordings are annotated end to end and give seizure slices;
    uncoupled ones, which come first, give non-seizure draws.
    """
    return cut_windows(((rec, ann) for _, rec, ann in study_recordings(cfg)), cfg)


def _extract_one(args):
    window, pcfg = args
    diag = FitDiagnostics()
    return build_feature_tensor(window, pcfg, diag), diag


def extract_tensors(
    windows, pcfg: PipelineConfig, diagnostics: FitDiagnostics | None = None
) -> list[WindowTensor]:
    """Feature tensors for every window, in input order.

    Extraction is pure per window, so the EEGFUSION_WORKERS env var may fan it
    out over processes; results keep the input order either way.
    """
    workers = _extraction_workers()
    if workers <= 1 or len(windows) < 2:
        return [build_feature_tensor(w, pcfg, diagnostics) for w in windows]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_extract_one, [(w, pcfg) for w in windows], chunksize=1))
    for _, diag in results:
        if diagnostics is not None:
            diagnostics.merge(diag)
    return [tensor for tensor, _ in results]


def train_dataset(cfg: RunConfig, dataset, model_path, history_path) -> list[dict]:
    """Fit ``cfg.model`` on the training side of a stored dataset.

    The model dims come from the tensor shape. Writes the model file, with
    the training side's norm stats, and the per-epoch history; returns it.
    """
    tensors, manifest = read_dataset(dataset)
    train_ds, _ = split_dataset(tensors, manifest)
    if cfg.train.batch_size > len(train_ds):
        raise ConfigError(
            "train.batch_size",
            f"batch_size {cfg.train.batch_size} exceeds the {len(train_ds)}-window training set",
        )
    stats, normed = normalize_features(train_ds)
    f, t, c, _, b = tensors[0].shape
    mcfg = replace(cfg.model, n_features=f, subwindows=t, n_channels=c, n_bands=b)
    model, history = train(build_fusion_model(mcfg), normed, cfg.train)
    save_model(model, model_path, stats)
    atomic_write_text(history_path, json.dumps(history, indent=2) + "\n")
    return history


def _stored(model_path, dataset):
    """A model file, and a dataset z-scored with the model's norm stats."""
    model, stats = load_model(model_path)
    tensors, manifest = read_dataset(dataset)
    if stats is not None:
        tensors = stats.apply_many(tensors)
    return model, tensors, manifest


def evaluate_stored(model_path, dataset) -> dict:
    """The metrics document ``{train, test, threshold}`` of a stored model."""
    model, tensors, manifest = _stored(model_path, dataset)
    train_ds, test_ds = split_dataset(tensors, manifest)
    return {
        "train": evaluate(model, train_ds).to_dict(),
        "test": evaluate(model, test_ds).to_dict(),
        "threshold": 0.5,
    }


def explain_stored(model_path, dataset, **options) -> RelevanceReport:
    """Relevance report of a stored model over every stored window, in order;
    ``options`` are :func:`relevance_report`'s keywords."""
    model, tensors, _ = _stored(model_path, dataset)
    return relevance_report(model, tensors, **options)


@dataclass
class RunManifest:
    """Inventory and provenance of one run; written atomically at run end."""

    config_hash: str
    seed: int
    versions: dict
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


def pipeline_run(cfg: RunConfig) -> RunManifest:
    """Run the full study under ``cfg.out_dir`` and return its manifest.

    Training, evaluation and explanation read the stored dataset and model
    file, so a run equals the CLI chain synth -> extract -> train -> eval ->
    explain. Stage failures abort with the stage name prefixed to the error
    message. The manifest (run_manifest.json) is written last, so its
    presence marks a completed run.
    """
    validate_run_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_doc = run_config_to_json(cfg)
    # out_dir does not influence any output bytes, so it stays out of the hash
    cfg_hash = config_hash({k: v for k, v in cfg_doc.items() if k != "out_dir"})
    timing: dict[str, float] = {}
    files: list[str] = []
    diag = FitDiagnostics()

    def stage(name: str, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except ConfigError:
            raise
        except Exception as exc:
            raise RuntimeError(f"stage {name!r} failed: {exc}") from exc
        timing[name] = round(time.perf_counter() - t0, 6)
        return result

    windows = stage("synthesize", lambda: study_windows(cfg))
    tensors = stage("extract", lambda: extract_tensors(windows, cfg.pipeline, diag))
    dataset, model_path = out / "dataset", out / "model.bin"
    manifest_path = stage(
        "write_dataset",
        lambda: write_dataset(tensors, dataset, cfg.pipeline, cfg.test_fraction, cfg.seed),
    )
    del windows, tensors  # every later stage reads the stored dataset
    stored = json.loads(manifest_path.read_text())["windows"]
    files += ["dataset/" + name for name in [manifest_path.name] + [w["file"] for w in stored]]

    stage("train", lambda: train_dataset(cfg, dataset, model_path, out / "history.json"))
    files += ["model.bin", "history.json"]

    def _evaluate():
        doc = evaluate_stored(model_path, dataset)
        atomic_write_text(out / "metrics.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
        files.append("metrics.json")
        return doc

    metrics = stage("evaluate", _evaluate)
    warnings = {
        "unstable_fits": diag.unstable_fits,
        "sigma_jitter_events": diag.sigma_jitter_events,
    }

    def _explain():
        report = explain_stored(
            model_path,
            dataset,
            per_sample=cfg.explain_per_sample,
            predicted_labels=cfg.explain_predicted_labels,
            config_hash=cfg_hash,
        )
        write_report_json(report, out / "relevance.json")
        write_report_csv(report, out / "relevance.csv")
        files.extend(["relevance.json", "relevance.csv"])
        if cfg.explain_svg:
            write_svg(report, out / "relevance.svg")
            files.append("relevance.svg")

    if cfg.model.scheme in (1, 2):
        stage("explain", _explain)
    else:
        warnings["explain_skipped"] = f"scheme {cfg.model.scheme} concatenates no per-feature branches"

    manifest = RunManifest(
        config_hash=cfg_hash,
        seed=cfg.seed,
        versions=_versions(),
        warnings=warnings,
        timing_s=timing,
        files=files,
        config=cfg_doc,
        metrics=metrics,
    )
    manifest.write(out / "run_manifest.json")
    return manifest
