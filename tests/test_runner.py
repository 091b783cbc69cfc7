"""End-to-end runner: config parsing, up-front validation, determinism."""

import dataclasses
import json
import os
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_dataset import staged_files

from eegfusion.connectivity import (
    PipelineConfig, WindowTensor, build_feature_tensors, normalize_features, window_chunks,
)
from eegfusion.dataset import read_dataset, split_dataset, write_dataset
from eegfusion.dsp import DEFAULT_BANDS, BandSpec
from eegfusion.model import THRESHOLD, ArchConfig, ModelConfig, TrainConfig, evaluate, load_model
from eegfusion import connectivity, runner
from eegfusion.cli import main
from eegfusion.mvar import FitDiagnostics
from eegfusion.relevance import relevance_report
from eegfusion.runner import (
    ConfigError,
    RunConfig,
    RunManifest,
    SplitConfig,
    SynthStudyConfig,
    derive_seed,
    extract_tensors,
    pipeline_run,
    stream_tensors,
    study_windows,
    validate_run_config,
)
from eegfusion.signal_io import SynthSpec
from eegfusion.util import config_hash, from_json, to_json


def fast_config(out_dir="run", **over) -> RunConfig:
    """Two tiny recordings per class at fs=32; a full run takes seconds."""
    cfg = RunConfig(
        out_dir=str(out_dir),
        seed=0,
        synth=SynthStudyConfig(
            n_per_class=2, windows_per_recording=2, n_channels=2,
            fs=32.0, duration_s=60.0, coupling_strength=0.3,
        ),
        pipeline=PipelineConfig(
            order=2, n_freqs=32,
            bands=(BandSpec("slow", 2.0, 6.0), BandSpec("fast", 6.0, 12.0)),
            broadband=BandSpec("broadband", 0.5, 12.0),
        ),
        model=ArchConfig(scheme=2, embed_dim=4, lstm_hidden=4, dense_sizes=(8,)),
        train=TrainConfig(epochs=2, batch_size=4),
        split=SplitConfig(test_fraction=0.25),
    )
    return replace(cfg, **over) if over else cfg


def refusal(doc) -> ConfigError:
    """The error that a config document is refused with, at parse or validation."""
    with pytest.raises(ConfigError) as exc:
        validate_run_config(from_json(RunConfig, doc))
    return exc.value


def fast_doc(**synth) -> dict:
    """fast_config's JSON document, with these synth values."""
    doc = to_json(fast_config())
    doc["synth"].update(synth)
    return doc


class TestConfigJson:
    def test_defaults_round_trip(self):
        cfg = fast_config()
        assert from_json(RunConfig, to_json(cfg)) == cfg

    def test_document_layout_is_unchanged(self):
        # the split section keeps its JSON key, so config hashes keep their bytes
        doc = to_json(RunConfig())
        assert list(doc) == ["out_dir", "seed", "synth", "pipeline", "model", "train", "split"]
        assert doc["split"] == {"test_fraction": 0.15}

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field") as exc:
            from_json(RunConfig, {"frobnicate": 1})
        assert exc.value.field == "frobnicate"

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"synth": {"n_per_clas": 3}}, "synth.n_per_clas"),
            ({"model": {"hidden": 2}}, "model.hidden"),
            ({"pipeline": {"frob": 1}}, "pipeline.frob"),
            ({"split": {"fraction": 0.2}}, "split.fraction"),
            ({"explain": {"chart": True}}, "explain"),
            ({"pipeline": {"mode": "per_band"}}, "pipeline.mode"),
            ({"model": {"attention": False}}, "model.attention"),
            ({"train": {"optimizer": "sgd"}}, "train.optimizer"),
            ({"explain": {"per_sample": True}}, "explain"),
            ({"explain": {"predicted_labels": True}}, "explain"),
            ({"train": {"label_flip_second_phase": True}}, "train.label_flip_second_phase"),
            ({"model": {"dropout_rate": 0.5}}, "model.dropout_rate"),
            ({"explain": {"svg": True}}, "explain"),
        ],
    )
    def test_unknown_nested_fields_name_their_path(self, doc, field):
        with pytest.raises(ConfigError) as exc:
            from_json(RunConfig, doc)
        assert exc.value.field == field

    def test_type_errors_name_their_path(self):
        cases = [
            ({"seed": "zero"}, "seed"),
            ({"seed": True}, "seed"),
            ({"out_dir": 3}, "out_dir"),
            ({"synth": [1, 2]}, "synth"),
            ([1, 2], "<root>"),
            ({"synth": {"fs": "128"}}, "synth.fs"),
            ({"synth": {"coupling_strength": False}}, "synth.coupling_strength"),
            ({"synth": {"duration_s": float("inf")}}, "synth.duration_s"),
            ({"pipeline": {"order": 2.5}}, "pipeline.order"),
            ({"pipeline": {"aic": "yes"}}, "pipeline.aic"),
            ({"pipeline": {"bands": [{"name": "a", "low_hz": "1", "high_hz": 4}]}},
             "pipeline.bands[0].low_hz"),
            ({"pipeline": {"broadband": {"name": "b", "low_hz": 1.0}}},
             "pipeline.broadband.high_hz"),
            ({"model": {"embed_dim": 2.0}}, "model.embed_dim"),
            ({"model": {"dense_sizes": [8, True]}}, "model.dense_sizes[1]"),
            ({"train": {"epochs": 2.5}}, "train.epochs"),
            ({"train": {"learning_rate": float("nan")}}, "train.learning_rate"),
            ({"split": {"test_fraction": "0.2"}}, "split.test_fraction"),
            ({"test_fraction": 0.2}, "test_fraction"),
        ]
        for doc, field in cases:
            with pytest.raises(ConfigError) as exc:
                from_json(RunConfig, doc)
            assert exc.value.field == field, doc

    def test_ints_pass_for_floats_unchanged(self):
        # no int lies in (0, 1), so test_fraction has no int case
        cfg = from_json(RunConfig, {"synth": {"fs": 128}})
        assert type(cfg.synth.fs) is int
        assert to_json(cfg)["synth"]["fs"] == 128

    def test_section_value_errors_name_their_field(self):
        with pytest.raises(ConfigError) as exc:
            from_json(RunConfig, {"model": {"scheme": 5}})
        assert str(exc.value) == "model.scheme: must be 1..4, got 5"

    @pytest.mark.parametrize("doc, message", [
        ({"seed": -1}, "seed: must be >= 0, got -1"),
        ({"model": {"seed": -1}}, "model.seed: must be >= 0, got -1"),
        ({"train": {"seed": -1}}, "train.seed: must be >= 0, got -1"),
        ({"train": {"learning_rate": 1.5}}, "train.learning_rate: must lie in [0, 1], got 1.5"),
    ])
    def test_seeds_and_learning_rate_are_refused_out_of_range(self, doc, message):
        # numpy's generators refuse a negative seed only once synthesis or
        # training starts, and a learning rate of 1e300 overflows its float32 cast
        with pytest.raises(ConfigError) as exc:
            from_json(RunConfig, doc)
        assert str(exc.value) == message
        with pytest.raises(ConfigError) as exc:
            from_json(RunConfig, {"train": {"epochs": 0}})
        assert str(exc.value) == "train.epochs: must be >= 1, got 0"
        # a message that leads with no field name names the entry itself
        with pytest.raises(ConfigError, match="need 0 < low < high") as exc:
            broadband = {"name": "b", "low_hz": 5, "high_hz": 1}
            from_json(RunConfig, {"pipeline": {"broadband": broadband}})
        assert exc.value.field == "pipeline.broadband"

    def test_dense_sizes_parsed_as_tuple(self):
        cfg = from_json(RunConfig, {"model": {"dense_sizes": [8, 4]}})
        assert cfg.model.dense_sizes == (8, 4)
        with pytest.raises(ConfigError) as exc:
            from_json(RunConfig, {"model": {"dense_sizes": 8}})
        assert exc.value.field == "model.dense_sizes"


class TestValidation:
    def test_fast_config_passes(self):
        validate_run_config(fast_config())

    def field_of(self, cfg):
        with pytest.raises(ConfigError) as exc:
            validate_run_config(cfg)
        return exc.value.field

    def test_band_above_nyquist_names_the_band(self):
        # coupling 0 keeps the synth checks quiet so the band check is reached
        bands = DEFAULT_BANDS[:4] + (BandSpec("gamma", 30.0, 200.0),)
        cfg = RunConfig(
            synth=SynthStudyConfig(fs=256.0, coupling_strength=0.0),
            pipeline=PipelineConfig(bands=bands),
        )
        assert self.field_of(cfg) == "pipeline.bands[4].high_hz"
        cfg = RunConfig(pipeline=PipelineConfig(broadband=BandSpec("broadband", 0.5, 70.0)))
        with pytest.raises(ConfigError) as exc:
            validate_run_config(cfg)
        assert exc.value.field == "pipeline.broadband.high_hz"
        assert "Nyquist frequency 64.0 Hz, got 70.0" in str(exc.value)

    def test_oversized_batch(self):
        cfg = fast_config(train=TrainConfig(epochs=1, batch_size=64))
        assert self.field_of(cfg) == "train.batch_size"

    def test_indivisible_subwindows(self):
        cfg = fast_config()
        cfg = replace(cfg, pipeline=replace(cfg.pipeline, subwindows=7))
        assert self.field_of(cfg) == "pipeline.subwindows"

    def test_order_too_large_for_subwindow(self):
        cfg = fast_config()
        cfg = replace(cfg, pipeline=replace(cfg.pipeline, order=40))
        assert self.field_of(cfg) == "pipeline.order"

    def test_unstable_coupling_rejected(self):
        assert refusal(fast_doc(coupling_strength=0.9)).field == "synth.coupling_strength"

    def test_too_many_windows_for_duration(self):
        assert refusal(fast_doc(windows_per_recording=4)).field == "synth.windows_per_recording"

    def test_ar_frequency_beyond_nyquist(self):
        assert refusal(fast_doc(ar_freq_hz=20.0)).field == "synth.ar_freq_hz"

    def test_sections_check_themselves(self):
        with pytest.raises(ValueError, match="^coupling_strength makes the process unstable"):
            SynthStudyConfig(coupling_strength=0.9)
        with pytest.raises(ValueError, match=r"^test_fraction must lie in \(0, 1\), got 1.5"):
            SplitConfig(test_fraction=1.5)

    @pytest.mark.parametrize("name, value", [
        ("n_channels", 1), ("fs", 0.0), ("ar_pole_radius", 1.0), ("noise_std", 0.0),
        ("ar_freq_hz", 0.0), ("coupling_strength", -0.1),
        # noise the synthesis or the features cannot hold in floats
        ("noise_std", 1e300), ("noise_std", 1e200), ("noise_std", 1e-160),
        ("noise_std", 1e-200), ("noise_std", 1e-300),
    ])
    def test_recording_ranges_are_synth_specs(self, name, value):
        # one definition of each range: the config error is SynthSpec's own
        error = refusal(fast_doc(**{name: value}))
        assert error.field == f"synth.{name}"
        with pytest.raises(ValueError) as spec_exc:
            SynthSpec(kind="coupled", **{name: value})
        assert str(error) == f"synth.{name}: {str(spec_exc.value).removeprefix(name + ' ')}"

    @pytest.mark.parametrize("name", ["n_channels", "subwindows", "n_bands", "n_features"])
    def test_model_dims_are_unknown_fields(self, name):
        # the dims come from the dataset, so the config has no field for them
        with pytest.raises(ConfigError) as exc:
            from_json(RunConfig, {"model": {name: 3}})
        assert str(exc.value) == f"model.{name}: unknown field"

    def test_model_config_is_refused(self):
        # a ModelConfig's dims would be dropped for the dataset's
        with pytest.raises(ConfigError) as exc:
            replace(fast_config(), model=ModelConfig(n_channels=2, n_bands=2))
        assert exc.value.field == "model"

    def test_band_without_grid_frequency(self):
        # at fs=128 an 8-point grid steps by 8 Hz, so delta [2, 4) holds none
        cfg = RunConfig(pipeline=PipelineConfig(n_freqs=8))
        assert self.field_of(cfg) == "pipeline.bands[0]"

    @pytest.mark.parametrize("order", [0, 3])
    def test_bad_filter_order_is_checked_before_the_bands(self, order):
        # the band loop would otherwise blame bands[0] for the order
        cfg = RunConfig(pipeline=PipelineConfig(filter_order=order))
        assert self.field_of(cfg) == "pipeline.filter_order"

    def test_short_subwindows_pass(self):
        # filtfilt runs on the whole 20 s window, never on a 10-sample sub-window
        validate_run_config(RunConfig(pipeline=PipelineConfig(order=1, subwindows=256)))

    def test_window_too_short_to_filter(self):
        # at fs=1 a window holds 20 samples; order 8 pads 24 on each side
        slow = PipelineConfig(
            order=1, subwindows=1, filter_order=8,
            bands=(BandSpec("slow", 0.1, 0.3),), broadband=BandSpec("broad", 0.05, 0.45),
        )
        with pytest.raises(ConfigError) as exc:
            runner.validate_pipeline(slow, 1.0, 2)
        assert exc.value.field == "pipeline.filter_order"
        runner.validate_pipeline(replace(slow, filter_order=6), 1.0, 2)  # pads 18

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_workers_variable_is_not_read(self, monkeypatch, value):
        # extraction has one path; the environment selects nothing
        monkeypatch.setenv("EEGFUSION_WORKERS", value)
        validate_run_config(fast_config())

    def test_degenerate_split(self):
        for fraction in (0.0, 0.05):
            doc = {**fast_doc(), "split": {"test_fraction": fraction}}
            assert refusal(doc).field == "split.test_fraction"


class TestDeriveSeed:
    def test_stable_and_branch_sensitive(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
        assert derive_seed(0, 1) != derive_seed(1, 1)
        s = derive_seed(7, 3)
        assert isinstance(s, int) and 0 <= s < 2**32


class TestStudyWindows:
    def test_balanced_labeled_windows(self):
        windows = study_windows(fast_config())
        assert len(windows) == 8
        assert [w.label for w in windows] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert {w.fs for w in windows} == {32.0}
        assert all(w.samples.shape == (640, 2) for w in windows)
        coupled = [w for w in windows if w.label == 1]
        assert all(w.source_id.startswith("coupled-") for w in coupled)

    def test_deterministic(self):
        a = study_windows(fast_config())
        b = study_windows(fast_config())
        assert [w.source_id for w in a] == [w.source_id for w in b]
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.samples, wb.samples)


def thirteen_desk_windows():
    """13 desk-size windows (C=4, fs=128): chunks of 6, 6 and 1."""
    windows = study_windows(RunConfig(synth=SynthStudyConfig(
        n_per_class=1, windows_per_recording=7)))[:13]
    assert [len(chunk) for chunk in window_chunks(windows)] == [6, 6, 1]
    return windows


class TestExtractTensors:
    def test_diagnostics_do_not_change_the_tensors(self):
        # 7 windows form chunks of 6 and 1; the counters run across chunks
        synth = SynthStudyConfig(n_per_class=1, windows_per_recording=7)
        windows = study_windows(RunConfig(synth=synth))[:7]
        pcfg = PipelineConfig(aic=True, aic_max=3)
        diag = FitDiagnostics()
        with_diag = extract_tensors(windows, pcfg, diag)
        without = extract_tensors(windows, pcfg)
        assert diag.order_cap_hits > 0
        assert [t.values.tobytes() for t in with_diag] == [t.values.tobytes() for t in without]

    def test_flat_channel_in_a_later_chunk_is_refused(self):
        # window 8 sits in the second chunk
        windows = thirteen_desk_windows()
        samples = windows[8].samples.copy()
        samples[:, 3] = -1.5
        windows[8] = replace(windows[8], samples=samples)
        with pytest.raises(ValueError) as exc:
            extract_tensors(windows, PipelineConfig())
        assert str(exc.value) == (
            f"window {windows[8].source_id!r}, sub-window 0: channel 3 is flat (every sample is -1.5)"
        )

    @pytest.mark.parametrize("aic", [False, True], ids=["fixed", "aic"])
    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_chunked_stream_matches_one_call(self, monkeypatch, per_chunk, aic):
        # chunks bound memory only: the tensors and the fit counters equal
        # those of one call over every window, whatever the chunk size
        windows = thirteen_desk_windows()
        pcfg = replace(PipelineConfig(), aic=True, aic_max=3) if aic else PipelineConfig()
        whole_diag, diag = FitDiagnostics(), FitDiagnostics()
        whole = build_feature_tensors(windows, pcfg, whole_diag)
        monkeypatch.setattr(
            connectivity, "_WINDOW_CHUNK_SAMPLES", per_chunk * windows[0].samples.size
        )
        assert len(next(window_chunks(windows))) == per_chunk
        streamed = list(stream_tensors(windows, pcfg, diag))
        assert [t.source_id for t in streamed] == [w.source_id for w in windows]
        for a, b in zip(whole, streamed):
            assert np.array_equal(a.values, b.values)
            assert a.label == b.label
        assert diag == whole_diag
        assert (diag.order_cap_hits > 0) == aic

    def test_no_windows_give_no_tensors(self):
        diag = FitDiagnostics()
        assert list(stream_tensors(iter([]), PipelineConfig(), diag)) == []
        assert diag == FitDiagnostics()

    def test_windows_of_two_rates_keep_their_order(self):
        # a change of rate cuts a chunk: chunks of 3, 2 and 2 windows
        at_128 = thirteen_desk_windows()[:5]
        at_100 = study_windows(RunConfig(synth=SynthStudyConfig(
            n_per_class=1, windows_per_recording=2, fs=100.0)))[:2]
        windows = at_128[:3] + at_100 + at_128[3:]
        assert [len(chunk) for chunk in window_chunks(windows)] == [3, 2, 2]
        tensors = extract_tensors(windows, PipelineConfig())
        assert [t.source_id for t in tensors] == [w.source_id for w in windows]
        alone = extract_tensors(at_128, PipelineConfig()), extract_tensors(at_100, PipelineConfig())
        expected = alone[0][:3] + alone[1] + alone[0][3:]
        assert [t.values.tobytes() for t in tensors] == [t.values.tobytes() for t in expected]

    def test_windows_are_read_one_chunk_at_a_time(self):
        # a chunk is cut from the windows only when the last one's tensors are taken
        taken = []

        def counted(windows):
            for w in windows:
                taken.append(w.source_id)
                yield w

        windows = thirteen_desk_windows()
        tensors = stream_tensors(counted(windows), PipelineConfig())
        first = [next(tensors) for _ in range(6)]
        assert len(taken) == 6  # the first chunk, not the second's first window
        assert [t.source_id for t in first + list(tensors)] == [w.source_id for w in windows]


class TestPipelineRun:
    def test_artifacts_and_manifest_inventory(self, tmp_path):
        out = tmp_path / "run"
        manifest = pipeline_run(fast_config(out))
        assert (out / "run_manifest.json").exists()
        for name in manifest.files:
            assert (out / name).exists(), name
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"
        }
        assert on_disk == set(manifest.files)
        assert [f for f in manifest.files if f.startswith("dataset/")] == [
            "dataset/manifest.json", "dataset/tensors.bin"
        ]
        assert {"synthesize", "extract", "write_dataset", "train", "evaluate",
                "explain"} <= set(manifest.timing_s)
        assert manifest.metrics["threshold"] == 0.5
        assert set(manifest.metrics["train"]) >= {"accuracy", "sensitivity"}
        assert list(manifest.warnings) == [f.name for f in dataclasses.fields(FitDiagnostics)]
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc == manifest.to_dict()

    def test_manifest_records_the_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        pipeline_run(fast_config(tmp_path / "run"))
        doc = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        assert doc["threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2",
            "cpu_count": os.cpu_count(), "pinned": True,
        }

    def test_hash_excludes_output_location(self, tmp_path):
        cfg = fast_config(tmp_path / "a")
        doc = to_json(cfg)
        expected = config_hash({k: v for k, v in doc.items() if k != "out_dir"})
        manifest = pipeline_run(cfg)
        assert manifest.config_hash == expected

    def test_rerun_reproduces_every_byte(self, tmp_path):
        m1 = pipeline_run(fast_config(tmp_path / "a"))
        m2 = pipeline_run(fast_config(tmp_path / "b"))
        assert m1.config_hash == m2.config_hash
        assert m1.files == m2.files
        assert m1.metrics == m2.metrics
        for name in m1.files:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_invalid_config_writes_nothing(self, tmp_path):
        out = tmp_path / "never"
        cfg = fast_config(out)
        cfg = replace(cfg, pipeline=replace(cfg.pipeline, order=40))
        with pytest.raises(ConfigError):
            pipeline_run(cfg)
        assert not out.exists()

    def test_fused_scheme_skips_explanation(self, tmp_path):
        out = tmp_path / "run3"
        cfg = fast_config(out)
        cfg = replace(cfg, model=replace(cfg.model, scheme=3))
        manifest = pipeline_run(cfg)
        assert "explain_skipped" in manifest.warnings
        assert not any("relevance" in f for f in manifest.files)
        assert not (out / "relevance.json").exists()

    def test_model_dims_come_from_the_dataset(self, tmp_path):
        cfg = fast_config(tmp_path / "run")
        pipeline_run(replace(cfg, synth=replace(cfg.synth, n_channels=3, coupling_strength=0.2)))
        stored, _ = load_model(tmp_path / "run" / "model.bin")
        header = json.loads((tmp_path / "run" / "model.bin").read_bytes().split(b"\n")[0])
        assert header["model_config"]["n_channels"] == stored.cfg.n_channels == 3
        assert stored.cfg == ModelConfig(**vars(cfg.model), n_channels=3, n_bands=2)

    def test_stage_failures_name_the_stage(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "dataset").write_text("in the way")
        with pytest.raises(RuntimeError, match="stage 'write_dataset' failed"):
            pipeline_run(fast_config(out))


def stop_before_training(monkeypatch) -> list[int]:
    """Make a run stop at its train stage; the list gets the traced peak
    of the stages before it, when tracemalloc is on."""
    peaks = []

    def stop(*args):
        if tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1])
        raise RuntimeError("stopped before training")

    monkeypatch.setattr(runner, "train_dataset", stop)
    return peaks


def fail_second_chunk(monkeypatch, dataset: Path) -> list[dict[str, int]]:
    """Chunks of two windows, the second of which fails to extract; the
    list gets the files staged for ``dataset``, with their sizes, when each chunk starts."""
    monkeypatch.setattr(connectivity, "_WINDOW_CHUNK_SAMPLES", 2 * 640 * 2)  # fast_config windows
    real, seen = runner.build_feature_tensors, []

    def flaky(chunk, *args):
        seen.append(staged_files(dataset))
        if len(seen) == 2:
            raise ValueError("second chunk failed")
        return real(chunk, *args)

    monkeypatch.setattr(runner, "build_feature_tensors", flaky)
    return seen


class TestStreamedRun:
    """Synthesis, extraction and the dataset write run as one stream."""

    def test_traced_peak_does_not_grow_with_the_study(self, tmp_path, monkeypatch):
        # at n_per_class=6, lists of the study's 120 windows and tensors
        # would take 15 MB alone; a stream holds one recording and one chunk
        peaks = stop_before_training(monkeypatch)
        for n, traced in ((2, False), (2, True), (6, True)):  # the first designs the filters
            cfg = RunConfig(out_dir=str(tmp_path / f"run{n}"), synth=SynthStudyConfig(n_per_class=n))
            if traced:
                tracemalloc.start()
            try:
                with pytest.raises(RuntimeError, match="stage 'train' failed"):
                    pipeline_run(cfg)
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert large < 10e6
        assert large - small < 0.5e6

    def test_stage_times_are_each_stages_own(self, tmp_path, monkeypatch):
        # extraction pulls windows from synthesis and the write pulls tensors
        # from extraction; neither is charged the time of the stage it waits on
        def slow(fn):
            def wrapped(*args):
                time.sleep(0.1)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(runner, "generate_synthetic", slow(runner.generate_synthetic))
        monkeypatch.setattr(runner, "build_feature_tensors", slow(runner.build_feature_tensors))
        timing = pipeline_run(fast_config(tmp_path / "run")).timing_s
        assert timing["synthesize"] >= 0.4  # four recordings
        assert 0.1 <= timing["extract"] < 0.4  # one chunk
        assert timing["write_dataset"] < 0.1

    def test_failed_chunk_of_a_run_leaves_no_dataset(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        seen = fail_second_chunk(monkeypatch, out / "dataset")
        with pytest.raises(RuntimeError, match="stage 'extract' failed: .*second chunk failed"):
            pipeline_run(fast_config(out))
        assert seen == [{"tensors.bin": 0}, {"tensors.bin": 2 * 4 * 560}]  # (7, 10, 2, 2, 2)
        assert not (out / "dataset").exists()
        assert list(out.iterdir()) == []

    def test_failed_chunk_of_an_extract_leaves_no_dataset(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(to_json(fast_config(tmp_path / "rec"))))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        ds_dir = tmp_path / "ds"
        seen = fail_second_chunk(monkeypatch, ds_dir)
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir), "--config", str(cfg_path),
        ]) == 1
        assert capsys.readouterr().err == "error: second chunk failed\n"
        assert seen == [{"tensors.bin": 0}, {"tensors.bin": 2 * 4 * 560}]  # (7, 10, 2, 2, 2)
        assert not ds_dir.exists()
        assert not list(tmp_path.glob(".*"))

    def test_chunk_size_does_not_change_the_dataset(self, tmp_path, monkeypatch):
        # chunks of two windows cut the run's eight windows four ways
        stop_before_training(monkeypatch)
        for name, chunk_samples in (("whole", 1 << 16), ("pairs", 2 * 640 * 2)):
            monkeypatch.setattr(connectivity, "_WINDOW_CHUNK_SAMPLES", chunk_samples)
            with pytest.raises(RuntimeError, match="stage 'train' failed"):
                pipeline_run(fast_config(tmp_path / name))
        files = sorted(p.name for p in (tmp_path / "whole" / "dataset").iterdir())
        assert files == ["manifest.json", "tensors.bin"]
        assert len(read_dataset(tmp_path / "whole" / "dataset")[0]) == 8
        for name in files:
            assert (tmp_path / "whole" / "dataset" / name).read_bytes() == (
                tmp_path / "pairs" / "dataset" / name
            ).read_bytes(), name


class TestStoredModel:
    def test_model_file_holds_exactly_the_trained_model(self, tmp_path, monkeypatch):
        cfg = fast_config(tmp_path / "run")
        dataset = tmp_path / "dataset"
        tensors = extract_tensors(study_windows(cfg), cfg.pipeline, FitDiagnostics())
        write_dataset(tensors, dataset, cfg.pipeline, cfg.split.test_fraction, cfg.seed)
        real_train, trained = runner.train, []

        def keep(*args):
            model, history = real_train(*args)
            trained.append(model)
            return model, history

        monkeypatch.setattr(runner, "train", keep)
        model_path = tmp_path / "model.bin"
        runner.train_dataset(cfg, dataset, model_path, tmp_path / "history.json")
        [model] = trained
        stored, stats = load_model(model_path)
        assert model.params.dtype == stored.params.dtype == np.float32
        assert stored.params.tobytes() == model.params.tobytes()

        train_ds, test_ds = split_dataset(*read_dataset(dataset))
        _, normed = normalize_features(train_ds)
        in_memory = {
            "train": evaluate(model, normed).to_dict(),
            "test": evaluate(model, stats.apply_many(test_ds)).to_dict(),
            "threshold": THRESHOLD,
        }
        assert runner.evaluate_stored(model_path, dataset) == in_memory


class TestStageMemory:
    """After the dataset write, each stage holds one float32 copy of its windows."""

    def test_traced_peaks_grow_by_about_one_copy_per_window(self, tmp_path):
        # windows of the default study's shape, w = 22,400 float32 bytes each;
        # the training side's float64 stack alone took 1.7 w per window
        cfg = RunConfig(train=TrainConfig(epochs=1))
        rng = np.random.default_rng(0)
        peaks = {}
        for n in (120, 200):
            dataset, model_path = tmp_path / f"ds{n}", tmp_path / f"model{n}.bin"
            write_dataset(
                (WindowTensor(values=rng.standard_normal((7, 10, 4, 4, 5)).astype(np.float32),
                              label=i % 2, source_id=f"w{i}") for i in range(n)),
                dataset, cfg.pipeline, cfg.split.test_fraction, cfg.seed,
            )
            tracemalloc.start()
            try:
                runner.train_dataset(cfg, dataset, model_path, tmp_path / "history.json")
                train_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                model, tensors, manifest = runner._stored(model_path, dataset)
                runner._metrics(dataset, model, tensors, manifest)
                relevance_report(model, tensors)
                peaks[n] = train_peak, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        w = 4 * 7 * 10 * 4 * 4 * 5
        train_growth, eval_growth = ((b - a) / 80 / w for a, b in zip(peaks[120], peaks[200]))
        # at most the read set beside its z-scored training side, 1.85 w
        # (1.7 measured); a float64 stack of the training side made it 2.7 w
        assert train_growth < 2.2
        # the z-scored set (1 w) beside relevance's per-sample activation
        # potentials (0.64 w); a second z-scored copy of the set made it 2.0 w
        assert eval_growth < 1.85


class TestRunManifest:
    def test_write_refuses_missing_files(self, tmp_path):
        manifest = RunManifest(
            config_hash="x", seed=0, versions={}, threads={}, warnings={}, timing_s={},
            files=["ghost.bin"], config={},
        )
        with pytest.raises(RuntimeError, match="ghost.bin"):
            manifest.write(tmp_path / "run_manifest.json")
        assert not (tmp_path / "run_manifest.json").exists()
