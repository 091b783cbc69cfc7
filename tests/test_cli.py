"""CLI contract: exit codes, config/flag precedence, subcommand chain."""

import json
from dataclasses import replace

import pytest
from test_dataset import make_tensors, write_format_2_dataset
from test_runner import fast_config

from eegfusion import runner
from eegfusion.cli import main
from eegfusion.connectivity import PipelineConfig
from eegfusion.dataset import read_dataset, split_dataset, write_dataset
from eegfusion.dsp import DEFAULT_BANDS, BandSpec, design_bandpass
from eegfusion.model import TrainConfig, evaluate, load_model
from eegfusion.runner import RunConfig, SplitConfig, SynthStudyConfig, validate_run_config
from eegfusion.signal_io import load_recording, save_recording
from eegfusion.util import from_json, to_json


def write_config(cfg: RunConfig, path) -> str:
    return write_doc(to_json(cfg), path)


def write_doc(doc: dict, path) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_config_field_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "frobnicate" in err

    def test_invalid_json_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{ nope")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_is_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "ghost.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_recording_index_is_exit_1(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.json"
        assert main(["extract", "--recordings", str(ghost), "--out", str(tmp_path / "d")]) == 1
        assert "ghost.json" in capsys.readouterr().err

    def test_manifest_without_shape_names_file_and_key(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "eegfusion-dataset", "format_version": 3}))
        code = main(["train", "--dataset", str(tmp_path), "--model-out", str(tmp_path / "m.bin")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}: shape: required field is missing\n"

    def test_missing_report_is_exit_1(self, tmp_path, capsys):
        code = main([
            "plot", "--report", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path / "x.svg"),
        ])
        assert code == 1
        capsys.readouterr()


class TestEarlyValidation:
    def test_nyquist_violation_stops_before_any_output(self, tmp_path, capsys):
        # gamma reaching 200 Hz cannot be filtered at fs 256; the run must
        # exit 2 naming the field and leave the output directory untouched
        out = tmp_path / "never"
        cfg = RunConfig(
            out_dir=str(out),
            synth=SynthStudyConfig(fs=256.0, coupling_strength=0.0),
            pipeline=PipelineConfig(
                bands=(
                    BandSpec("delta", 2.0, 4.0), BandSpec("theta", 4.0, 8.0),
                    BandSpec("alpha", 8.0, 13.0), BandSpec("beta", 13.0, 30.0),
                    BandSpec("gamma", 30.0, 200.0),
                )
            ),
        )
        path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "pipeline.bands[4].high_hz" in err
        assert not out.exists()


    @pytest.mark.parametrize("order", [400, 1000])
    def test_overflowing_filter_design_is_exit_2_before_output(self, tmp_path, capsys, order):
        # at these orders scipy's butter returns a non-finite design for some
        # default bands and raises OverflowError for others; either names the
        # order, not a band
        out = tmp_path / "never"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": {"filter_order": order}}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pipeline.filter_order: ") and err.count("\n") == 1
        assert not out.exists()

    def test_odd_filter_order_names_the_field_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": {"filter_order": 3}}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: pipeline.filter_order: order must be even and >= 2, got 3\n"
        )
        assert not out.exists()

    def test_refused_order_flag_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "--order", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: pipeline.order: must be >= 1, got 0\n"
        assert not out.exists()

    def test_negative_seed_flag_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"
        assert not out.exists()

    def test_ill_typed_field_stops_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        doc = to_json(fast_config(out))
        doc["train"]["epochs"] = 2.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        assert "train.epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_unstable_synth_stops_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        doc = to_json(fast_config(out))
        doc["synth"]["coupling_strength"] = 0.9
        path = write_doc(doc, tmp_path / "cfg.json")
        assert main(["synth", "--config", path]) == 2
        assert "synth.coupling_strength" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("noise_std", [1e300, 1e200, 1e-160, 1e-200, 1e-300])
    def test_noise_the_floats_cannot_hold_stops_before_any_output(
        self, tmp_path, capsys, noise_std
    ):
        # synthesis or the spectral measures would overflow or underflow
        out = tmp_path / "never"
        doc = to_json(fast_config(out))
        doc["synth"]["noise_std"] = noise_std
        path = write_doc(doc, tmp_path / "cfg.json")
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == (
            f"config error: synth.noise_std: must lie in [1e-50, 1e+50], got {noise_std}\n"
        )
        assert not out.exists()

    def test_extract_checks_the_pipeline_against_the_recordings(self, tmp_path, capsys):
        # the default pipeline's beta band (13-30 Hz) lies above the 16 Hz
        # Nyquist frequency of fast_config's fs=32 recordings
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        capsys.readouterr()
        ds_dir = tmp_path / "ds"
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir),
        ]) == 2
        assert "pipeline.bands[3].high_hz" in capsys.readouterr().err
        assert not ds_dir.exists()

    def test_extract_rejects_a_band_whose_valid_design_is_cached(self, tmp_path, capsys):
        # designs are shared per (band, fs, order): the beta band designed at
        # fs=128 must not pass for fast_config's fs=32 recordings
        design_bandpass(DEFAULT_BANDS[3], 128.0, 4)
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(tmp_path / "ds"),
        ]) == 2
        assert "pipeline.bands[3].high_hz" in capsys.readouterr().err

    def test_train_checks_the_batch_size_against_the_split(self, tmp_path, capsys):
        cfg = fast_config(tmp_path / "rec")
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        big_path = write_config(
            replace(cfg, train=TrainConfig(epochs=1, batch_size=64)), tmp_path / "big.json"
        )
        ds_dir = tmp_path / "ds"
        assert main(["synth", "--config", cfg_path]) == 0
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir), "--config", cfg_path,
        ]) == 0
        capsys.readouterr()
        model_path = tmp_path / "model.bin"
        assert main([
            "train", "--dataset", str(ds_dir), "--model-out", str(model_path),
            "--config", big_path,
        ]) == 2
        assert "train.batch_size" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("key", ["csv", "annotations", "fs"])
    def test_index_entry_missing_a_key_names_the_index_and_key(self, tmp_path, capsys, key):
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        index_path = tmp_path / "rec" / "recordings.json"
        index = json.loads(index_path.read_text())
        del index["recordings"][1][key]
        index_path.write_text(json.dumps(index))
        capsys.readouterr()
        assert main([
            "extract", "--recordings", str(index_path), "--out", str(tmp_path / "ds"),
            "--config", cfg_path,
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {index_path}: recordings[1].{key}: required field is missing\n"
        )
        assert not (tmp_path / "ds").exists()


    @pytest.mark.parametrize("text, message", [
        ("{ nope", "invalid JSON: "),
        (json.dumps({}), "recordings: required field is missing"),
        (json.dumps({"recordings": [], "entries": []}), "entries: unknown field"),
        (json.dumps({"recordings": 3}), "recordings: must be a list"),
        (json.dumps([]), "<root>: must be a JSON object"),
    ], ids=["invalid_json", "no_recordings", "unknown_key", "int_recordings", "list_index"])
    def test_malformed_index_names_the_index(self, tmp_path, capsys, text, message):
        index_path = tmp_path / "recordings.json"
        index_path.write_text(text)
        assert main(["extract", "--recordings", str(index_path), "--out", str(tmp_path / "ds")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {index_path}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("fs", ["128", True, None])
    def test_index_fs_that_is_not_a_number_names_the_index(self, tmp_path, capsys, fs):
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        index_path = tmp_path / "rec" / "recordings.json"
        index = json.loads(index_path.read_text())
        index["recordings"][1]["fs"] = fs
        index_path.write_text(json.dumps(index))
        capsys.readouterr()
        assert main([
            "extract", "--recordings", str(index_path), "--out", str(tmp_path / "ds"),
            "--config", cfg_path,
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {index_path}: recordings[1].fs: must be a finite number, got {fs!r}\n"
        )
        assert not (tmp_path / "ds").exists()

    def test_extract_refuses_a_fraction_out_of_range(self, tmp_path, capsys):
        cfg = fast_config(tmp_path / "rec")
        assert main(["synth", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 0
        doc = to_json(cfg)
        doc["split"]["test_fraction"] = 1.5
        capsys.readouterr()
        ds_dir = tmp_path / "ds"
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir), "--config", write_doc(doc, tmp_path / "bad.json"),
        ]) == 2
        assert capsys.readouterr().err == (
            "config error: split.test_fraction: must lie in (0, 1), got 1.5\n"
        )
        assert not ds_dir.exists()

    def test_extract_refuses_a_split_that_leaves_a_side_empty(self, tmp_path, capsys):
        # one recording per class gives 2 windows per class, and 0.2 sends
        # round(0.4) = 0 of them to test; run refuses the same config
        cfg = fast_config(tmp_path / "rec")
        cfg = replace(cfg, synth=replace(cfg.synth, n_per_class=1), split=SplitConfig(0.2))
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        capsys.readouterr()
        ds_dir = tmp_path / "ds"
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir), "--config", cfg_path,
        ]) == 2
        assert capsys.readouterr().err == (
            "config error: split.test_fraction: a class of 2 windows split at 0.2 "
            "leaves a side empty\n"
        )
        assert not ds_dir.exists()
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("config error: split.test_fraction: ")
        assert not (tmp_path / "run").exists()

    def test_extract_of_one_class_is_an_input_error_naming_the_index(self, tmp_path, capsys):
        # uncoupled recordings give non-seizure windows only: the index is at
        # fault, not split.test_fraction
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        index_path = tmp_path / "rec" / "recordings.json"
        index = json.loads(index_path.read_text())
        index["recordings"] = [e for e in index["recordings"] if e["kind"] == "uncoupled"]
        index_path.write_text(json.dumps(index))
        capsys.readouterr()
        ds_dir = tmp_path / "ds"
        assert main([
            "extract", "--recordings", str(index_path), "--out", str(ds_dir),
            "--config", cfg_path,
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {index_path}: recordings: their windows have labels [0]; "
            "the split needs both classes\n"
        )
        assert not ds_dir.exists()

    def test_extract_refuses_a_flat_channel_before_any_extraction(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        index_path = tmp_path / "rec" / "recordings.json"
        entry = json.loads(index_path.read_text())["recordings"][-1]
        rec = load_recording(tmp_path / "rec" / entry["csv"], fs=entry["fs"])
        rec.samples[:, 1] = 0.0
        save_recording(rec, tmp_path / "rec" / entry["csv"])
        capsys.readouterr()
        monkeypatch.setattr("eegfusion.cli.stream_tensors", None)  # never reached
        ds_dir = tmp_path / "ds"
        assert main([
            "extract", "--recordings", str(index_path), "--out", str(ds_dir),
            "--config", cfg_path,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {index_path}: window '{rec.id}@")
        assert err.endswith(", sub-window 0: channel 1 is flat (every sample is 0.0)\n")
        assert not ds_dir.exists()

    def test_run_refuses_a_flat_channel_and_leaves_no_dataset(self, tmp_path, capsys, monkeypatch):
        real = runner.generate_synthetic

        def third_flat(spec):
            rec, ann = real(spec)
            if rec.id == "coupled-00":
                rec.samples[:, 1] = 0.0
            return rec, ann

        monkeypatch.setattr(runner, "generate_synthetic", third_flat)
        cfg_path = write_config(fast_config(tmp_path / "run"), tmp_path / "cfg.json")
        assert main(["run", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert "sub-window 0: channel 1 is flat (every sample is 0.0)" in err
        assert not (tmp_path / "run" / "dataset").exists()


class TestOverrides:
    def test_seed_flag_beats_config_value(self, tmp_path, capsys):
        base = fast_config(tmp_path / "ignored")
        path_a = write_config(replace(base, seed=5), tmp_path / "a.json")
        path_b = write_config(replace(base, seed=0), tmp_path / "b.json")
        assert main(["synth", "--config", path_a, "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--config", path_b, "--seed", "5",
                     "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for name in ("recordings.json", "coupled-00.csv", "uncoupled-01.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_scheme_flag_is_usage_error(self, capsys):
        assert main(["train", "--dataset", "x", "--model-out", "y", "--scheme", "9"]) == 2
        capsys.readouterr()

    def test_removed_mode_flag_is_usage_error(self, capsys):
        assert main(["run", "--mode", "per_band"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--per-sample", "--predicted-labels"])
    def test_removed_explain_flags_are_usage_errors(self, flag, capsys):
        assert main(["explain", "--model", "m", "--dataset", "d", flag]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSubcommandChain:
    def test_synth_extract_train_eval_explain_plot(self, tmp_path, capsys):
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")

        assert main(["synth", "--config", cfg_path]) == 0
        index = json.loads((tmp_path / "rec" / "recordings.json").read_text())
        assert len(index["recordings"]) == 4
        for entry in index["recordings"]:
            assert (tmp_path / "rec" / entry["csv"]).exists()
            assert (tmp_path / "rec" / entry["annotations"]).exists()

        ds_dir = tmp_path / "ds"
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir), "--config", cfg_path,
        ]) == 0
        tensors, manifest = read_dataset(ds_dir)
        # 2 uncoupled recordings x 2 free windows + 2 coupled x 2 seizure slices
        assert len(tensors) == 8
        assert manifest.shape == (7, 10, 2, 2, 2)
        assert sorted({t.label for t in tensors}) == [0, 1]

        model_path = tmp_path / "model.bin"
        assert main([
            "train", "--dataset", str(ds_dir), "--model-out", str(model_path),
            "--config", cfg_path,
        ]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[-1])
        assert summary["epochs"] == 2
        history = json.loads((tmp_path / "model.bin.history.json").read_text())
        assert [h["epoch"] for h in history] == [0, 1]

        metrics_path = tmp_path / "metrics.json"
        assert main([
            "eval", "--model", str(model_path), "--dataset", str(ds_dir),
            "--out", str(metrics_path),
        ]) == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(metrics_path.read_text())
        assert printed == on_disk
        assert printed["threshold"] == 0.5
        counts = [printed[side][k] for side in ("train", "test") for k in ("tp", "fp", "fn", "tn")]
        assert sum(counts) == 8

        # the CLI numbers must match the library route exactly
        model, stats = load_model(model_path)
        train_ds, test_ds = split_dataset(stats.apply_many(tensors), manifest)
        assert printed["train"] == evaluate(model, train_ds).to_dict()
        assert printed["test"] == evaluate(model, test_ds).to_dict()

        report_path = tmp_path / "relevance.json"
        csv_path = tmp_path / "relevance.csv"
        assert main([
            "explain", "--model", str(model_path), "--dataset", str(ds_dir),
            "--out", str(report_path), "--csv", str(csv_path),
        ]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert set(report["classes"]) == {"non_seizure", "seizure"}
        assert csv_path.read_text().startswith("feature,class,percent")

        svg_path = tmp_path / "relevance.svg"
        assert main(["plot", "--report", str(report_path), "--out", str(svg_path)]) == 0
        capsys.readouterr()
        assert svg_path.read_text().startswith("<svg ")

    def test_chain_reproduces_run(self, tmp_path, capsys):
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        run = tmp_path / "run"
        assert main(["run", "--config", cfg_path, "--out", str(run)]) == 0
        ds_dir, model_path = tmp_path / "ds", tmp_path / "model.bin"
        for argv in (
            ["synth", "--config", cfg_path],
            ["extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
             "--out", str(ds_dir), "--config", cfg_path],
            ["train", "--dataset", str(ds_dir), "--model-out", str(model_path),
             "--config", cfg_path],
            ["eval", "--model", str(model_path), "--dataset", str(ds_dir),
             "--out", str(tmp_path / "metrics.json")],
            ["explain", "--model", str(model_path), "--dataset", str(ds_dir),
             "--out", str(tmp_path / "relevance.json")],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()
        pairs = [
            (run / "model.bin", model_path),
            (run / "history.json", tmp_path / "model.bin.history.json"),
            (run / "metrics.json", tmp_path / "metrics.json"),
        ]
        pairs += [(p, ds_dir / p.name) for p in sorted((run / "dataset").iterdir())]
        assert len(pairs) == 3 + 2  # the manifest and the tensor file
        for a, b in pairs:
            assert a.read_bytes() == b.read_bytes(), a.name
        classes = [json.loads(p.read_text())["classes"]
                   for p in (run / "relevance.json", tmp_path / "relevance.json")]
        assert classes[0] == classes[1]

    def test_extract_reports_the_aic_cap_hits_of_the_run_manifest(self, tmp_path, capsys):
        cfg = fast_config(tmp_path / "rec")
        cfg = replace(cfg, pipeline=replace(cfg.pipeline, aic=True, aic_max=3))
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        run = tmp_path / "run"
        assert main(["run", "--config", cfg_path, "--out", str(run)]) == 0
        hits = json.loads((run / "run_manifest.json").read_text())["warnings"]["order_cap_hits"]
        assert hits > 0
        assert main(["synth", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(tmp_path / "ds"), "--config", cfg_path,
        ]) == 0
        assert f"order_cap_hits={hits}" in capsys.readouterr().err

    def test_eval_prints_the_run_metrics_file(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg_path = write_config(fast_config(run), tmp_path / "cfg.json")
        assert main(["run", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--model", str(run / "model.bin"), "--dataset", str(run / "dataset"),
        ]) == 0
        assert capsys.readouterr().out == (run / "metrics.json").read_text()

    def test_explain_prints_report_without_out_flag(self, tmp_path, capsys):
        cfg_path = write_config(fast_config(tmp_path / "run"), tmp_path / "cfg.json")
        assert main(["run", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main([
            "explain", "--model", str(tmp_path / "run" / "model.bin"),
            "--dataset", str(tmp_path / "run" / "dataset"),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["classes"]) == {"non_seizure", "seizure"}


def dataset_windows(ds_dir) -> int:
    """The windows of a dataset directory, which must hold only its manifest
    and a tensor file of the size that the manifest gives."""
    assert sorted(p.name for p in ds_dir.iterdir()) == ["manifest.json", "tensors.bin"]
    return len(read_dataset(ds_dir)[0])


def windows_per_recording(cfg: RunConfig, n: int) -> RunConfig:
    return replace(cfg, synth=replace(cfg.synth, windows_per_recording=n))


class TestDatasetDirectory:
    """A dataset directory is replaced whole, and only when it holds a dataset."""

    def test_smaller_rerun_of_run_leaves_only_its_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        for n, windows in ((3, 12), (2, 8)):
            cfg = windows_per_recording(fast_config(out), n)
            assert main(["run", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 0
            assert dataset_windows(out / "dataset") == windows
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == sorted(
            manifest["files"] + ["run_manifest.json"]
        )
        capsys.readouterr()

    def test_smaller_rerun_of_extract_leaves_only_its_files(self, tmp_path, capsys):
        cfg = windows_per_recording(fast_config(tmp_path / "rec"), 3)
        assert main(["synth", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 0
        ds_dir = tmp_path / "ds"
        for n, windows in ((3, 12), (2, 8)):
            cfg_path = write_config(windows_per_recording(cfg, n), tmp_path / "cfg.json")
            assert main([
                "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
                "--out", str(ds_dir), "--config", cfg_path,
            ]) == 0
            assert dataset_windows(ds_dir) == windows
        assert not list(tmp_path.glob(".*"))
        capsys.readouterr()

    def test_run_refuses_a_foreign_dataset_directory_before_any_compute(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        (out / "dataset").mkdir(parents=True)
        (out / "dataset" / "notes.txt").write_text("mine")
        monkeypatch.setattr(runner, "generate_synthetic", None)  # any synthesis fails
        assert main(["run", "--config", write_config(fast_config(out), tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: stage 'write_dataset' failed: {out / 'dataset'}: holds 'notes.txt', "
            "which is not a dataset file; refusing to replace the directory\n"
        )
        assert [p.name for p in out.iterdir()] == ["dataset"]
        assert [p.name for p in (out / "dataset").iterdir()] == ["notes.txt"]
        assert (out / "dataset" / "notes.txt").read_text() == "mine"

    def test_extract_refuses_a_foreign_directory_before_any_compute(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_path = write_config(fast_config(tmp_path / "rec"), tmp_path / "cfg.json")
        assert main(["synth", "--config", cfg_path]) == 0
        ds_dir = tmp_path / "ds"
        ds_dir.mkdir()
        (ds_dir / "tensors.bin").write_bytes(b"")
        (ds_dir / "notes.txt").write_text("mine")
        capsys.readouterr()
        monkeypatch.setattr(runner, "build_feature_tensors", None)  # any extraction fails
        assert main([
            "extract", "--recordings", str(tmp_path / "rec" / "recordings.json"),
            "--out", str(ds_dir), "--config", cfg_path,
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {ds_dir}: holds 'notes.txt', which is not a dataset file; "
            "refusing to replace the directory\n"
        )
        assert sorted(p.name for p in ds_dir.iterdir()) == ["notes.txt", "tensors.bin"]
        assert (ds_dir / "notes.txt").read_text() == "mine"
        assert not list(tmp_path.glob(".*"))


class TestDatasetFiles:
    """``train`` reads a dataset's tensor file by its manifest, before training."""

    @pytest.mark.parametrize("change, found", [
        (lambda b: b[:-4], ", tensors.bin holds 22399"),
        (lambda b: b + b"\0" * 4, ", tensors.bin holds 22401"),
        (None, ": [Errno 2] No such file or directory: '{path}'"),
    ], ids=["one_float_short", "one_float_long", "missing"])
    def test_tensor_file_of_the_wrong_size_exits_1_before_training(
        self, tmp_path, capsys, monkeypatch, change, found
    ):
        ds_dir, model_path = tmp_path / "ds", tmp_path / "m.bin"
        write_dataset(make_tensors(n=4), ds_dir, PipelineConfig())
        tensors = ds_dir / "tensors.bin"
        if change is None:
            tensors.unlink()
        else:
            tensors.write_bytes(change(tensors.read_bytes()))
        monkeypatch.setattr(runner, "train", None)  # any training fails
        assert main(["train", "--dataset", str(ds_dir), "--model-out", str(model_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ds_dir / 'manifest.json'}: windows: 4 windows of shape [7, 10, 4, 4, 5] "
            f"need 22400 floats{found.format(path=tensors)}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]

    def test_format_2_dataset_exits_1_naming_format_version(self, tmp_path, capsys, monkeypatch):
        write_format_2_dataset(make_tensors(n=4), tmp_path / "ds")
        monkeypatch.setattr(runner, "train", None)  # any training fails
        assert main(["train", "--dataset", str(tmp_path / "ds"),
                     "--model-out", str(tmp_path / "m.bin")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'ds' / 'manifest.json'}: format_version: must be 3, got 2\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


class TestRunCommand:
    def test_run_summary_and_manifest(self, tmp_path, capsys):
        cfg_path = write_config(fast_config(tmp_path / "out"), tmp_path / "cfg.json")
        assert main(["run", "--config", cfg_path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["out_dir"] == str(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["config_hash"] == summary["config_hash"]
        assert summary["test_accuracy"] == manifest["metrics"]["test"]["accuracy"]

    def test_default_config_is_validated_with_overrides(self, tmp_path, capsys):
        # no config file at all: defaults plus flags must still hit the
        # validator (order 60 cannot fit in 256-sample sub-windows at C=4)
        assert main(["run", "--out", str(tmp_path / "x"), "--order", "60"]) == 2
        assert "pipeline.order" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, field", [
        ("order", "pipeline.order"), ("aic_max", "pipeline.aic_max"),
    ], ids=["fixed", "aic"])
    def test_order_the_fit_refuses_is_exit_2_before_output(self, tmp_path, capsys, key, field):
        # C=3, 256-sample sub-windows: a fit of order p needs more than
        # p * (C + 1) rows, so 63 is the largest order and 64 must not pass
        doc = {
            "synth": {"n_channels": 3, "n_per_class": 2, "windows_per_recording": 4},
            "train": {"batch_size": 1},
        }
        aic = {"aic": True} if key == "aic_max" else {}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "pipeline": {**aic, key: 64}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        validate_run_config(from_json(RunConfig, {**doc, "pipeline": {**aic, key: 63}}))
