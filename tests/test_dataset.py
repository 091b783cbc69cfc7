"""On-disk dataset round-trips and manifest integrity."""

import json

import numpy as np
import pytest

from eegfusion.connectivity import FEATURE_ORDER, PipelineConfig, WindowTensor
from eegfusion.dataset import (
    MANIFEST_NAME, TENSORS_NAME, SplitRecord, read_dataset, split_dataset, write_dataset,
)
from eegfusion.signal_io import train_test_split
from eegfusion.util import config_hash, to_json


def make_tensors(n=3, shape=(7, 10, 4, 4, 5), seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        # float32 grid so disk round-trips are exact
        values = rng.standard_normal(shape).astype(np.float32).astype(float)
        out.append(WindowTensor(values=values, label=i % 2, source_id=f"rec@{i * 20:.2f}s"))
    return out


def staged_files(out_dir) -> dict[str, int]:
    """The size of each file in the hidden staging sibling of ``out_dir``."""
    return {
        p.name: p.stat().st_size
        for p in out_dir.parent.glob(f".{out_dir.name}.*/**/*") if p.is_file()
    }


def tensor_bytes(tensors) -> bytes:
    """The tensor file of ``tensors``: each one's little-endian float32, in order."""
    return b"".join(np.asarray(t.values, dtype="<f4").tobytes() for t in tensors)


def write_format_2_dataset(tensors, out_dir) -> None:
    """A dataset as format 2 stored it: one file per window, each named in
    the manifest, and the band table beside the config."""
    write_dataset(tensors, out_dir, PipelineConfig())
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    manifest.update(format_version=2, bands=to_json(PipelineConfig().bands))
    for k, (w, t) in enumerate(zip(manifest["windows"], tensors)):
        w["file"] = f"w{k:05d}.bin"
        (out_dir / w["file"]).write_bytes(tensor_bytes([t]))
    (out_dir / TENSORS_NAME).unlink()
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class TestRoundTrip:
    def test_values_labels_ids_survive(self, tmp_path):
        tensors = make_tensors()
        write_dataset(tensors, tmp_path / "ds", PipelineConfig())
        loaded, _ = read_dataset(tmp_path / "ds")
        assert len(loaded) == len(tensors)
        for orig, back in zip(tensors, loaded):
            assert np.array_equal(back.values, orig.values)
            assert back.label == orig.label
            assert back.source_id == orig.source_id

    def test_values_stay_the_stored_float32(self, tmp_path):
        tensors = make_tensors(n=2)
        write_dataset(tensors, tmp_path, PipelineConfig())
        loaded, _ = read_dataset(tmp_path)
        for orig, back in zip(tensors, loaded):
            assert back.values.dtype == np.float32 and back.values.flags.writeable
            assert back.values.tobytes() == orig.values.astype(np.float32).tobytes()
        assert np.shares_memory(loaded[0].values.base, loaded[1].values)  # views of one array

    def test_tensor_file_holds_the_windows_back_to_back(self, tmp_path):
        tensors = make_tensors(n=3)
        write_dataset(tensors, tmp_path, PipelineConfig())
        assert (tmp_path / TENSORS_NAME).read_bytes() == tensor_bytes(tensors)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        write_dataset(make_tensors(n=3), tmp_path / "a", PipelineConfig(), 0.25, 7)
        loaded, manifest = read_dataset(tmp_path / "a")
        write_dataset(loaded, tmp_path / "b", manifest.config, 0.25, 7)
        for name in (MANIFEST_NAME, TENSORS_NAME):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_float64_values_quantized_to_f32(self, tmp_path):
        t = WindowTensor(
            values=np.full((7, 2, 2, 2, 5), 0.1), label=1, source_id="w"
        )
        write_dataset([t], tmp_path, PipelineConfig())
        loaded, _ = read_dataset(tmp_path)
        assert loaded[0].values[0, 0, 0, 0, 0] == float(np.float32(0.1))

    def test_manifest_path_and_dir_path_equivalent(self, tmp_path):
        tensors = make_tensors(n=2)
        manifest_path = write_dataset(tensors, tmp_path, PipelineConfig())
        assert manifest_path == tmp_path / MANIFEST_NAME
        by_dir, _ = read_dataset(tmp_path)
        by_file, _ = read_dataset(manifest_path)
        for a, b in zip(by_dir, by_file):
            assert np.array_equal(a.values, b.values)

    def test_order_preserved(self, tmp_path):
        tensors = make_tensors(n=5)
        write_dataset(tensors, tmp_path, PipelineConfig())
        loaded, _ = read_dataset(tmp_path)
        assert [t.source_id for t in loaded] == [t.source_id for t in tensors]


class TestManifest:
    def test_describes_dataset(self, tmp_path):
        cfg = PipelineConfig(order=3, aic=True)
        write_dataset(make_tensors(n=2), tmp_path, cfg, test_fraction=0.25, seed=7)
        _, manifest = read_dataset(tmp_path)
        assert manifest.shape == (7, 10, 4, 4, 5)
        assert manifest.feature_order == FEATURE_ORDER
        assert manifest.split == SplitRecord(test_fraction=0.25, seed=7)
        assert manifest.config == cfg
        assert manifest.config_hash == config_hash(to_json(cfg))

    def test_directory_is_the_manifest_and_one_tensor_file(self, tmp_path):
        tensors = make_tensors(n=4)
        write_dataset(tensors, tmp_path, PipelineConfig())
        assert sorted(p.name for p in tmp_path.iterdir()) == [MANIFEST_NAME, TENSORS_NAME]
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == 3 and "bands" not in manifest  # config holds them
        assert manifest["windows"] == [
            {"label": t.label, "source_id": t.source_id} for t in tensors
        ]

    def test_config_hash_ignores_out_dir_location(self, tmp_path):
        tensors = make_tensors(n=2)
        write_dataset(tensors, tmp_path / "a", PipelineConfig())
        write_dataset(tensors, tmp_path / "b" / "nested", PipelineConfig())
        ma = json.loads((tmp_path / "a" / MANIFEST_NAME).read_text())
        mb = json.loads((tmp_path / "b" / "nested" / MANIFEST_NAME).read_text())
        assert ma == mb


class TestSplit:
    def test_split_record_drives_the_stratified_split(self, tmp_path):
        tensors = make_tensors(n=8)
        write_dataset(tensors, tmp_path, PipelineConfig(), test_fraction=0.25, seed=3)
        loaded, manifest = read_dataset(tmp_path)
        train, test = split_dataset(loaded, manifest)
        want_train, want_test = train_test_split(tensors, 0.25, seed=3)
        assert [t.source_id for t in train] == [t.source_id for t in want_train]
        assert [t.source_id for t in test] == [t.source_id for t in want_test]
        assert sorted(t.label for t in test) == [0, 1]


class TestWriteErrors:
    def test_empty_dataset_refused(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_dataset([], tmp_path, PipelineConfig())

    def test_mixed_shapes_refused(self, tmp_path):
        tensors = make_tensors(n=1) + [
            WindowTensor(values=np.zeros((7, 10, 3, 3, 5)), label=0, source_id="odd")
        ]
        with pytest.raises(ValueError, match="'odd'"):
            write_dataset(tensors, tmp_path, PipelineConfig())

    def test_wrong_rank_refused(self, tmp_path):
        t = WindowTensor(values=np.zeros((7, 4, 4)), label=0, source_id="w")
        with pytest.raises(ValueError, match=r"shape must be five positive integers, got \[7, 4"):
            write_dataset([t], tmp_path, PipelineConfig())

    def test_failing_iterable_leaves_no_tensor_file(self, tmp_path):
        # each tensor is appended to the staged tensor file as it arrives,
        # and the staging directory is removed on failure
        def tensors():
            yield from make_tensors(n=2)
            assert staged_files(out) == {TENSORS_NAME: len(tensor_bytes(make_tensors(n=2)))}
            raise RuntimeError("extraction failed")

        out = tmp_path / "ds"
        with pytest.raises(RuntimeError, match="extraction failed"):
            write_dataset(tensors(), out, PipelineConfig())
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", ["first_tensor", "after_two_tensors"])
    def test_failed_rewrite_keeps_the_previous_dataset(self, tmp_path, failure):
        out = tmp_path / "ds"
        write_dataset(make_tensors(n=3), out, PipelineConfig())
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def tensors():
            if failure == "after_two_tensors":
                yield from make_tensors(n=2, seed=1)
            yield WindowTensor(values=np.zeros((7, 4, 4)), label=0, source_id="w")

        with pytest.raises(ValueError, match="shape must be five positive integers|has shape"):
            write_dataset(tensors(), out, PipelineConfig())
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [t.source_id for t in read_dataset(out)[0]] == [
            t.source_id for t in make_tensors(n=3)
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["ds"]

    def test_smaller_rewrite_leaves_only_its_own_files(self, tmp_path):
        write_dataset(make_tensors(n=3), tmp_path / "ds", PipelineConfig())
        write_dataset(make_tensors(n=2, seed=1), tmp_path / "ds", PipelineConfig())
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [MANIFEST_NAME, TENSORS_NAME]
        assert (tmp_path / "ds" / TENSORS_NAME).read_bytes() == tensor_bytes(make_tensors(n=2, seed=1))
        assert [p.name for p in tmp_path.iterdir()] == ["ds"]

    @pytest.mark.parametrize(
        "name", ["notes.txt", "tensors.bin.bak", "manifest.json.tmp", "manifestXjson", "w00000.bin", "sub"]
    )
    def test_directory_holding_a_foreign_entry_is_refused(self, tmp_path, name):
        out = tmp_path / "ds"
        write_dataset(make_tensors(n=2), out, PipelineConfig())
        foreign = out / name
        if name == "sub":
            foreign.mkdir()
            (foreign / "keep.txt").write_text("mine")
        else:
            foreign.write_text("mine")
        before = sorted(p.name for p in out.rglob("*"))

        def tensors():
            raise AssertionError("read before the directory was checked")
            yield

        with pytest.raises(FileExistsError, match=rf"^{out}: holds '{name}'"):
            write_dataset(tensors(), out, PipelineConfig())
        assert sorted(p.name for p in out.rglob("*")) == before
        assert (foreign / "keep.txt" if name == "sub" else foreign).read_text() == "mine"
        assert [p.name for p in tmp_path.iterdir()] == ["ds"]


class TestReadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=MANIFEST_NAME):
            read_dataset(tmp_path)

    def test_foreign_json_rejected(self, tmp_path):
        write_dataset(make_tensors(n=1), tmp_path, PipelineConfig())
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format: must be 'eegfusion-dataset'"):
            read_dataset(tmp_path)

    def test_future_version_rejected(self, tmp_path):
        write_dataset(make_tensors(n=1), tmp_path, PipelineConfig())
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format_version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="99"):
            read_dataset(tmp_path)

    def test_format_2_dataset_names_format_version(self, tmp_path):
        write_format_2_dataset(make_tensors(n=2), tmp_path)
        with pytest.raises(ValueError) as exc:
            read_dataset(tmp_path)
        assert str(exc.value) == f"{tmp_path / MANIFEST_NAME}: format_version: must be 3, got 2"

    @pytest.mark.parametrize("where,key", [
        (None, "shape"), (None, "windows"), (None, "split"),
        (None, "config_hash"), (1, "label"), (1, "source_id"),
    ])
    def test_missing_manifest_key_names_manifest_and_key(self, tmp_path, where, key):
        write_dataset(make_tensors(n=2), tmp_path, PipelineConfig())
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del (manifest if where is None else manifest["windows"][where])[key]
        manifest_path.write_text(json.dumps(manifest))
        field = key if where is None else f"windows[{where}].{key}"
        with pytest.raises(ValueError) as exc:
            read_dataset(tmp_path)
        assert str(exc.value) == f"{manifest_path}: {field}: required field is missing"

    @pytest.mark.parametrize("shape, message", [
        ([7, 10, 4, 4], "shape: must be five positive integers, got [7, 10, 4, 4]"),
        (5, "shape: must be a list"),
        ([7, 10, 4, 4, 0], "shape: must be five positive integers, got [7, 10, 4, 4, 0]"),
        ([7, 10, 4, 4, 5.0], "shape[4]: must be an integer, got 5.0"),
        ([7, 10, 4, 4, True], "shape[4]: must be an integer, got True"),
        ("7x10", "shape: must be a list"),
    ], ids=["four_axes", "int", "zero", "float", "bool", "string"])
    def test_shape_that_is_not_five_positive_ints_names_the_manifest(self, tmp_path, shape, message):
        # the model dims come from this field, so a bad one must not reach training
        write_dataset(make_tensors(n=2), tmp_path, PipelineConfig())
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shape"] = shape
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as exc:
            read_dataset(tmp_path)
        assert str(exc.value).startswith(f"{manifest_path}: {message}")

    def test_invalid_json_names_the_manifest(self, tmp_path):
        manifest_path = tmp_path / MANIFEST_NAME
        manifest_path.write_text("{ nope")
        with pytest.raises(ValueError, match="invalid JSON") as exc:
            read_dataset(tmp_path)
        assert str(exc.value).startswith(f"{manifest_path}: ")

    @pytest.mark.parametrize("split, message", [
        ({"seed": 0}, "split.test_fraction: required field is missing"),
        ({"test_fraction": 0.25}, "split.seed: required field is missing"),
        ([0.25, 0], "split: must be a JSON object"),
        ({"test_fraction": "0.25", "seed": 0}, "split.test_fraction: must be a finite number"),
        ({"test_fraction": 0.25, "seed": "0"}, "split.seed: must be an integer"),
        ({"test_fraction": 0.25, "seed": 1.5}, "split.seed: must be an integer"),
        ({"test_fraction": 1.5, "seed": 0}, "split.test_fraction: must lie in (0, 1), got 1.5"),
        ({"test_fraction": 0.25, "seed": -1}, "split.seed: must be >= 0, got -1"),
    ], ids=["no_fraction", "no_seed", "list", "string_fraction", "string_seed", "float_seed",
            "fraction_out_of_range", "negative_seed"])
    def test_bad_split_record_names_the_manifest(self, tmp_path, split, message):
        write_dataset(make_tensors(n=2), tmp_path, PipelineConfig())
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["split"] = split
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as exc:
            read_dataset(tmp_path)
        assert str(exc.value).startswith(f"{manifest_path}: {message}")

    def test_manifest_that_is_not_an_object_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[]")
        with pytest.raises(ValueError, match="<root>: must be a JSON object"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("change, found", [
        (lambda b: b[:-4], ", tensors.bin holds 11199"),
        (lambda b: b + b"\0" * 4, ", tensors.bin holds 11201"),
        (lambda b: b + b"\0" * 2, ", tensors.bin holds 11200.5"),
        (None, ": [Errno 2] No such file or directory"),
    ], ids=["one_float_short", "one_float_long", "half_a_float_long", "missing"])
    def test_tensor_file_of_the_wrong_size_names_the_manifest_and_count(
        self, tmp_path, change, found
    ):
        write_dataset(make_tensors(n=2), tmp_path, PipelineConfig())
        victim = tmp_path / TENSORS_NAME
        if change is None:
            victim.unlink()
        else:
            victim.write_bytes(change(victim.read_bytes()))
        with pytest.raises(ValueError) as exc:
            read_dataset(tmp_path)
        assert str(exc.value).startswith(
            f"{tmp_path / MANIFEST_NAME}: windows: 2 windows of shape [7, 10, 4, 4, 5] "
            f"need 11200 floats{found}"
        )
