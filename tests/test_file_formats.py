"""The five JSON file formats, one dataclass each, on the files of a tiny
CLI chain.

Each writer keeps the bytes it wrote before it serialized its dataclass, and
each document survives ``from_json(to_json(x))``. Every malformed input file
either makes the command that reads it exit 1, naming the file and a dotted
field, before any output, or the command completes: a property test over
documents built from each format's field types, with the edge values of
``tests/test_run_config_property.py``.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shutil
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegfusion.cli import RecordingsIndex, main
from eegfusion.dataset import DatasetManifest
from eegfusion.model import ModelHeader
from eegfusion.relevance import RelevanceReport
from eegfusion.signal_io import AnnotationFile
from eegfusion.util import from_json, read_json, to_json
from test_run_config_property import edges

#: A 16-window study (8 per class, 2 channels) whose extraction takes about 0.3 s.
TINY = {
    "synth": {"n_per_class": 2, "windows_per_recording": 4, "duration_s": 100.0, "n_channels": 2},
    "pipeline": {"n_freqs": 32},
    "train": {"epochs": 1, "batch_size": 4},
    "split": {"test_fraction": 0.25},
}

#: file of the chain -> its format
FORMATS = {
    "rec/recordings.json": RecordingsIndex,
    "rec/coupled-00.json": AnnotationFile,
    "ds/manifest.json": DatasetManifest,
    "model.bin": ModelHeader,
    "report.json": RelevanceReport,
}

#: sha256 of each file (of the model file, its header line) as written for the
#: tiny study before the writers serialized dataclasses; the manifest's is of
#: format 3, which is format 2's document without `bands` and each window's `file`
DIGESTS = {
    "rec/recordings.json": "5b3d772cea69d6ecdbafaebe4ab24ad8b04eea4dcd82290cf15c42b2ba54a33f",
    "rec/coupled-00.json": "60d79361ba42036a9005a5462a8f18ac66f6301035a642fc1ff1e66febb24864",
    "ds/manifest.json": "070ffbb41e9d0debd3d4d7e2cd1666daa19843ca8c057c3e79c6dbbbc61560e1",
    "model.bin": "d5261a1211c117eecf28c8f02c86ce5c49ef76695654b0b2256a132109362d7c",
    "report.json": "7e6efbb4116a6d0446a2693b39407fa59ad66a4ab66bff579cb69b9ee33e2254",
}

#: command -> (argv, with {d} the example's directory; the outputs it writes)
COMMANDS = {
    "extract": (["extract", "--config", "{d}/cfg.json", "--recordings",
                 "{d}/rec/recordings.json", "--out", "{d}/out"], ["out"]),
    "train": (["train", "--config", "{d}/cfg.json", "--dataset", "{d}/ds",
               "--model-out", "{d}/out.bin"], ["out.bin", "out.bin.history.json"]),
    "eval": (["eval", "--model", "{d}/model.bin", "--dataset", "{d}/ds",
              "--out", "{d}/out.json"], ["out.json"]),
    "explain": (["explain", "--model", "{d}/model.bin", "--dataset", "{d}/ds",
                 "--out", "{d}/out.json"], ["out.json"]),
    "plot": (["plot", "--report", "{d}/report.json", "--out", "{d}/out.svg"], ["out.svg"]),
}

#: A dotted field below a document's root, such as ``windows[0].label``.
FIELD = re.compile(r"[a-z_]+(\[\d+\]|\.[^\s.:\[]*)*")


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The files of the tiny study's CLI chain, written once."""
    d = tmp_path_factory.mktemp("chain")
    (d / "cfg.json").write_text(json.dumps(TINY))
    for argv in (
        ["synth", "--config", f"{d}/cfg.json", "--out", f"{d}/rec"],
        ["extract", "--config", f"{d}/cfg.json", "--recordings", f"{d}/rec/recordings.json",
         "--out", f"{d}/ds"],
        ["train", "--config", f"{d}/cfg.json", "--dataset", f"{d}/ds",
         "--model-out", f"{d}/model.bin"],
        ["explain", "--model", f"{d}/model.bin", "--dataset", f"{d}/ds",
         "--out", f"{d}/report.json"],
    ):
        assert main(argv) == 0
    return d


def document(path) -> bytes:
    """The JSON document of file ``path``: the first line of a model file."""
    data = path.read_bytes()
    return data.partition(b"\n")[0] if path.suffix == ".bin" else data


@pytest.mark.parametrize("file", FORMATS)
def test_the_writer_keeps_its_bytes_and_the_document_round_trips(chain, file):
    text = document(chain / file)
    assert hashlib.sha256(text).hexdigest() == DIGESTS[file]
    doc = read_json(FORMATS[file], chain / file, text)
    assert from_json(FORMATS[file], to_json(doc)) == doc


def write_doc(path, doc):
    text = json.dumps(doc).encode()
    if path.suffix == ".bin":  # keep the parameter payload
        text += b"\n" + path.read_bytes().partition(b"\n")[2]
    path.write_bytes(text)


def leaves(tp, value, path=()):
    """(path, type, value) of every field of file document ``value`` of type
    ``tp``, each tuple and dict whole, and the fields of a tuple's first item
    and of a dict's first value; a path is a list of keys and indexes."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if path:
        yield path, tp, value
    if origin is types.UnionType:
        yield from leaves(args[0], value, path)
    elif dataclasses.is_dataclass(tp):
        for name, field_tp in typing.get_type_hints(tp).items():
            yield from leaves(field_tp, getattr(value, name), path + (name,))
    elif origin is tuple and value:
        yield from leaves(args[0], value[0], path + (0,))
    elif origin is dict and value:
        key = next(iter(value))
        yield from leaves(args[1], value[key], path + (key,))


def dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


@st.composite
def edits(draw, file, doc):
    """The document of ``file`` with one field set to an edge value."""
    tp = FORMATS[file]
    path, field_tp, value = draw(st.sampled_from(list(leaves(tp, from_json(tp, doc)))))
    new = json.loads(json.dumps(doc))
    node = new
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(edges(field_tp, dotted(path), value))
    return new


def check(chain, tmp_path_factory, command, file, doc):
    d = tmp_path_factory.mktemp(command)
    skip = () if command == "extract" else ("rec",)  # the recordings are large
    shutil.copytree(chain, d, dirs_exist_ok=True, ignore=lambda _, names: set(skip) & set(names))
    write_doc(d / file, doc)
    argv, outputs = COMMANDS[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg.format(d=d) for arg in argv])
    if code == 0:
        return
    message = err.getvalue()
    assert [name for name in outputs if (d / name).exists()] == []
    # the recording's rate is checked against the run config: a config error
    # that names the field, then the index file and the entry
    if code == 2 and file.endswith("recordings.json"):
        assert message.startswith("config error: pipeline."), message
        assert re.search(rf", for {re.escape(str(d / file))}: recordings\[\d+\] \(", message), message
        return
    assert code == 1, message
    head = f"error: {d / file}: "
    assert message.startswith(head), message
    assert FIELD.fullmatch(message[len(head):].split(": ")[0]), message


CASES = [  # (command, file, examples)
    ("extract", "rec/recordings.json", 12),
    ("extract", "rec/coupled-00.json", 12),
    ("train", "ds/manifest.json", 60),
    ("eval", "ds/manifest.json", 40),
    ("eval", "model.bin", 60),
    ("explain", "model.bin", 40),
    ("plot", "report.json", 60),
]


@pytest.mark.parametrize("command, file, examples", CASES, ids=[f"{c}-{f}" for c, f, _ in CASES])
def test_a_malformed_file_exits_1_naming_it_before_any_output_or_completes(
    chain, tmp_path_factory, command, file, examples
):
    doc = json.loads(document(chain / file))

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(edited=edits(file, doc))
    def run(edited):
        check(chain, tmp_path_factory, command, file, edited)

    run()


@pytest.mark.parametrize("k, fs, n_freqs, code, message", [
    (0, 1000.0, 512, 1, "error: {index}: recordings[0]: recording 'uncoupled-00' shorter "
     "than one 20 s window"),
    (2, 64.0, 32, 2, "config error: pipeline.bands[4].high_hz: must be below the Nyquist "
     "frequency 32.0 Hz, got 45.0 in band 'gamma', for {index}: recordings[2] (64 Hz, 2 channels)"),
], ids=["shorter-than-a-window", "past-nyquist"])
def test_an_entry_the_pipeline_cannot_window_names_the_index_and_entry(
    chain, tmp_path, capsys, k, fs, n_freqs, code, message
):
    # at 1000 Hz the entry's 12,800 rows last 12.8 s; at 64 Hz gamma's 45 Hz is past Nyquist
    shutil.copytree(chain / "rec", tmp_path / "rec")
    index = tmp_path / "rec" / "recordings.json"
    doc = json.loads(index.read_text())
    doc["recordings"][k]["fs"] = fs
    index.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "pipeline": {"n_freqs": n_freqs}}))
    argv = ["extract", "--config", str(cfg), "--recordings", str(index), "--out", f"{tmp_path}/out"]
    assert main(argv) == code
    assert capsys.readouterr().err == message.format(index=index) + "\n"
    assert not (tmp_path / "out").exists()
