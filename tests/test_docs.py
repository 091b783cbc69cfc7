"""README's examples parse with the code they document.

The JSON config example must parse as a ``RunConfig`` with
``util.from_json``, where each section checks itself, and pass
``validate_run_config``, every ``eegfusion`` command line of its shell
blocks must parse with the CLI's own argument parser, and the field list of
each on-disk format must be its dataclass's, so a deleted or renamed field
or flag fails here rather than in a reader's shell.
"""

import dataclasses
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from eegfusion.cli import build_parser
from eegfusion.runner import RunConfig, validate_run_config
from eegfusion.util import from_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in fenced_blocks("sh")
    for line in block.splitlines()
    if line.startswith("eegfusion ")
]


def test_json_config_example_is_a_valid_run_config():
    (block,) = fenced_blocks("json")
    validate_run_config(from_json(RunConfig, json.loads(block)))


def test_stage_chain_is_documented():
    verbs = [argv[0] for argv in COMMANDS]
    assert {"synth", "extract", "train", "eval", "explain", "plot", "run"} <= set(verbs)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


#: (module, dataclass, fields) of each row of the README's on-disk formats table.
FORMAT_ROWS = re.findall(r"^\| [^|]+ \| `(\w+)\.(\w+)` \| ([^|]+) \|$", README, flags=re.M)


def test_on_disk_formats_list_every_file_dataclass():
    assert {cls for _, cls, _ in FORMAT_ROWS} == {
        "RecordingsIndex", "IndexEntry", "AnnotationFile", "Seizure", "DatasetManifest",
        "SplitRecord", "WindowRecord", "ModelHeader", "NormStatsRecord", "RelevanceReport",
        "ClassRelevance",
    }


@pytest.mark.parametrize("module, cls, listed", FORMAT_ROWS, ids=[r[1] for r in FORMAT_ROWS])
def test_on_disk_format_fields_are_the_dataclass_fields(module, cls, listed):
    tp = getattr(importlib.import_module(f"eegfusion.{module}"), cls)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(tp)]
