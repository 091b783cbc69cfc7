"""README's examples parse with the code they document.

The JSON config example must pass ``run_config_from_json`` and
``validate_run_config``, and every ``eegfusion`` command line of its shell
blocks must parse with the CLI's own argument parser, so a deleted or
renamed field or flag fails here rather than in a reader's shell.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from eegfusion.cli import build_parser
from eegfusion.runner import run_config_from_json, validate_run_config

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
    validate_run_config(run_config_from_json(json.loads(block)))


def test_stage_chain_is_documented():
    verbs = [argv[0] for argv in COMMANDS]
    assert {"synth", "extract", "train", "eval", "explain", "plot", "run"} <= set(verbs)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
