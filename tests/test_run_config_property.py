"""Every run config either exits 2 before any output or completes: a
property test over documents built from ``RunConfig``'s field types."""

import dataclasses
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from eegfusion.dsp import BandSpec
from eegfusion.runner import RunConfig, pipeline_run
from eegfusion.util import ConfigError, from_json, to_json

#: A study of 8 windows, 4 per class, whose completed run takes about 0.1 s.
TINY = {
    "synth": {"n_per_class": 2, "windows_per_recording": 2, "duration_s": 60.0},
    "train": {"epochs": 1, "batch_size": 4},
}

#: Fields whose valid values scale the work, so they take no far edge.
SIZES = {
    "synth.n_per_class", "synth.n_channels", "synth.fs", "synth.duration_s",
    "pipeline.n_freqs", "model.embed_dim", "model.lstm_hidden", "model.dense_sizes",
    "train.epochs",
}

INTS = (-1, 0, 1, 2, 3)
#: 64 Hz is the study's Nyquist rate, and 45 Hz the default bands' top.
FLOATS = (-1.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 45.0, 64.0)
#: JSON values of the wrong type for every field.
WRONG = (None, "1", [1], {})


def edges(tp, path: str, default):
    """JSON edge values of a field of type ``tp``: the type's boundaries,
    the tiny study's value ``default``, a far value unless the field is one
    of ``SIZES``, and values of the wrong type."""
    far = path not in SIZES
    if tp is bool:
        return st.sampled_from((True, False, 0, None))
    if tp is int:
        return st.sampled_from(INTS + (default,) + ((1000, 2**64) if far else ()) + WRONG)
    if tp is float:
        return st.sampled_from(FLOATS + (default, default / 2) + ((1e300,) if far else ()) + WRONG)
    if tp is str:
        return st.sampled_from(("", "x", default) + WRONG)
    if dataclasses.is_dataclass(tp):
        return st.one_of(st.sampled_from(WRONG), st.fixed_dictionaries({
            name: edges(field_tp, f"{path}.{name}", getattr(default, name))
            for name, field_tp in typing.get_type_hints(tp).items()
        }))
    # tuple[X, ...]: the default, or up to three edge items
    item = typing.get_args(tp)[0]
    return st.one_of(
        st.sampled_from(WRONG + (to_json(default),)),
        st.lists(edges(item, path, default[0]), max_size=3),
    )


def leaves(tp, value, path=""):
    """(dotted path, type, value) of every settable field of config
    ``value`` of type ``tp``; a band (a ``BandSpec``) counts as one field,
    as tuples do."""
    for name, field_tp in typing.get_type_hints(tp).items():
        sub = f"{path}.{name}" if path else name
        default = getattr(value, name)
        if dataclasses.is_dataclass(field_tp) and field_tp is not BandSpec:
            yield from leaves(field_tp, default, sub)
        elif sub != "out_dir":
            yield sub, field_tp, default


LEAVES = list(leaves(RunConfig, from_json(RunConfig, TINY)))


@st.composite
def run_config_docs(draw):
    """The tiny study with one to three fields set to edge values."""
    doc = {section: dict(values) for section, values in TINY.items()}
    for path, tp, default in draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=3, unique=True)):
        *sections, name = path.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = draw(edges(tp, path, default))
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=run_config_docs())
def test_a_run_config_exits_2_before_any_output_or_completes(tmp_path_factory, doc):
    out = tmp_path_factory.mktemp("run")
    try:
        pipeline_run(from_json(RunConfig, {**doc, "out_dir": str(out)}))
    except ConfigError:
        assert list(out.iterdir()) == []
    else:
        assert (out / "run_manifest.json").is_file()
