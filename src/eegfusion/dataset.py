"""Tensor dataset on disk: a manifest JSON plus one binary tensor file.

The tensor file holds every window's (F, T, C, C, B) tensor as
little-endian 32-bit floats in C order, back to back in manifest order. The
manifest records the shape, feature order, extraction config (and its
hash), the train/test split record, and each window's label and id, so a
dataset directory is self-describing.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .connectivity import FEATURE_ORDER, PipelineConfig, WindowTensor
from .signal_io import _check_test_fraction, train_test_split
from .util import config_hash, read_json, to_json

__all__ = ["MANIFEST_NAME", "TENSORS_NAME", "DatasetManifest", "write_dataset", "read_dataset", "split_dataset"]

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.bin"


@dataclass(frozen=True)
class SplitRecord:
    """The train/test split that :func:`split_dataset` applies."""

    test_fraction: float
    seed: int

    def __post_init__(self) -> None:
        _check_test_fraction(self.test_fraction)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class WindowRecord:
    """One window's label and id; its tensor is the window's place in the tensor file."""

    label: int
    source_id: str

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset's ``manifest.json``."""

    shape: tuple[int, ...]
    feature_order: tuple[str, ...]
    config: PipelineConfig
    config_hash: str
    split: SplitRecord
    windows: tuple[WindowRecord, ...]
    format: str = "eegfusion-dataset"
    format_version: int = 3

    def __post_init__(self) -> None:
        if len(self.shape) != 5 or min(self.shape) < 1:
            raise ValueError(f"shape must be five positive integers, got {list(self.shape)}")
        if self.feature_order != FEATURE_ORDER:
            raise ValueError(f"feature_order must be {list(FEATURE_ORDER)}")


def write_dataset(
    tensors: Iterable[WindowTensor],
    out_dir,
    pipeline_cfg: PipelineConfig,
    test_fraction: float = 0.15,
    seed: int = 0,
) -> Path:
    """Write window tensors and return the manifest path.

    ``tensors`` may be any iterable: each tensor is appended to the tensor
    file as it arrives, so a generator's tensors are never all held at once. The
    manifest records ``test_fraction`` and ``seed`` as the train/test split
    that :func:`split_dataset` applies. The files go into a fresh hidden
    sibling of ``out_dir``, which replaces ``out_dir`` whole once the manifest
    is written; on any error, the iterable's included, ``out_dir`` keeps what
    it held. An ``out_dir`` holding other files is refused before any is read.
    """
    out_dir = Path(out_dir)
    if out_dir.exists():  # it is replaced whole, so it may hold only a dataset's files
        for p in out_dir.iterdir():
            if not (p.name in (MANIFEST_NAME, TENSORS_NAME) and p.is_file()):
                raise FileExistsError(f"{out_dir}: holds {p.name!r}, which is not a dataset "
                                      "file; refusing to replace the directory")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    staging, old = root / "new", root / "old"
    staging.mkdir()  # under the umask, as out_dir would be
    windows, shape = [], None
    try:
        with open(staging / TENSORS_NAME, "wb") as f:
            for t in tensors:
                shape = shape or t.values.shape
                if t.values.shape != shape:
                    raise ValueError(
                        f"window {t.source_id!r} has shape {t.values.shape}, expected {shape}"
                    )
                windows.append(WindowRecord(int(t.label), t.source_id))
                np.ascontiguousarray(t.values, dtype="<f4").tofile(f)  # unbuffered, so in the file at once
        if not windows:
            raise ValueError("refusing to write an empty dataset")
        manifest = DatasetManifest(
            shape=shape,
            feature_order=FEATURE_ORDER,
            config=pipeline_cfg,
            config_hash=config_hash(to_json(pipeline_cfg)),
            split=SplitRecord(test_fraction, seed),
            windows=tuple(windows),
        )
        text = json.dumps(to_json(manifest), indent=2, sort_keys=True) + "\n"
        (staging / MANIFEST_NAME).write_text(text)
        if out_dir.exists():
            out_dir.rename(old)
        staging.rename(out_dir)
    finally:
        if old.exists() and not out_dir.exists():  # the swap failed halfway
            old.rename(out_dir)
        shutil.rmtree(root)
    return out_dir / MANIFEST_NAME


def read_dataset(path) -> tuple[list[WindowTensor], DatasetManifest]:
    """Load a dataset directory (or its manifest path) back into memory: the
    windows' values are views of one array of the stored float32. A
    malformed manifest, or a tensor file that cannot be read or holds the
    wrong size, is an error that names the manifest and the field."""
    manifest_path = dataset_manifest(path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    manifest = read_json(DatasetManifest, manifest_path)
    values_path = manifest_path.parent / TENSORS_NAME
    n, shape = len(manifest.windows), manifest.shape
    count = n * math.prod(shape)
    field = f"{manifest_path}: windows: {n} windows of shape {list(shape)} need {count} floats"
    try:
        size = values_path.stat().st_size
        if size != 4 * count:
            raise ValueError(f"{field}, {TENSORS_NAME} holds {size / 4:.12g}")
        values = np.fromfile(values_path, dtype="<f4").astype(np.float32, copy=False)
    except OSError as exc:
        raise ValueError(f"{field}: {exc}") from None
    tensors = [
        WindowTensor(values=v, label=w.label, source_id=w.source_id)
        for v, w in zip(values.reshape(n, *shape), manifest.windows)
    ]
    return tensors, manifest


def dataset_manifest(path) -> Path:
    """The manifest of dataset directory ``path``, or ``path`` when it names one."""
    path = Path(path)
    return path / MANIFEST_NAME if path.is_dir() else path


def split_dataset(tensors: list, manifest: DatasetManifest) -> tuple[list, list]:
    """The (train, test) sides of a dataset, as its manifest's split record defines."""
    return train_test_split(tensors, manifest.split.test_fraction, seed=manifest.split.seed)
