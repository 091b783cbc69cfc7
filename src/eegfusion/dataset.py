"""Tensor dataset on disk: a manifest JSON plus one binary file per window.

Each window file holds the (F, T, C, C, B) tensor as little-endian 32-bit
floats in C order. The manifest records the shape, feature order, band
table, extraction config (and its hash), the train/test split record, and
per-window label/id/file, so a dataset directory is self-describing.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .connectivity import FEATURE_ORDER, PipelineConfig, WindowTensor
from .signal_io import _check_test_fraction, train_test_split
from .util import ConfigError, config_hash, from_json, read_json, to_json

__all__ = ["MANIFEST_NAME", "write_dataset", "read_dataset", "split_dataset"]

MANIFEST_NAME = "manifest.json"

_DATASET_FORMAT = "eegfusion-dataset"
_DATASET_VERSION = 2


def write_dataset(
    tensors: Iterable[WindowTensor],
    out_dir,
    pipeline_cfg: PipelineConfig,
    test_fraction: float = 0.15,
    seed: int = 0,
) -> Path:
    """Write window tensors and return the manifest path.

    ``tensors`` may be any iterable: each window file is written as its
    tensor arrives, so a generator's tensors are never all held at once. The
    manifest records ``test_fraction`` and ``seed`` as the train/test split
    that :func:`split_dataset` applies. The files go into a fresh hidden
    sibling of ``out_dir``, which replaces ``out_dir`` whole once the manifest
    is written; on any error, the iterable's included, ``out_dir`` keeps what
    it held. An ``out_dir`` holding other files is refused before any is read.
    """
    out_dir = Path(out_dir)
    if out_dir.exists():  # it is replaced whole, so it may hold only a dataset's files
        for p in out_dir.iterdir():
            ours = p.name == MANIFEST_NAME or re.fullmatch(r"w\d{5,}\.bin", p.name)
            if not (ours and p.is_file()):
                raise FileExistsError(f"{out_dir}: holds {p.name!r}, which is not a dataset "
                                      "file; refusing to replace the directory")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    staging, old = root / "new", root / "old"
    staging.mkdir()  # under the umask, as out_dir would be
    windows, shape = [], None
    try:
        for i, t in enumerate(tensors):
            shape = shape or t.values.shape
            if len(shape) != 5:
                raise ValueError(f"expected 5-axis window tensors, got shape {shape}")
            if t.values.shape != shape:
                raise ValueError(
                    f"window {t.source_id!r} has shape {t.values.shape}, expected {shape}"
                )
            fname = f"w{i:05d}.bin"
            windows.append({"file": fname, "label": int(t.label), "source_id": t.source_id})
            (staging / fname).write_bytes(np.ascontiguousarray(t.values, dtype="<f4").tobytes())
        if not windows:
            raise ValueError("refusing to write an empty dataset")
        cfg_doc = to_json(pipeline_cfg)
        manifest = {
            "format": _DATASET_FORMAT,
            "format_version": _DATASET_VERSION,
            "shape": list(shape),
            "feature_order": list(FEATURE_ORDER),
            "bands": cfg_doc["bands"],
            "config": cfg_doc,
            "config_hash": config_hash(cfg_doc),
            "split": {"test_fraction": test_fraction, "seed": seed},
            "windows": windows,
        }
        (staging / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        if out_dir.exists():
            out_dir.rename(old)
        staging.rename(out_dir)
    finally:
        if old.exists() and not out_dir.exists():  # the swap failed halfway
            old.rename(out_dir)
        shutil.rmtree(root)
    return out_dir / MANIFEST_NAME


def read_dataset(path) -> tuple[list[WindowTensor], dict]:
    """Load a dataset directory (or its manifest path) back into memory, the
    values as the stored float32. A manifest or window entry missing a key
    is an error that names the manifest and the key."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.exists():
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != _DATASET_FORMAT:
        raise ValueError(f"{manifest_path}: not a dataset manifest")
    if manifest.get("format_version") != _DATASET_VERSION:
        raise ValueError(
            f"{manifest_path}: unsupported format version {manifest.get('format_version')!r}"
        )
    for key in ("shape", "windows", "split"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: manifest has no {key!r}")
    shape = manifest["shape"]
    if not (isinstance(shape, list) and len(shape) == 5
            and all(type(n) is int and n >= 1 for n in shape)):
        raise ValueError(f"{manifest_path}: shape must be five positive integers, got {shape!r}")
    split = manifest["split"]
    for key, tp in (("test_fraction", float), ("seed", int)):
        if not isinstance(split, dict) or key not in split:
            raise ValueError(f"{manifest_path}: split has no {key!r}")
        try:
            from_json(tp, split[key], f"split.{key}")
        except ConfigError as exc:  # a bad file, not a bad config: exit 1
            raise ValueError(f"{manifest_path}: {exc}") from None
    try:
        _check_test_fraction(split["test_fraction"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: split.{exc}") from None
    shape = tuple(shape)
    count = int(np.prod(shape))
    base = manifest_path.parent
    tensors = []
    for k, w in enumerate(manifest["windows"]):
        for key in ("file", "label", "source_id"):
            if not isinstance(w, dict) or key not in w:
                raise ValueError(f"{manifest_path}: windows[{k}] has no {key!r}")
        blob = (base / w["file"]).read_bytes()
        values = np.frombuffer(blob, dtype="<f4")
        if values.size != count:
            raise ValueError(
                f"{w['file']}: has {values.size} floats, expected {count} for shape {shape}"
            )
        tensors.append(
            WindowTensor(
                values=values.astype(np.float32).reshape(shape),  # a writable copy
                label=int(w["label"]),
                source_id=w["source_id"],
            )
        )
    return tensors, manifest


def split_dataset(tensors: list, manifest: dict) -> tuple[list, list]:
    """The (train, test) sides of a dataset, as its manifest's split record defines."""
    split = manifest["split"]
    return train_test_split(tensors, split["test_fraction"], seed=split["seed"])
