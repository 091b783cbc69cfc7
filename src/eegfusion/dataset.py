"""Tensor dataset on disk: a manifest JSON plus one binary file per window.

Each window file holds the (F, T, C, C, B) tensor as little-endian 32-bit
floats in C order. The manifest records the shape, feature order, band
table, extraction config (and its hash), the train/test split record, and
per-window label/id/file, so a dataset directory is self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .connectivity import FEATURE_ORDER, PipelineConfig, WindowTensor
from .signal_io import train_test_split
from .util import atomic_write_text, config_hash, to_json

__all__ = ["MANIFEST_NAME", "write_dataset", "read_dataset", "split_dataset"]

MANIFEST_NAME = "manifest.json"

_DATASET_FORMAT = "eegfusion-dataset"
_DATASET_VERSION = 2


def write_dataset(
    tensors: list[WindowTensor],
    out_dir,
    pipeline_cfg: PipelineConfig,
    test_fraction: float = 0.15,
    seed: int = 0,
) -> Path:
    """Write window tensors and return the manifest path.

    The manifest records ``test_fraction`` and ``seed`` as the train/test
    split that :func:`split_dataset` applies. Window files are written first;
    the manifest goes last and atomically, so its presence implies a
    complete dataset.
    """
    if not tensors:
        raise ValueError("refusing to write an empty dataset")
    shape = tensors[0].values.shape
    if len(shape) != 5:
        raise ValueError(f"expected 5-axis window tensors, got shape {shape}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    windows = []
    for i, t in enumerate(tensors):
        if t.values.shape != shape:
            raise ValueError(
                f"window {t.source_id!r} has shape {t.values.shape}, expected {shape}"
            )
        fname = f"w{i:05d}.bin"
        (out_dir / fname).write_bytes(
            np.ascontiguousarray(t.values, dtype="<f4").tobytes()
        )
        windows.append({"file": fname, "label": int(t.label), "source_id": t.source_id})
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
    manifest_path = out_dir / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def read_dataset(path) -> tuple[list[WindowTensor], dict]:
    """Load a dataset directory (or its manifest path) back into memory, the
    values as the stored float32. A manifest or window entry missing a key
    is an error that names the manifest and the key."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.exists():
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
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
