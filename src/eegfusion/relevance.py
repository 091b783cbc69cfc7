"""Per-feature relevance from concat embeddings and the first dense weights.

For a class-conditioned batch of concat activations x^k and the first dense
layer (w_ij, b_j):

    p_ij  = (1/M) sum_k |x_i^k w_ij + b_j|      averaged absolute potential
    c_ij  = p_ij / sum_i' p_i'j                 per-hidden-neuron share
    c_i^+ = sum_j max(0, c_ij)                  net contribution per input

Feature relevance sums c_i^+ over each feature's embedding block and reports
the percentage of the grand total. Normalizing the averaged potentials keeps
every quantity nonnegative and well-defined. Classes are conditioned on the
true labels.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .connectivity import FEATURE_ORDER
from .model import FusionModel, _stack_dataset
from .util import atomic_write_text, read_json, to_json

__all__ = [
    "EmbeddingBatch",
    "DenseWeights",
    "RelevanceReport",
    "CLASS_NAMES",
    "collect_embeddings",
    "first_dense_weights",
    "activation_potentials",
    "contributions",
    "net_contribution",
    "feature_relevance",
    "relevance_report",
    "write_report_json",
    "write_report_csv",
    "load_report_json",
]

CLASS_NAMES = {0: "non_seizure", 1: "seizure"}


@dataclass
class EmbeddingBatch:
    """Concat-layer activations of one class: V is (M, N_in)."""

    V: np.ndarray
    class_label: int
    group_map: np.ndarray


@dataclass
class DenseWeights:
    """First dense layer after the concat: W is (N_in, N2), b is (N2,)."""

    W: np.ndarray
    b: np.ndarray


def first_dense_weights(m: FusionModel) -> DenseWeights:
    layer = m.head[0]
    return DenseWeights(W=layer.W.view(m.params)[0].copy(), b=layer.b.view(m.params)[0].copy())


def collect_embeddings(m: FusionModel, ds, class_label: int) -> EmbeddingBatch:
    """Eval-mode concat activations of the samples labeled as one class."""
    return _class_batch(m, ds, _embed(m, ds), class_label)


def _embed(m: FusionModel, ds) -> np.ndarray:
    """Eval-mode concat embeddings of every sample in ds."""
    return m.embed_batch(_stack_dataset(ds, m.params.dtype)[0])[1]


def _class_batch(m, ds, v: np.ndarray, class_label: int) -> EmbeddingBatch:
    if class_label not in (0, 1):
        raise ValueError(f"class_label must be 0 or 1, got {class_label}")
    member = np.array([t.label == class_label for t in ds])
    if not member.any():
        raise ValueError(f"no samples labeled as class {class_label}")
    return EmbeddingBatch(V=v[member], class_label=class_label, group_map=m.group_map.copy())


def activation_potentials(batch: EmbeddingBatch, w: DenseWeights) -> np.ndarray:
    """p_ij = (1/M) sum_k |x_i^k w_ij + b_j|, shape (N_in, N2)."""
    v = np.asarray(batch.V, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError(f"need a nonempty (M, N_in) batch, got shape {v.shape}")
    if w.W.shape[0] != v.shape[1] or w.b.shape != (w.W.shape[1],):
        raise ValueError(
            f"weight shapes {w.W.shape}/{w.b.shape} do not match N_in {v.shape[1]}"
        )
    return np.abs(v[:, :, None] * w.W[None, :, :] + w.b[None, None, :]).mean(axis=0)


def contributions(p: np.ndarray) -> np.ndarray:
    """c_ij = p_ij / sum_i' p_i'j; every column of the result sums to 1."""
    p = np.asarray(p, dtype=float)
    col = p.sum(axis=0)
    bad = np.where(col <= 0)[0]
    if bad.size:
        raise ValueError(f"hidden neuron {bad[0]}: zero potential column sum")
    return p / col


def net_contribution(c: np.ndarray) -> np.ndarray:
    """c_i^+ = sum_j max(0, c_ij)."""
    return np.maximum(np.asarray(c, dtype=float), 0.0).sum(axis=1)


def feature_relevance(
    c_plus: np.ndarray,
    group_map: np.ndarray,
    feature_names: tuple[str, ...] = FEATURE_ORDER,
) -> dict[str, dict[str, float]]:
    """Per-feature totals of c_i^+ and their percentages of the grand total."""
    c_plus = np.asarray(c_plus, dtype=float)
    group_map = np.asarray(group_map)
    if c_plus.shape != group_map.shape:
        raise ValueError(
            f"c_plus shape {c_plus.shape} does not match group map {group_map.shape}"
        )
    raw = {}
    for fi, name in enumerate(feature_names):
        raw[name] = float(c_plus[group_map == fi].sum())
    grand = sum(raw.values())
    if grand <= 0:
        raise ValueError("grand total of net contributions is zero")
    percent = {name: 100.0 * v / grand for name, v in raw.items()}
    return {"percent": percent, "raw": raw}


@dataclass
class RelevanceReport:
    """Per-class feature percentages plus raw per-neuron contributions."""

    classes: dict[str, dict]
    feature_order: tuple[str, ...]
    config_hash: str | None = None

    def to_dict(self) -> dict:
        return to_json(self)


def relevance_report(m: FusionModel, ds, config_hash: str | None = None) -> RelevanceReport:
    """Class-conditioned feature relevance for every class present in ds."""
    w = first_dense_weights(m)
    labels = sorted({t.label for t in ds})
    if not labels:
        raise ValueError("dataset is empty")
    v = _embed(m, ds)
    classes: dict[str, dict] = {}
    for label in labels:
        batch = _class_batch(m, ds, v, label)
        c_plus = net_contribution(contributions(activation_potentials(batch, w)))
        rel = feature_relevance(c_plus, batch.group_map)
        classes[CLASS_NAMES[label]] = {
            "percent": rel["percent"],
            "raw": rel["raw"],
            "c_plus": c_plus.tolist(),
            "n_samples": int(batch.V.shape[0]),
        }
    return RelevanceReport(
        classes=classes, feature_order=FEATURE_ORDER, config_hash=config_hash
    )


def write_report_json(report: RelevanceReport, path) -> None:
    atomic_write_text(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def load_report_json(path) -> RelevanceReport:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: report is not a JSON object")
    for key in ("feature_order", "classes"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    return RelevanceReport(
        classes=doc["classes"],
        feature_order=tuple(doc["feature_order"]),
        config_hash=doc.get("config_hash"),
    )


def write_report_csv(report: RelevanceReport, path) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["feature", "class", "percent", "raw_c_plus"])
    for cls, payload in sorted(report.classes.items()):
        for name in report.feature_order:
            writer.writerow([name, cls, repr(payload["percent"][name]), repr(payload["raw"][name])])
    atomic_write_text(path, buf.getvalue())
