"""Fusion classifiers over window tensors: four schemes, training, metrics.

All schemes end in a sigmoid over binary cross-entropy. Schemes 1 and 2
concatenate per-branch embeddings before the dense head; that concat vector
is the substrate of the relevance computation and carries a group map from
embedding index to feature id. Schemes 3 and 4 fuse features before the
recurrent trunk and therefore expose no per-feature embedding.

    scheme 1: one branch per (feature, band): channel-collapse -> LSTM ->
              attention -> dense(d1); concat(F*B*d1) -> head
    scheme 2: one branch per feature: band_mix -> channel-collapse -> LSTM ->
              attention -> dense(d1); concat(F*d1) -> head
    scheme 3: per feature band_mix + channel-collapse to a length-C vector,
              stack to (C, F), contract the feature axis -> trunk
    scheme 4: per feature band_mix to C x C, stack to (C, C, F), feature_mix
              -> shared channel-collapse -> trunk

A scheme's branches share one shape, so they run as one grouped stack: each
layer runs once per batch over a leading branch axis, while the flat vector
keeps every branch's weights together in branch order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit as _sigmoid

from .connectivity import FEATURE_ORDER, NormStats
from .layers import (
    AttentionPool,
    ContractLast,
    ContractRow,
    Dense,
    LSTM,
    ParamRegistry,
)
from .util import ConfigError, atomic_write_bytes, from_json, to_json

__all__ = [
    "ArchConfig",
    "ModelConfig",
    "FusionModel",
    "TrainConfig",
    "Metrics",
    "build_fusion_model",
    "train",
    "evaluate",
    "metrics_from_counts",
    "bce_loss",
    "save_model",
    "load_model",
    "THRESHOLD",
]

#: Probability at or above which a window is called a seizure.
THRESHOLD = 0.5
_MODEL_FORMAT = "eegfusion-model"
_MODEL_VERSION = 1
#: Samples per eval-mode pass through the branches. A pass holds (G, M, T, H)
#: activations for all G branches at once, so scoring a whole dataset runs in
#: slices of about one training batch.
_EVAL_CHUNK = 16


@dataclass(frozen=True)
class ArchConfig:
    """What a run chooses of the network; the input dims come from the data."""

    scheme: int = 2
    embed_dim: int = 16
    lstm_hidden: int = 16
    lstm_layers: int = 1
    dense_sizes: tuple[int, ...] = (16,)
    seed: int = 0
    _positive = ("embed_dim", "lstm_hidden")  # a class attribute, not a field

    def __post_init__(self) -> None:
        if self.scheme not in (1, 2, 3, 4):
            raise ValueError(f"scheme must be 1..4, got {self.scheme}")
        for name in self._positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lstm_layers not in (1, 2):
            raise ValueError(f"lstm_layers must be 1 or 2, got {self.lstm_layers}")
        if any(w < 1 for w in self.dense_sizes):
            raise ValueError(f"dense_sizes must all be >= 1, got {self.dense_sizes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ModelConfig(ArchConfig):
    """An architecture and the dims of the tensors it reads."""

    n_channels: int = 4
    subwindows: int = 10
    n_bands: int = 5
    n_features: int = len(FEATURE_ORDER)
    _positive = ("n_channels", "subwindows", "n_bands", "n_features", *ArchConfig._positive)

    @property
    def tensor_shape(self) -> tuple[int, int, int, int, int]:
        return (self.n_features, self.subwindows, self.n_channels, self.n_channels, self.n_bands)


#: Layers of each scheme's branch stage and of its trunk (empty: no trunk).
_SCHEME_STAGES = {
    1: (("collapse", "lstm", "pool", "embed"), ()),
    2: (("band_mix", "collapse", "lstm", "pool", "embed"), ()),
    3: (("band_mix", "collapse"), ("feature_mix", "lstm", "pool")),
    4: (("band_mix",), ("feature_mix", "collapse", "lstm", "pool")),
}


class FusionModel:
    """One flat parameter vector plus the layer graph of the chosen scheme.

    The branches of a scheme form one stage whose layers each run once per
    batch over a leading branch axis; schemes 3 and 4 follow it with a
    one-branch trunk, and every scheme ends in a one-branch dense head.
    """

    def __init__(self, cfg: ModelConfig) -> None:
        self.cfg = cfg
        reg = ParamRegistry()
        self.registry = reg
        c, b, f = cfg.n_channels, cfg.n_bands, cfg.n_features
        d1, h = cfg.embed_dim, cfg.lstm_hidden
        make = {
            "band_mix": lambda: ContractLast(b),
            "feature_mix": lambda: ContractLast(f),
            "collapse": lambda: ContractRow(c),
            "lstm": lambda: LSTM(c, h, cfg.lstm_layers),
            "pool": lambda: AttentionPool(h),
            "embed": lambda: Dense(h, d1),
        }
        stage_names, trunk_names = _SCHEME_STAGES[cfg.scheme]
        bands = range(b) if cfg.scheme == 1 else [None]
        #: (feature, band) index pairs, one per branch; band is None unless scheme 1
        self.branches = [(fi, bi) for fi in range(f) for bi in bands]
        self.stage = [make[name]() for name in stage_names]
        reg.add_stage(len(self.branches), self.stage)
        self.trunk = [make[name]() for name in trunk_names]
        reg.add_stage(1, self.trunk)
        if trunk_names:
            self.n_embed, self.group_map = h, None
        else:
            self.n_embed = len(self.branches) * d1
            self.group_map = np.repeat([fi for fi, _ in self.branches], d1)
        widths = (self.n_embed, *cfg.dense_sizes)
        self.head = [Dense(n_in, n_out) for n_in, n_out in zip(widths, widths[1:])]
        self.head.append(Dense(widths[-1], 1, relu=False))
        reg.add_stage(1, self.head)
        self.params = reg.init_params(cfg.seed)
        self._cache: dict | None = None

    # -- structure helpers ------------------------------------------------

    @property
    def param_count(self) -> int:
        return int(self.params.size)

    def kink_margin(self) -> float:
        """Smallest |ReLU preactivation| seen in the last cached forward.

        Finite-difference gradient oracles are only valid when no ReLU
        preactivation lies within the perturbation radius of zero; this lets
        tests verify that precondition.
        """
        if self._cache is None:
            raise RuntimeError("kink_margin() requires a training-mode forward pass")
        margins = [
            float(np.abs(lc["s"]).min())
            for key in ("stage", "trunk", "head")
            for lc in self._cache[key]
            if "s" in lc
        ]
        return min(margins) if margins else np.inf

    # -- forward / backward ------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.params.dtype)
        if x.ndim != 6 or x.shape[1:] != self.cfg.tensor_shape:
            raise ValueError(
                f"input shape {x.shape} does not match (M,) + {self.cfg.tensor_shape}"
            )
        return x

    def _branch_input(self, x: np.ndarray) -> np.ndarray:
        """The batch (M, F, T, C, C, B) as the branch stage's (G, M, ...) input."""
        if self.cfg.scheme == 1:  # branch (f, b) reads x[:, f, ..., b]
            return x.transpose(1, 5, 0, 2, 3, 4).reshape((-1,) + x.shape[:1] + x.shape[2:5])
        return np.moveaxis(x, 1, 0)

    def forward_batch(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Probabilities for a batch (M, F, T, C, C, B); train mode caches
        activations for a following backward()."""
        return self._forward(x, train)[0]

    def _forward(self, x, train: bool) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities and the head's input vector (the concat embedding for
        schemes 1-2); train mode caches activations for backward()."""
        x = self._check_input(x)
        m = x.shape[0]
        theta = self.params
        cache: dict | None = {"stage": [], "trunk": [], "head": []} if train else None

        def run(layers, y, key):
            for layer in layers:
                lc = {} if cache is not None else None
                y = layer.forward(theta, y, lc)
                if cache is not None:
                    cache[key].append(lc)
            return y

        def embed(xs):
            y = run(self.stage, self._branch_input(xs), "stage")
            if self.trunk:  # stack the branch outputs on a last feature axis
                y = np.ascontiguousarray(np.moveaxis(y, 0, -1))[None]
                return run(self.trunk, y, "trunk")[0]
            return y.transpose(1, 0, 2).reshape(xs.shape[0], -1)  # branch-major concat

        # Eval passes run in slices of _EVAL_CHUNK samples. A one-sample tail
        # joins the slice before it: a one-row matmul takes numpy's gemv path,
        # which rounds differently from the gemm of a whole-batch pass.
        step = m if train else _EVAL_CHUNK
        starts = list(range(0, m - 1, step)) or [0]
        v = np.concatenate([embed(x[i:j]) for i, j in zip(starts, starts[1:] + [m])])
        z = run(self.head, v[None], "head")[0, :, 0]
        probs = _sigmoid(z)
        if cache is not None:
            cache["z"] = z
            cache["probs"] = probs
            cache["m"] = m
            self._cache = cache
        return probs, v

    def forward(self, x):
        """Eval-mode probability of one sample (F, T, C, C, B)."""
        x = np.asarray(getattr(x, "values", x), dtype=float)
        return float(self.forward_batch(x[None])[0])

    def embed_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode probabilities plus the concat embedding (schemes 1-2)."""
        if self.cfg.scheme not in (1, 2):
            raise ValueError(
                f"scheme {self.cfg.scheme} fuses features before the trunk and has "
                f"no concat embedding; feature relevance needs scheme 1 or 2"
            )
        return self._forward(x, False)

    def backward(self, labels: np.ndarray) -> np.ndarray:
        """Gradient of mean binary cross-entropy w.r.t. the flat parameters.

        Requires a preceding training-mode forward over the same batch. The
        branch stage's input is the data, so its first layer (a ContractRow
        or ContractLast) is asked for no input gradient; every parameter
        gradient is the same either way.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward() called without a training-mode forward pass")
        labels = np.asarray(labels, dtype=self.params.dtype)
        m = cache["m"]
        if labels.shape != (m,):
            raise ValueError(f"labels shape {labels.shape} != ({m},)")
        theta = self.params
        grad = np.zeros_like(theta)

        def run_back(layers, caches, g):
            for layer, lc in zip(reversed(layers), reversed(caches)):
                g = layer.backward(theta, grad, lc, g)
            return g

        gy = run_back(self.head, cache["head"], ((cache["probs"] - labels) / m)[None, :, None])
        if self.trunk:
            g = np.moveaxis(run_back(self.trunk, cache["trunk"], gy)[0], -1, 0)
        else:
            g = gy[0].reshape(m, len(self.branches), -1).transpose(1, 0, 2)
        first, *rest = self.stage
        g = run_back(rest, cache["stage"][1:], g)
        first.backward(theta, grad, cache["stage"][0], g, input_grad=False)
        return grad


def build_fusion_model(cfg: ModelConfig) -> FusionModel:
    """Construct and initialize a model for the given configuration."""
    return FusionModel(cfg)


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy computed stably from logits."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for training."""

    epochs: int = 25
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.learning_rate <= 1:  # Adam moves each weight by about this per step
            raise ValueError(f"learning_rate must lie in [0, 1], got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class _Adam:
    """Adam over one flat parameter vector. The moments and the scratch
    buffer take the parameters' dtype, and the hyperparameters stay Python
    floats, which NumPy applies in the array's dtype, so a float32 vector is
    updated in float32 throughout."""

    def __init__(self, params: np.ndarray, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._buf = np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update m, v and params in place; consumes grad as scratch.

        The operations and their order are those of the out-of-place textbook
        step, so the result is bit-identical to it.
        """
        self.t += 1
        buf, b1, b2 = self._buf, self.beta1, self.beta2
        self.m *= b1
        self.m += np.multiply(1.0 - b1, grad, out=buf)
        np.multiply(1.0 - b2, grad, out=buf)
        buf *= grad
        self.v *= b2
        self.v += buf
        m_hat = np.divide(self.m, 1.0 - b1**self.t, out=buf)
        denom = np.divide(self.v, 1.0 - b2**self.t, out=grad)
        np.sqrt(denom, out=denom)
        denom += self.eps
        m_hat *= self.lr
        m_hat /= denom
        params -= m_hat


def _stack_dataset(ds, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The inputs stacked in ``dtype`` and the labels as floats. Each window
    is cast on its own, so a float32 stack makes no float64 copy of the set."""
    if not ds:
        raise ValueError("dataset is empty")
    x = np.stack([np.asarray(t.values, dtype=dtype) for t in ds])
    y = np.array([t.label for t in ds], dtype=float)
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValueError("labels must be 0 or 1")
    return x, y


def train(m: FusionModel, train_ds, cfg: TrainConfig) -> tuple[FusionModel, list[dict]]:
    """Seeded mini-batch Adam training; returns the model and per-epoch history.

    One generator seeded with ``cfg.seed`` draws each epoch's batch order.
    Training runs in float32: the parameters and the stacked inputs are cast
    once, and the model keeps float32 parameters, the ones ``save_model``
    stores. A batch larger than the training set is a :class:`ConfigError`
    naming ``train.batch_size``.
    """
    x, y = _stack_dataset(train_ds, np.float32)
    n = x.shape[0]
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both classes")
    if cfg.batch_size > n:
        raise ConfigError(
            "train.batch_size", f"batch_size {cfg.batch_size} exceeds the {n}-window training set"
        )
    rng = np.random.default_rng(cfg.seed)
    m.params = m.params.astype(np.float32)
    opt = _Adam(m.params, cfg.learning_rate)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            probs = m.forward_batch(x[idx], train=True)
            loss = bce_loss(m._cache["z"], y[idx])
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            grad = m.backward(y[idx])
            opt.step(m.params, grad)
            loss_sum += loss * idx.size
            correct += int(((probs >= THRESHOLD) == y[idx].astype(bool)).sum())
        # "phase" stays in the history format: every run trains in one phase
        history.append(
            {
                "phase": 1,
                "epoch": epoch,
                "loss": loss_sum / n,
                "accuracy": correct / n,
            }
        )
    return m, history


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and the derived ratios; seizure is the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int
    sensitivity: float
    specificity: float
    precision: float
    accuracy: float
    undefined: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return to_json(self)


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> Metrics:
    """Sensitivity TP/(TP+FN), specificity TN/(TN+FP), precision TP/(TP+FP),
    accuracy (TP+TN)/total; a zero denominator yields 0 plus an undefined flag."""
    counts = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
    for name, v in counts.items():
        if int(v) != v or v < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {v}")
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    undefined: list[str] = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    return Metrics(
        tp=int(tp),
        fp=int(fp),
        fn=int(fn),
        tn=int(tn),
        sensitivity=ratio(tp, tp + fn, "sensitivity"),
        specificity=ratio(tn, tn + fp, "specificity"),
        precision=ratio(tp, tp + fp, "precision"),
        accuracy=(tp + tn) / total,
        undefined=tuple(undefined),
    )


def evaluate(m: FusionModel, ds) -> Metrics:
    """Confusion metrics of eval-mode predictions at THRESHOLD."""
    x, y = _stack_dataset(ds, m.params.dtype)
    preds = m.forward_batch(x) >= THRESHOLD
    actual = y.astype(bool)
    tp = int(np.sum(preds & actual))
    fp = int(np.sum(preds & ~actual))
    fn = int(np.sum(~preds & actual))
    tn = int(np.sum(~preds & ~actual))
    return metrics_from_counts(tp, fp, fn, tn)


def save_model(m: FusionModel, path, norm_stats: NormStats | None = None) -> None:
    """One JSON header line, then the flat parameters as little-endian f32."""
    header = {
        "format": _MODEL_FORMAT,
        "format_version": _MODEL_VERSION,
        "model_config": to_json(m.cfg),
        "feature_order": list(FEATURE_ORDER),
        "param_count": m.param_count,
        "norm_stats": None
        if norm_stats is None
        else {"mean": norm_stats.mean.tolist(), "std": norm_stats.std.tolist()},
    }
    blob = json.dumps(header, sort_keys=True).encode() + b"\n" + m.params.astype("<f4").tobytes()
    atomic_write_bytes(path, blob)


def load_model(path) -> tuple[FusionModel, NormStats | None]:
    """Rebuild a model (and its normalization stats) from a model file."""
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise ValueError(f"{path}: missing header line")
    try:
        header = json.loads(data[:nl])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("format") != _MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file (format {header.get('format')!r})")
    if header.get("format_version") != _MODEL_VERSION:
        raise ValueError(f"{path}: unsupported format version {header.get('format_version')!r}")
    try:
        cfg = from_json(ModelConfig, header.get("model_config"), "model_config")
    except ConfigError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for key in ("param_count", "feature_order"):
        if key not in header:
            raise ValueError(f"{path}: header has no {key!r}")
    if header["feature_order"] != list(FEATURE_ORDER):
        raise ValueError(
            f"{path}: feature_order {header['feature_order']} differs from {list(FEATURE_ORDER)}"
        )
    m = build_fusion_model(cfg)
    params = np.frombuffer(data[nl + 1 :], dtype="<f4")
    if params.size != header["param_count"] or params.size != m.param_count:
        raise ValueError(
            f"{path}: parameter payload has {params.size} floats, "
            f"expected {m.param_count}"
        )
    m.params = params.astype(np.float32)  # a writable copy, the stored weights exactly
    stats = None
    if header.get("norm_stats") is not None:
        doc, shape = header["norm_stats"], (cfg.n_features, cfg.n_bands)
        stats = NormStats(
            mean=_norm_stat(path, doc, "mean", shape), std=_norm_stat(path, doc, "std", shape)
        )
    return m, stats


def _norm_stat(path, doc, key: str, shape: tuple[int, int]) -> np.ndarray:
    """One z-scoring statistic of a model header, checked against the model dims."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: norm_stats has no {key!r}")
    try:
        value = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: norm_stats.{key} is not a numeric array: {exc}") from exc
    if value.shape != shape:
        raise ValueError(
            f"{path}: norm_stats.{key} has shape {value.shape}, expected {shape} "
            f"(features, bands)"
        )
    return value
