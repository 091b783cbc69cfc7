"""The benchmark's workloads and the closed loop that drives them.

Each workload has a set-up (input generation and warm-up, untimed per
operation), an operation (timed), and output checks. A failed check or an
exception counts the operation as failed. Inputs depend only on the seed.

    desk_study       one default ``pipeline_run`` per operation (scheme 2,
                     200 windows, C=4, fs=128); artifacts checked byte for
                     byte against the first study of the same invocation
    clinical_window  one 20 s window at C=19, fs=256 per operation: AIC
                     feature tensor, z-scoring, model forward, relevance
    fusion_train     scheme-1 ``train`` on a fixed 100-window tensor set,
                     then ``evaluate`` and ``relevance_report``
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from eegfusion import connectivity, model, mvar, relevance, runner, signal_io

from spans import LAYER_CLASSES, Tracer

#: Test accuracy every trained model must reach (acceptance criterion 8).
ACCURACY_FLOOR = 0.90
#: Relevance percentages must sum to 100 within this.
PERCENT_TOL = 1e-9
#: COH and PLV diagonals must equal 1 within this.
DIAG_TOL = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _percent_sums(classes: dict) -> None:
    for name, payload in classes.items():
        total = sum(payload["percent"].values())
        check(abs(total - 100.0) <= PERCENT_TOL, f"{name} relevance sums to {total!r}, not 100")


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def artifact_digest(out: Path) -> str:
    """Digest of every run artifact except run_manifest.json (it holds timings)."""
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run_manifest.json")
    chunks = []
    for p in files:
        chunks += [str(p.relative_to(out)).encode(), b"\0", p.read_bytes(), b"\0"]
    return _digest(*chunks)


class DeskStudy:
    """What ``eegfusion run`` users wait for: the default study, end to end."""

    name = "desk_study"
    setup_repeats = 3
    min_ops = 2  # the second study is compared byte for byte with the first

    def __init__(self, scale: str, workdir: Path) -> None:
        self.workdir = workdir
        self.sizes = {}
        if scale == "tiny":
            self.sizes = {
                "synth": runner.SynthStudyConfig(
                    n_per_class=2, windows_per_recording=4, duration_s=100.0
                ),
                "train": model.TrainConfig(epochs=10, batch_size=4),
            }

    def setup(self, seed: int):
        cfg = runner.RunConfig(seed=seed, **self.sizes)
        runner.validate_run_config(cfg)
        return {"cfg": cfg, "digests": [], "inputs": repr(cfg)}

    def op(self, state, i: int):
        out = self.workdir / f"study-{i}"
        manifest = runner.pipeline_run(dataclasses.replace(state["cfg"], out_dir=str(out)))
        return out, manifest

    def check(self, state, i: int, result) -> dict:
        out, manifest = result
        try:
            accuracy = manifest.metrics["test"]["accuracy"]
            check(accuracy >= ACCURACY_FLOOR, f"test accuracy {accuracy} < {ACCURACY_FLOOR}")
            _percent_sums(json.loads((out / "relevance.json").read_text())["classes"])
            digest = artifact_digest(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        state["digests"].append(digest)
        check(digest == state["digests"][0], f"artifacts {digest} differ from {state['digests'][0]}")
        return {
            "digest": digest,
            "test_accuracy": accuracy,
            "stages_s": manifest.timing_s,
            "jitter_events": manifest.warnings["sigma_jitter_events"],
        }


class ClinicalWindow:
    """Scoring a stream of clinical-size windows with AIC order selection."""

    name = "clinical_window"
    setup_repeats = 2
    min_ops = 2
    pcfg = connectivity.PipelineConfig(aic=True, aic_max=12)

    def __init__(self, scale: str, workdir: Path) -> None:
        self.scale = scale
        if scale == "tiny":
            self.n_channels, self.fs, self.duration_s, self.n_warm = 4, 128.0, 60.0, 1
        else:
            self.n_channels, self.fs, self.duration_s, self.n_warm = 19, 256.0, 200.0, 2

    def _windows(self, seed: int, duration_s: float):
        spec = signal_io.SynthSpec(
            kind="coupled", n_channels=self.n_channels, fs=self.fs,
            duration_s=duration_s, coupling_strength=0.08, seed=seed,
        )
        rec, ann = signal_io.generate_synthetic(spec)
        return signal_io.extract_labeled_windows(rec, ann, n_nonseizure=0)

    def setup(self, seed: int):
        windows = self._windows(seed, self.duration_s)
        warm = [
            connectivity.build_feature_tensor(w, self.pcfg, mvar.FitDiagnostics())
            for w in windows[: self.n_warm]
        ]
        stats, _ = connectivity.normalize_features(warm)
        net = model.build_fusion_model(
            model.ModelConfig(scheme=2, n_channels=self.n_channels)
        )
        inputs = _digest(*(w.samples.tobytes() for w in windows), stats.mean.tobytes())
        return {"windows": windows, "stats": stats, "model": net, "inputs": inputs}

    def op(self, state, i: int):
        window = state["windows"][i % len(state["windows"])]
        diag = mvar.FitDiagnostics()
        tensor = connectivity.build_feature_tensor(window, self.pcfg, diag)
        scaled = state["stats"].apply(tensor)
        prob = state["model"].forward(scaled)
        report = relevance.relevance_report(state["model"], [scaled])
        return tensor, prob, report, diag

    def check(self, state, i: int, result) -> dict:
        tensor, prob, report, diag = result
        v = tensor.values
        c = self.n_channels
        check(v.shape == (7, 10, c, c, 5), f"tensor shape {v.shape}")
        check(bool(np.isfinite(v).all()), "non-finite feature values")
        for name in ("COH", "PLV"):
            diag_vals = np.diagonal(v[connectivity.FEATURE_ORDER.index(name)], axis1=1, axis2=2)
            err = float(np.abs(diag_vals - 1.0).max())
            check(err <= DIAG_TOL, f"{name} diagonal off 1 by {err!r}")
        check(0.0 <= prob <= 1.0, f"probability {prob!r} outside [0, 1]")
        _percent_sums(report.to_dict()["classes"])
        return {
            "digest": _digest(v.tobytes(), np.float64(prob).tobytes()),
            "jitter_events": diag.sigma_jitter_events,
        }

    def final_check(self) -> None:
        """Fingerprint of a fixed reference window against the committed one."""
        ref = json.loads(REFERENCE_PATH.read_text())[self.scale]
        window = self._windows(ref["seed"], 20.0)[0]
        got = fingerprint(connectivity.build_feature_tensor(window, self.pcfg).values)
        want = np.array(ref["fingerprint"])
        ok = got.shape == want.shape and np.allclose(got, want, rtol=ref["rtol"], atol=ref["atol"])
        worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")
        check(ok, f"reference fingerprint off by up to {worst!r}")

    def reference(self, seed: int = 0) -> dict:
        window = self._windows(seed, 20.0)[0]
        values = connectivity.build_feature_tensor(window, self.pcfg).values
        return {"seed": seed, "rtol": 1e-9, "atol": 1e-12, "fingerprint": fingerprint(values).tolist()}


def fingerprint(values: np.ndarray) -> np.ndarray:
    """Mean and root mean square of each (feature, band) slice: 70 numbers."""
    mean = values.mean(axis=(1, 2, 3))
    rms = np.sqrt((values**2).mean(axis=(1, 2, 3)))
    return np.concatenate([mean.ravel(), rms.ravel()])


class FusionTrain:
    """Scheme-1 training on a fixed tensor set; no feature extraction timed."""

    name = "fusion_train"
    setup_repeats = 1  # extraction of 100 windows; repeating it would double the run
    min_ops = 2

    def __init__(self, scale: str, workdir: Path) -> None:
        if scale == "tiny":
            self.synth = runner.SynthStudyConfig(
                n_per_class=2, windows_per_recording=4, duration_s=100.0
            )
            self.tcfg = model.TrainConfig(epochs=10, batch_size=4)
        else:
            self.synth = runner.SynthStudyConfig(n_per_class=5)
            self.tcfg = model.TrainConfig()
        self.mcfg = model.ModelConfig(scheme=1)

    def setup(self, seed: int):
        cfg = runner.RunConfig(seed=seed, synth=self.synth)
        diag = mvar.FitDiagnostics()
        tensors = runner.extract_tensors(runner.study_windows(cfg), cfg.pipeline, diag)
        train_ds, test_ds = signal_io.train_test_split(tensors, cfg.test_fraction, seed=seed)
        stats, train_norm = connectivity.normalize_features(train_ds)
        return {
            "train": train_norm,
            "test": stats.apply_many(test_ds),
            "params": [],
            "inputs": _digest(*(t.values.tobytes() for t in tensors)),
            "jitter_events": diag.sigma_jitter_events,
        }

    def op(self, state, i: int):
        t0 = time.perf_counter()
        net, history = model.train(model.build_fusion_model(self.mcfg), state["train"], self.tcfg)
        train_s = time.perf_counter() - t0
        metrics = model.evaluate(net, state["test"])
        report = relevance.relevance_report(net, state["train"] + state["test"])
        return net, history, metrics, report, train_s

    def check(self, state, i: int, result) -> dict:
        net, history, metrics, report, train_s = result
        losses = [h["loss"] for h in history]
        check(all(np.isfinite(losses)), "non-finite training loss")
        check(metrics.accuracy >= ACCURACY_FLOOR, f"test accuracy {metrics.accuracy} < {ACCURACY_FLOOR}")
        _percent_sums(report.to_dict()["classes"])
        state["params"].append(net.params.tobytes())
        check(state["params"][-1] == state["params"][0], "trained parameters differ between runs")
        return {
            "digest": _digest(state["params"][-1]),
            "test_accuracy": metrics.accuracy,
            "train_s": train_s,
            "final_loss": losses[-1],
        }


WORKLOADS = {w.name: w for w in (DeskStudy, ClinicalWindow, FusionTrain)}


# -- the closed loop -----------------------------------------------------------

class Outcome:
    """Attempted and failed operations, with one log line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.log: list[str] = []

    def attempt(self, what: str, fn):
        """Run fn; a raise counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failed += 1
            self.log.append(f"FAILED {what}: {exc}")
        except Exception as exc:  # the program under test broke; keep measuring
            self.failed += 1
            self.log.append(f"FAILED {what}: {type(exc).__name__}: {exc}")
            self.log.append(traceback.format_exc().rstrip())
        return None


def _timed(wl, state, i):
    t0 = time.perf_counter()
    result = wl.op(state, i)
    return (t0, time.perf_counter()), result


def _setups(wl, seed: int, outcome: Outcome):
    """Repeated set-ups; every repeat must produce the same inputs."""
    spans, state = [], None
    for k in range(wl.setup_repeats):
        t0 = time.perf_counter()
        fresh = wl.setup(seed)
        spans.append((t0, time.perf_counter()))
        if state is not None:
            outcome.attempt(
                f"set-up {k} reproduces inputs",
                lambda: check(fresh["inputs"] == state["inputs"], "set-up inputs differ"),
            )
        state = fresh
    return spans, state


def run_untraced(wl, seed: int, seconds: float, outcome: Outcome):
    """Set up, then run operations until ``seconds`` pass (at least min_ops).

    Returns the (start, end) perf_counter interval of every set-up and every
    operation, and the facts of each operation that passed its checks.
    """
    setup_spans, state = _setups(wl, seed, outcome)
    spans, facts = [], []
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < seconds:
        def one():
            span, result = _timed(wl, state, i)
            spans.append(span)  # a wrong output still took this long
            return wl.check(state, i, result)

        fact = outcome.attempt(f"operation {i}", one)
        if fact is not None:
            facts.append(fact)
        i += 1
    if hasattr(wl, "final_check"):
        outcome.attempt("reference fingerprint", wl.final_check)
    return setup_spans, spans, facts


def run_traced(wl, seed: int, seconds: float, outcome: Outcome):
    """Each operation runs twice, untraced then traced; outputs must agree.

    Returns the set-up tracer, the operation tracer, both time lists and the
    per-operation facts of the traced runs.
    """
    setup_tracer, op_tracer = Tracer(), Tracer()
    tracer = Tracer()
    with tracer.install():
        state = wl.setup(seed)
    setup_tracer.merge(tracer)
    setup_tracer.count("mvar.jitter_events", state.get("jitter_events", 0))
    plain, traced, facts = [], [], []
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        def pair():
            (t0, t1), result = _timed(wl, state, i)
            dt_plain = t1 - t0
            fact_plain = wl.check(state, i, result)
            tracer = Tracer()  # distinct filter designs are counted per operation
            with tracer.install():
                (t0, t1), result = _timed(wl, state, i)
            dt_traced = t1 - t0
            op_tracer.merge(tracer)
            fact = wl.check(state, i, result)
            check(fact["digest"] == fact_plain["digest"],
                  f"traced output {fact['digest']} != untraced {fact_plain['digest']}")
            return dt_plain, dt_traced, fact

        done = outcome.attempt(f"operation pair {i}", pair)
        if done is not None:
            plain.append(done[0])
            traced.append(done[1])
            facts.append(done[2])
        i += 1
    return setup_tracer, op_tracer, plain, traced, facts


# -- metrics --------------------------------------------------------------------

#: (span, fields) reported per operation by the traced run.
SPAN_FIELDS = (
    ("signal_io.generate_synthetic", ("busy_s",)),
    ("mvar.simulate_var", ("calls", "busy_s")),
    ("dsp.design_bandpass", ("calls", "busy_s")),
    ("dsp.filtfilt", ("busy_s",)),
    ("dsp.analytic_signal", ("calls", "busy_s")),
    ("connectivity.plv_matrix", ("busy_s", "self_s")),
    ("mvar.select_order", ("calls", "busy_s")),
    ("mvar.fit_mvar", ("calls", "busy_s")),
    ("mvar.spectral_decomposition", ("calls", "busy_s")),
    ("mvar.is_stable", ("busy_s",)),
    ("connectivity.band_aggregate", ("calls", "busy_s")),
    ("connectivity.measures", ("busy_s",)),
    ("connectivity.build_feature_tensor", ("self_s",)),
) + tuple(
    (f"layers.{cls}.{meth}", ("calls", "busy_s"))
    for cls in LAYER_CLASSES
    for meth in ("forward", "backward")
) + (
    ("model.train", ("self_s",)),
    ("model.forward_batch", ("busy_s",)),
    ("model.backward", ("busy_s",)),
    ("model.embed_batch", ("busy_s",)),
    ("model.evaluate", ("busy_s",)),
    ("model.save_model", ("busy_s",)),
    ("relevance.relevance_report", ("busy_s",)),
    ("dataset.write_dataset", ("busy_s",)),
    ("plotting.write_svg", ("busy_s",)),
    ("runner.study_windows", ("busy_s",)),
    ("runner.extract_tensors", ("busy_s",)),
    ("runner.validate_run_config", ("busy_s",)),
)

#: Derived per-layer metrics and their units.
DERIVED = (
    ("mvar.simulate_var.steps", "count"),
    ("dsp.design_bandpass.unique_ratio", "ratio"),
    ("mvar.select_order.fits", "count"),
    ("mvar.unstable_share", "ratio"),
    ("mvar.jitter_events", "count"),
    ("dataset.write_dataset.bytes", "B"),
    ("layers.calls_per_batch", "count"),
    ("trace.overhead_pct", "%"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [
        (f"{span}.{field}", "count" if field == "calls" else "s")
        for span, fields in SPAN_FIELDS
        for field in fields
    ]
    return names + list(DERIVED)


def per_layer_metrics(setup_tracer, op_tracer, plain, traced, facts) -> dict:
    """Per-operation values; a layer that only runs in set-up reports the set-up."""
    n_ops = len(traced)

    def phase(span):
        if span in op_tracer.spans:
            return op_tracer, n_ops
        return setup_tracer, 1

    values = {}
    for span, fields in SPAN_FIELDS:
        tracer, per = phase(span)
        agg = tracer.spans.get(span)
        for field in fields:
            values[f"{span}.{field}"] = getattr(agg, field) / per if agg else 0.0

    tracer, per = phase("mvar.simulate_var")
    values["mvar.simulate_var.steps"] = tracer.counts.get("mvar.simulate_var.steps", 0.0) / per
    tracer, _ = phase("dsp.design_bandpass")
    calls = tracer.spans["dsp.design_bandpass"].calls if "dsp.design_bandpass" in tracer.spans else 0
    values["dsp.design_bandpass.unique_ratio"] = (
        tracer.counts.get("dsp.design_bandpass.distinct", 0.0) / calls if calls else 0.0
    )
    tracer, per = phase("mvar.select_order")
    values["mvar.select_order.fits"] = tracer.counts.get("mvar.select_order.fits", 0.0) / per
    tracer, _ = phase("mvar.is_stable")
    checks = tracer.spans["mvar.is_stable"].calls if "mvar.is_stable" in tracer.spans else 0
    values["mvar.unstable_share"] = (
        tracer.counts.get("mvar.is_stable.unstable", 0.0) / checks if checks else 0.0
    )
    jitter = [f["jitter_events"] for f in facts if "jitter_events" in f]
    values["mvar.jitter_events"] = (
        sum(jitter) / len(jitter) if jitter else setup_tracer.counts.get("mvar.jitter_events", 0.0)
    )
    tracer, per = phase("dataset.write_dataset")
    values["dataset.write_dataset.bytes"] = tracer.counts.get("dataset.write_dataset.bytes", 0.0) / per
    layer_calls = sum(
        op_tracer.spans[s].calls for s in op_tracer.spans if s.startswith("layers.")
    )
    model_calls = sum(
        op_tracer.spans[s].calls for s in ("model.forward_batch", "model.embed_batch")
        if s in op_tracer.spans
    )
    values["layers.calls_per_batch"] = layer_calls / model_calls if model_calls else 0.0
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return values
