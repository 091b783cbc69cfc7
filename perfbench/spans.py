"""Per-layer spans recorded from outside the package.

``Tracer.install()`` wraps each public function listed in ``FUNCTIONS`` in
every eegfusion module namespace that holds it (the package re-exports, and
modules that imported it by name, call it through their own globals), and
wraps each method in ``METHODS`` on its class. Spans are aggregated in memory
per name as calls, busy seconds and self seconds (busy time minus the time
of the wrapped calls made inside it). Leaving the ``with`` block restores
every original object and checks that nothing stays patched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

#: Modules of the package, in dependency order; these are the layers.
MODULES = (
    "signal_io", "dsp", "mvar", "connectivity", "layers",
    "model", "relevance", "dataset", "plotting", "runner",
)

#: (module, function, span name). Several functions may share one span name.
FUNCTIONS = (
    ("signal_io", "generate_synthetic", "signal_io.generate_synthetic"),
    ("mvar", "simulate_var", "mvar.simulate_var"),
    ("dsp", "design_bandpass", "dsp.design_bandpass"),
    ("dsp", "filtfilt", "dsp.filtfilt"),
    ("dsp", "analytic_signal", "dsp.analytic_signal"),
    ("connectivity", "plv_matrix", "connectivity.plv_matrix"),
    ("mvar", "select_order", "mvar.select_order"),
    ("mvar", "fit_mvar", "mvar.fit_mvar"),
    ("mvar", "spectral_decomposition", "mvar.spectral_decomposition"),
    ("mvar", "is_stable", "mvar.is_stable"),
    ("connectivity", "band_aggregate", "connectivity.band_aggregate"),
    ("connectivity", "coherence", "connectivity.measures"),
    ("connectivity", "partial_coherence", "connectivity.measures"),
    ("connectivity", "directed_coherence", "connectivity.measures"),
    ("connectivity", "partial_directed_coherence", "connectivity.measures"),
    ("connectivity", "build_feature_tensor", "connectivity.build_feature_tensor"),
    ("model", "train", "model.train"),
    ("model", "evaluate", "model.evaluate"),
    ("model", "save_model", "model.save_model"),
    ("relevance", "relevance_report", "relevance.relevance_report"),
    ("dataset", "write_dataset", "dataset.write_dataset"),
    ("plotting", "write_svg", "plotting.write_svg"),
    ("runner", "study_windows", "runner.study_windows"),
    ("runner", "extract_tensors", "runner.extract_tensors"),
    ("runner", "validate_run_config", "runner.validate_run_config"),
)

#: The one private hook: the least-squares fit that the AIC order search
#: repeats per candidate order. Wrapped only if present, so that
#: ``mvar.select_order.fits`` counts real fits; without it the count reads 0.
OPTIONAL_FUNCTIONS = (("mvar", "_fit_core", "mvar.fit_core"),)

LAYER_CLASSES = ("LSTM", "AttentionPool", "Dense", "ContractRow", "ContractLast")

#: (module, class, method, span name).
METHODS = tuple(
    ("layers", cls, meth, f"layers.{cls}.{meth}")
    for cls in LAYER_CLASSES
    for meth in ("forward", "backward")
) + (
    ("model", "FusionModel", "forward_batch", "model.forward_batch"),
    ("model", "FusionModel", "backward", "model.backward"),
    ("model", "FusionModel", "embed_batch", "model.embed_batch"),
)

_MARK = "__perfbench_span__"


class Span:
    """Aggregate of every call recorded under one name."""

    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """In-memory span aggregates plus the counts the hooks derive."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[list] = []  # [name, child seconds] per open span

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def merge(self, other: "Tracer") -> None:
        """Add another tracer's aggregates; its distinct sets become counts."""
        for name, span in other.spans.items():
            mine = self.spans.setdefault(name, Span())
            mine.calls += span.calls
            mine.busy_s += span.busy_s
            mine.self_s += span.self_s
        for name, amount in other.counts.items():
            self.count(name, amount)
        for name, keys in other.distinct.items():
            self.count(f"{name}.distinct", len(keys))

    def parent(self) -> str | None:
        """Name of the span enclosing the currently running one."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, fn, args, kwargs, result)
                return result
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                span = tracer.spans.get(name)
                if span is None:
                    span = tracer.spans[name] = Span()
                span.calls += 1
                span.busy_s += dt
                span.self_s += dt - frame[1]

        setattr(wrapper, _MARK, name)
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Patch every listed function and method; restore all on exit."""
        modules = _package_modules()
        patched: list[tuple[object, str, object]] = []
        try:
            targets = [(m, f, s, True) for m, f, s in FUNCTIONS]
            targets += [(m, f, s, False) for m, f, s in OPTIONAL_FUNCTIONS]
            for mod_name, fn_name, span, required in targets:
                home = modules[f"eegfusion.{mod_name}"]
                if not hasattr(home, fn_name):
                    if required:
                        raise AttributeError(f"eegfusion.{mod_name} has no {fn_name}")
                    continue
                original = getattr(home, fn_name)
                wrapper = self.wrap(span, original, _HOOKS.get(span))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            for mod_name, cls_name, meth, span in METHODS:
                cls = getattr(modules[f"eegfusion.{mod_name}"], cls_name)
                original = cls.__dict__[meth]
                patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            leftovers = find_patched()
            if leftovers:
                raise RuntimeError(f"span wrappers left in place: {leftovers}")


def _package_modules() -> dict:
    for name in MODULES:
        importlib.import_module(f"eegfusion.{name}")
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "eegfusion" or name.startswith("eegfusion."))
    }


def find_patched() -> list[str]:
    """Every span wrapper still reachable from a package module or class."""
    found = []
    for mod_name, mod in _package_modules().items():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod_name:
                for meth, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{mod_name}.{attr}.{meth}")
    return found


# -- hooks: counts derived at the layer boundary -----------------------------

@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    ba = _signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _simulate_steps(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.count("mvar.simulate_var.steps", a["n_samples"] + a["burn_in"])


def _bandpass_key(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    key = (a["band"], float(a["fs"]), int(a["order"]))
    tracer.distinct.setdefault("dsp.design_bandpass", set()).add(key)


def _stability(tracer, fn, args, kwargs, result):
    if not result:
        tracer.count("mvar.is_stable.unstable")


def _fit_in_search(tracer, fn, args, kwargs, result):
    if tracer.parent() == "mvar.select_order":
        tracer.count("mvar.select_order.fits")


def _dataset_bytes(tracer, fn, args, kwargs, result):
    folder = Path(result).parent
    tracer.count(
        "dataset.write_dataset.bytes",
        sum(p.stat().st_size for p in folder.iterdir() if p.is_file()),
    )


_HOOKS = {
    "mvar.simulate_var": _simulate_steps,
    "dsp.design_bandpass": _bandpass_key,
    "mvar.is_stable": _stability,
    "mvar.fit_core": _fit_in_search,
    "dataset.write_dataset": _dataset_bytes,
}
