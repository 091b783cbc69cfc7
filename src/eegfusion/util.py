"""JSON hashing and typed codec for configs and files, atomic writes and the OpenBLAS thread pin."""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import os
import types
import typing
from pathlib import Path

import numpy as np
import scipy

__all__ = [
    "ConfigError",
    "canonical_json",
    "config_hash",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_json",
    "to_json",
    "from_json",
    "field_errors",
]


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` is the dotted path of the bad entry."""

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON so equal configs hash equally."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partially written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    """:func:`atomic_write_bytes` of the UTF-8 text."""
    atomic_write_bytes(path, text.encode())


def read_json(tp, path, text=None):
    """File ``path``'s JSON document, or its part ``text``, as a ``tp`` (:func:`from_json`);
    the file is input, not config, so any error is a ``ValueError`` naming the file."""
    try:
        return from_json(tp, json.loads(Path(path).read_text() if text is None else text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ValueError(f"{path}: {exc}") from None


def to_json(obj):
    """JSON form of a dataclass: nested dataclasses become objects keyed by
    field name, tuples become lists, dicts map their values, the rest stays."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj


_SCALARS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per dataclass


def from_json(tp, doc, path: str = ""):
    """Build a value of type ``tp`` from its JSON form, checking every type.

    ``tp`` is a dataclass (absent fields take their defaults, unknown ones
    are refused), ``tuple[X, ...]``, ``dict[str, X]``, ``X | None``, bool,
    int, float or str. A bool never passes for a number; an int passes
    for a float and is kept as given, so a config hashes the same after a
    round trip. NaN and infinities, which Python's JSON parser
    accepts, do not pass for a number. Each error is a :class:`ConfigError`
    naming the dotted path below ``path``, such as ``pipeline.bands[0].low_hz``;
    a ``ValueError`` from a dataclass's own checks is named by :func:`field_errors`.
    """
    where = path or "<root>"
    if tp in _SCALARS:
        allowed = (int, float) if tp is float else (tp,)
        bad = not isinstance(doc, allowed) or (isinstance(doc, bool) and tp is not bool)
        if bad or (tp is float and not math.isfinite(doc)):
            raise ConfigError(where, f"must be {_SCALARS[tp]}, got {doc!r}")
        return doc
    if dataclasses.is_dataclass(tp):
        if not isinstance(doc, dict):
            raise ConfigError(where, "must be a JSON object")
        hints = _type_hints(tp)
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        prefix = f"{path}." if path else ""
        for tag in ("format", "format_version"):  # a file of another kind or version: its tag first
            if tag in fields and doc.get(tag, fields[tag].default) != fields[tag].default:
                raise ConfigError(prefix + tag, f"must be {fields[tag].default!r}, got {doc[tag]!r}")
        for key in doc:
            if key not in fields:
                raise ConfigError(prefix + key, "unknown field")
        for name, f in fields.items():
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if required and name not in doc:
                raise ConfigError(prefix + name, "required field is missing")
        kwargs = {key: from_json(hints[key], value, prefix + key) for key, value in doc.items()}
        with field_errors(path, tp):
            return tp(**kwargs)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if doc is None else from_json(args[0], doc, path)
    if origin is tuple:
        if not isinstance(doc, list):
            raise ConfigError(where, "must be a list")
        return tuple(from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(doc))
    if origin is dict:
        if not isinstance(doc, dict):
            raise ConfigError(where, "must be a JSON object")
        return {key: from_json(args[1], v, f"{path}.{key}") for key, v in doc.items()}
    raise TypeError(f"{where}: config fields of type {tp!r} are not supported")


@contextlib.contextmanager
def field_errors(path: str, tp=None):
    """Run a check of the config entry at ``path``: a ``ValueError`` it
    raises becomes a :class:`ConfigError`. When the check is dataclass
    ``tp``'s own, a message that leads with one of ``tp``'s field names, such
    as "order must be >= 1, got 0", names that field below ``path``
    (``pipeline.order: must be >= 1, got 0``); any other message names
    ``path`` itself."""
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if tp is not None and rest and name in {f.name for f in dataclasses.fields(tp)}:
            raise ConfigError(f"{path}.{name}" if path else name, rest) from exc
        raise ConfigError(path or "<root>", str(exc)) from exc


@functools.cache
def _openblas_thread_calls() -> tuple:
    """The (get, set) thread-count calls of the OpenBLAS builds that the
    numpy and scipy wheels bundle, or () unless both are found."""
    calls = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = sorted((Path(pkg.__file__).parents[1] / f"{pkg.__name__}.libs").glob("libscipy_openblas*"))
        try:
            lib = ctypes.CDLL(str(libs[0]))
            get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}") for op in ("get", "set"))
        except (IndexError, OSError, AttributeError):
            return ()
        set_.argtypes, set_.restype = [ctypes.c_int], None  # get returns ctypes' default c_int
        calls.append((get, set_))
    return tuple(calls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block, or the decorated function, with one thread in each
    bundled OpenBLAS, then restore the counts they had. Feature extraction
    runs under it: C=19 features differ in bytes between one and two
    threads. Where the libraries are not found it does nothing (the
    manifest's ``threads.pinned`` reads false)."""
    calls = _openblas_thread_calls()
    old = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(calls, old):
            set_(n)
