"""Command-line interface.

One binary, subcommand style. Configuration comes from a JSON file
(``--config``) with individual flags overriding file values. Exit codes:
0 success, 1 runtime failure (message on stderr), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .connectivity import PipelineConfig, refuse_bad_channels
from .dataset import write_dataset
from .mvar import FitDiagnostics
from .plotting import write_svg
from .relevance import load_report_json, write_report_csv, write_report_json
from .runner import (
    ConfigError,
    RunConfig,
    cut_windows,
    evaluate_stored,
    explain_stored,
    pipeline_run,
    stream_tensors,
    study_recordings,
    train_dataset,
    validate_pipeline,
)
from .signal_io import (
    load_annotations, load_recording, save_annotations, save_recording, train_test_split,
)
from .util import atomic_write_text, field_errors, from_json, read_json, to_json

__all__ = ["main"]


def _load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    return from_json(RunConfig, doc)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Flags win over config-file values; a value the section refuses names
    its field, such as ``pipeline.order`` for ``--order 0``."""
    if getattr(args, "seed", None) is not None:
        with field_errors("", RunConfig):
            cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    with field_errors("pipeline", PipelineConfig):
        if getattr(args, "order", None) is not None:
            cfg = replace(cfg, pipeline=replace(cfg.pipeline, order=args.order))
        if getattr(args, "aic", False):
            cfg = replace(cfg, pipeline=replace(cfg.pipeline, aic=True))
    if getattr(args, "scheme", None) is not None:  # argparse admits valid schemes only
        cfg = replace(cfg, model=replace(cfg.model, scheme=args.scheme))
    return cfg


@dataclass(frozen=True, kw_only=True)
class IndexEntry:
    """One indexed recording; ``csv`` and ``annotations`` are relative to the index."""

    id: str | None = None
    csv: str
    annotations: str
    fs: float
    kind: str | None = None

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError(f"fs must be positive, got {self.fs}")


@dataclass(frozen=True)
class RecordingsIndex:
    """The ``recordings.json`` that ``synth`` writes and ``extract`` reads."""

    recordings: tuple[IndexEntry, ...]


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_run_config(args.config), args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for kind, rec, ann in study_recordings(cfg):
        save_recording(rec, out / f"{rec.id}.csv")
        save_annotations(ann, out / f"{rec.id}.json")
        index.append(IndexEntry(
            id=rec.id, csv=f"{rec.id}.csv", annotations=f"{rec.id}.json", fs=rec.fs, kind=kind
        ))
    text = json.dumps(to_json(RecordingsIndex(tuple(index))), indent=2) + "\n"
    atomic_write_text(out / "recordings.json", text)
    print(f"wrote {len(index)} recordings to {out}")
    return 0


def _indexed_recordings(index_path: Path, cfg: RunConfig):
    """Load each indexed recording, checking the pipeline against it first.
    A malformed index, or an entry whose files cannot be read, is an error
    that names the index file and the entry."""
    for k, entry in enumerate(read_json(RecordingsIndex, index_path).recordings):
        try:
            rec = load_recording(index_path.parent / entry.csv, fs=entry.fs)
            ann = load_annotations(index_path.parent / entry.annotations, rec.duration_s)
        except OSError as exc:
            raise ValueError(f"{index_path}: recordings[{k}]: {exc}") from None
        validate_pipeline(cfg.pipeline, rec.fs, rec.n_channels)
        yield rec, ann


def _cmd_extract(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_run_config(args.config), args)
    index_path = Path(args.recordings)
    # every recording is loaded and checked, and every window cut, before any compute
    windows = list(cut_windows(_indexed_recordings(index_path, cfg), cfg))
    labels = sorted({w.label for w in windows})
    if len(labels) < 2:  # the recordings' fault, not the fraction's: exit 1
        raise ValueError(
            f"{index_path}: recordings: their windows have labels {labels}; "
            "the split needs both classes"
        )
    with field_errors("split.test_fraction"):  # the split that train and eval will take
        train_test_split(windows, cfg.split.test_fraction, cfg.seed)
    try:
        refuse_bad_channels(windows, cfg.pipeline.subwindows)
    except ValueError as exc:
        raise ValueError(f"{index_path}: {exc}") from None
    diag = FitDiagnostics()
    tensors = stream_tensors(windows, cfg.pipeline, diag)
    manifest = write_dataset(tensors, args.out, cfg.pipeline, cfg.split.test_fraction, cfg.seed)
    print(f"wrote {len(windows)} window tensors to {manifest}")
    warnings = to_json(diag)  # the run_manifest.json names
    if any(warnings.values()):
        print("warnings: " + ", ".join(f"{k}={v}" for k, v in warnings.items()), file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_run_config(args.config), args)
    history_path = args.history or str(args.model_out) + ".history.json"
    history = train_dataset(cfg, args.dataset, args.model_out, history_path)
    print(
        json.dumps(
            {"model": str(args.model_out), "epochs": len(history),
             "final_loss": history[-1]["loss"]}
        )
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    text = json.dumps(evaluate_stored(args.model, args.dataset), indent=2, sort_keys=True)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    print(text)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    report = explain_stored(args.model, args.dataset)
    if args.out:
        write_report_json(report, args.out)
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.csv:
        write_report_csv(report, args.csv)
    if args.svg:
        write_svg(report, args.svg)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    report = load_report_json(args.report)
    write_svg(report, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_run_config(args.config), args)
    manifest = pipeline_run(cfg)
    summary = {
        "out_dir": cfg.out_dir,
        "config_hash": manifest.config_hash,
        "test_accuracy": manifest.metrics["test"]["accuracy"] if manifest.metrics else None,
    }
    print(json.dumps(summary, indent=2))
    return 0


def _add_config_flags(p: argparse.ArgumentParser, out_help: str | None = None) -> None:
    p.add_argument("--config", help="JSON run config; flags override its values")
    p.add_argument("--seed", type=int, help="base seed override")
    if out_help:
        p.add_argument("--out", help=out_help)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, help="fixed MVAR order")
    p.add_argument("--aic", action="store_true", help="select the MVAR order by AIC")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegfusion",
        description="Connectivity-fusion seizure detection on multichannel EEG",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-class recording set")
    _add_config_flags(p, out_help="directory for recordings (default from config)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("extract", help="recordings -> window feature tensor dataset")
    p.add_argument("--recordings", required=True, help="recordings.json index file")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p)
    _add_pipeline_flags(p)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("train", help="dataset training split -> model file + training history")
    p.add_argument("--dataset", required=True, help="dataset directory or manifest path")
    p.add_argument("--model-out", required=True, help="output model file")
    p.add_argument("--history", help="history JSON path (default <model>.history.json)")
    p.add_argument("--scheme", type=int, choices=(1, 2, 3, 4), help="fusion scheme")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="model + dataset -> train/test metrics JSON on stdout")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("explain", help="model + dataset -> per-feature relevance report")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="report JSON path (default: print to stdout)")
    p.add_argument("--csv", help="also write the report as CSV")
    p.add_argument("--svg", help="also write bar charts as SVG")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("plot", help="relevance report JSON -> SVG bar chart")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("run", help="full synthetic study: synth/extract/train/eval/explain")
    _add_config_flags(p, out_help="run output directory")
    _add_pipeline_flags(p)
    p.add_argument("--scheme", type=int, choices=(1, 2, 3, 4), help="fusion scheme")
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
