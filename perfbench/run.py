"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_study --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout this file sits in, and nothing else is used. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report (environment, per-operation facts, failures, all metrics). With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. Exit code 2 means the checkout holds no
package to measure, 1 that no operation completed.

``--write-reference`` recomputes the clinical reference fingerprints in
reference.json from the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import REFERENCE_S, HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS and OpenMP pools are pinned to one thread: one client, two cores, and
#: matrices of at most 19 x 19 or 16 x 64, where extra threads add only noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> dict:
    """Pin thread pools and clear EEGFUSION_WORKERS; return what was there."""
    before = {k: os.environ.get(k) for k in THREAD_VARS + ("EEGFUSION_WORKERS",)}
    before["cpus"] = sorted(os.sched_getaffinity(0))
    os.environ.pop("EEGFUSION_WORKERS", None)
    for k in THREAD_VARS:
        os.environ[k] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return before


def environment(seed: int, before: dict, probe) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "threads_before": {k: before[k] for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": before["cpus"],
        "pinned_cpu": probe.cpu if probe else None,
        "seed": seed,
        "EEGFUSION_WORKERS": {"before": before["EEGFUSION_WORKERS"], "during": None},
    }


def end_to_end_metrics(probe, import_span, setup_spans, op_spans) -> dict:
    """Times scaled to the reference host speed (see probe.py), and memory."""

    def scaled(spans):
        return [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in spans]

    ops = scaled(op_spans)
    return {
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "setup_s": (scaled([import_span])[0] + statistics.median(scaled(setup_spans)), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str, workdir: Path,
        probe=None, import_span=(0.0, 0.0)):
    """Run one workload; return (result dict, report lines); the result is
    None if no operation completed. Untraced runs need the running HostProbe;
    ``import_span`` is the interval of the package import, part of set-up."""
    import workloads

    wl = workloads.WORKLOADS[workload](scale, workdir)
    outcome = workloads.Outcome()
    lines = []
    if trace:
        setup_tracer, op_tracer, plain, traced, facts = workloads.run_traced(
            wl, seed, seconds, outcome
        )
        if not traced:
            return None, outcome.log
        values = workloads.per_layer_metrics(setup_tracer, op_tracer, plain, traced, facts)
        units = dict(workloads.per_layer_names())
        metrics = {name: (values[name], units[name]) for name in units}
        lines.append(f"traced pairs {len(traced)}: untraced {_fmt(plain)} s, traced {_fmt(traced)} s")
        for name, span in sorted(op_tracer.spans.items()):
            lines.append(
                f"span {name}: calls {span.calls} busy {span.busy_s:.6f} s self {span.self_s:.6f} s"
            )
        for name, span in sorted(setup_tracer.spans.items()):
            lines.append(
                f"setup span {name}: calls {span.calls} busy {span.busy_s:.6f} s self {span.self_s:.6f} s"
            )
    else:
        setup_spans, op_spans, facts = workloads.run_untraced(wl, seed, seconds, outcome)
        probe.stop()
        if not op_spans:
            return None, outcome.log
        metrics = end_to_end_metrics(probe, import_span, setup_spans, op_spans)
        lines.append(f"raw import {_raw([import_span])} s, set-up {_raw(setup_spans)} s")
        lines.append(f"raw operations {len(op_spans)}: {_raw(op_spans)} s")
        lines.append(
            f"host probe on cpu {probe.cpu}: {len(probe.samples)} samples, "
            f"trimmed mean {probe.mean_s():.6f} s, reference {REFERENCE_S} s"
        )
    for i, fact in enumerate(facts):
        lines.append(f"facts {i}: {json.dumps(fact, sort_keys=True)}")
    lines += outcome.log
    lines.append(
        f"error_rate {outcome.failed}/{outcome.attempted} = {outcome.failed / outcome.attempted:.4f}"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _raw(spans) -> str:
    return _fmt(t1 - t0 for t0, t1 in spans)


def write_reference() -> None:
    import workloads

    doc = {
        scale: workloads.ClinicalWindow(scale, HERE).reference()
        for scale in ("full", "tiny")
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("desk_study", "clinical_window", "fusion_train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input; for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "eegfusion" / "__init__.py").is_file():
        print(f"error: no eegfusion package under {SRC}", file=sys.stderr)
        return 2
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    before = prepare_environment()
    with contextlib.ExitStack() as stack:
        probe = None
        if not (args.trace or args.write_reference):
            probe = stack.enter_context(HostProbe())
        t0 = time.perf_counter()
        import eegfusion  # the first import of numpy and scipy too

        import_span = (t0, time.perf_counter())
        if Path(eegfusion.__file__).resolve().parent != SRC / "eegfusion":
            print(f"error: imported eegfusion from {eegfusion.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.write_reference:
            write_reference()
            return 0

        env = environment(args.seed, before, probe)
        scratch = ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            result, lines = run(
                args.workload, args.seed, args.seconds, bool(args.trace), args.scale, Path(tmp),
                probe, import_span,
            )
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} scale {args.scale} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    for line in lines:
        print(line)
    if result is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
