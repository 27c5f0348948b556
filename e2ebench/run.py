"""End-to-end benchmark of the few-shot adaptation system.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fit --seed 0 --seconds 20 --trace 0

Workloads (see ``e2ebench/NOTES.md`` for why each exists):
``fit``, ``drift-loop``, ``serve-hot`` and ``serve-churn``.  Each run builds
its inputs from ``--seed``, sets up several times (``setup_s`` is their
median), measures for ``--seconds``, checks its outputs and prints one
line per figure, then the environment fingerprint, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` repeats the measured window with per-layer timing wrappers
installed and reports the per-layer metrics instead, including the
tracing overhead (traced minus untraced ``p50_ms``).

The exit code is 0 only when every correctness check passed and no
operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import E2E_UNITS, fingerprint, load_spec, peak_rss_mb  # noqa: E402


def _run(workload: str, seed: int, seconds: float, repeat_setup: bool,
         workdir, tracer=None):
    if workload == "fit":
        from adapt_workloads import run_fit

        return run_fit(seed, seconds, repeat_setup, tracer)
    if workload == "drift-loop":
        from adapt_workloads import run_drift

        return run_drift(seed, seconds, repeat_setup, workdir, tracer)
    from serve_workloads import run_churn, run_hot

    run = run_hot if workload == "serve-hot" else run_churn
    return run(seed, seconds, repeat_setup, workdir, tracer)


def _layers(workload, seed, seconds, workdir, untraced):
    """A traced pass of the same window; returns its Result, ``layers`` set."""
    from layers import LayerTracer, layer_metrics

    tracer = LayerTracer()
    traced = _run(workload, seed, seconds, False, workdir, tracer)
    extra = dict(traced.extra)
    extra["trace.overhead_ms"] = (traced.metrics.get("p50_ms", 0.0)
                                  - untraced.metrics.get("p50_ms", 0.0))
    traced.layers = layer_metrics(tracer, extra)
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workloads}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = _run(args.workload, args.seed, args.seconds, True, workdir)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        if args.trace:
            traced = _layers(args.workload, args.seed, args.seconds, workdir,
                             result)
            result.checks += [(f"traced: {n}", ok, d) for n, ok, d in traced.checks]
            result.failed += traced.failed
            result.layers = traced.layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for name, value in result.metrics.items():
        print(f"{args.workload}  {name:<24} {value:.6g} {E2E_UNITS[name]}")
    for name, (value, unit) in result.named.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload}  {name:<24} {shown} {unit}".rstrip())
    for name, ok, detail in result.checks:
        print(f"check  {'PASS' if ok else 'FAIL'}  {name}"
              + (f"  ({detail})" if detail else ""))
    print("env " + json.dumps(fingerprint(ROOT), sort_keys=True))

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result.layers
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = result.metrics
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            result.checks.append((f"metric {name} measured", False, ""))
            result.failed += 1
            continue
        metrics[name] = {"value": value, "unit": unit}
    correct = all(ok for _, ok, _ in result.checks)
    print(json.dumps({"correct": correct, "attempted": max(1, result.attempted),
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct and result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
