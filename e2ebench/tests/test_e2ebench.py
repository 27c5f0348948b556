"""Tests of the benchmark itself (not of the program it measures).

Run from the checkout root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from common import E2E_UNITS, chunked, load_spec, tail  # noqa: E402
from layers import LAYER_UNITS, LayerTracer, layer_metrics  # noqa: E402
from loadgen import make_requests, open_loop, poisson_offsets  # noqa: E402

SPEC = load_spec()


# -- inputs come from the seed and only the seed ------------------------------


def _fit(seed):
    from adapt_workloads import fit_inputs

    data = fit_inputs(seed)
    return [data["bench"].X_source, data["X_few"], data["X_few2"], data["X_test"]]


def _drift(seed):
    from adapt_workloads import drift_stream

    return [batch for stream in drift_stream(seed)["streams"] for batch in stream]


def _hot(seed):
    from serve_workloads import hot_schedule

    X = np.arange(64 * 70, dtype=np.float64).reshape(64, 70)
    (offsets, is_low, requests), ladder = hot_schedule(seed, 3.0, X, ["a", "b", "c"])
    phases = [(offsets, requests)] + [(o, r) for _, o, r in ladder]
    return [is_low.astype(float)] + [np.asarray(o) for o, _ in phases] + [
        np.asarray([ord(t) for t, _ in reqs]) for _, reqs in phases
    ] + [rows for _, reqs in phases for _, rows in reqs]


def _churn(seed):
    from serve_workloads import churn_requests

    X = np.arange(64 * 70, dtype=np.float64).reshape(64, 70)
    lists = churn_requests(seed, X, [f"t{i}" for i in range(16)])
    return [np.asarray([int(t[1:]) for t, _ in reqs]) for reqs in lists] + [
        rows for reqs in lists for _, rows in reqs[:200]
    ]


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
    )


@pytest.mark.parametrize("make", [_fit, _drift, _hot, _churn],
                         ids=["fit", "drift-loop", "serve-hot", "serve-churn"])
def test_seed_determines_inputs(make):
    assert _same(make(3), make(3))
    assert not _same(make(3), make(4))


# -- names and units agree with BENCHMARK.json --------------------------------


def test_end_to_end_names_and_units_match_spec():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == E2E_UNITS


def test_per_layer_names_and_units_match_spec():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == LAYER_UNITS
    assert set(layer_metrics(LayerTracer(), {})) == set(declared)


def test_tracer_restores_wrapped_functions():
    from repro.core.feature_separation import FeatureSeparator
    from repro.serve.batcher import PaddedExecutor

    before = (FeatureSeparator.fit, PaddedExecutor.score)
    with LayerTracer():
        assert FeatureSeparator.fit is not before[0]
    assert (FeatureSeparator.fit, PaddedExecutor.score) == before


def test_command_reports_spec_metrics_and_checks(tmp_path):
    """The cheapest workload end to end: last line is the result object."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve-hot",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("check  PASS  replay") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "blas_vendor", "blas_threads", "numpy", "scipy",
            "python", "git_commit"} <= set(env)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# -- the open-loop load generator -------------------------------------------


class _Done:
    def __init__(self, seq):
        self.seq = seq

    def result(self, timeout=None):
        return np.zeros((1, 2))


def test_stall_is_charged_to_the_requests_due_during_it():
    """A 200 ms stall inside one submit delays every request due during it;
    timing from the due time charges that wait to each of them."""
    offsets = np.arange(40) * 0.01  # one request every 10 ms
    stall_at, stall = 10, 0.2
    calls = []

    def submit(tenant, X):
        calls.append(tenant)
        if len(calls) == stall_at + 1:
            time.sleep(stall)
        return _Done(len(calls) - 1)

    requests = [("t", np.zeros((1, 2)))] * len(offsets)
    out = open_loop(submit, requests, offsets)
    assert out["failed"] == 0 and len(out["latency"]) == len(offsets)
    lat, late = out["latency"], out["late"]
    # the request sent right after the stall was due 10 ms into it
    assert late[stall_at + 1] >= stall - 0.02
    assert lat[stall_at + 1] >= stall - 0.02
    # requests due during the stall each carry their remaining share of it
    for i in range(stall_at + 1, stall_at + 15):
        remaining = stall - (offsets[i] - offsets[stall_at])
        assert lat[i] >= remaining - 0.02
    # requests well before the stall were not charged
    assert lat[:stall_at].max() < 0.05


def test_schedule_is_poisson_at_the_offered_rate():
    rng = np.random.default_rng(0)
    offsets = poisson_offsets(500.0, 4.0, rng)
    assert np.all(np.diff(offsets) > 0) and offsets[-1] < 4.0
    assert abs(len(offsets) / 4.0 - 500.0) < 50.0
    reqs = make_requests(np.zeros((50, 3)), ["a", "b"], 300, rng)
    assert {r.shape[0] for _, r in reqs} == set(range(1, 9))


def test_tail_needs_ten_samples_beyond_the_percentile():
    values = np.arange(1, 201, dtype=float)
    assert tail(values, 95) == (pytest.approx(190.05), "p95 of 200")
    assert tail(values[:50], 95) == (50.0, "max of 50")


def test_chunked_tail_confines_a_burst_to_its_chunk():
    rng = np.random.default_rng(0)
    calm = rng.uniform(4.0, 6.0, size=1000)
    burst = calm.copy()
    burst[100:160] = 50.0  # one stall burst inside the first chunk
    assert tail(burst, 95)[0] == 50.0
    value, label = chunked(burst, 95, 95)
    assert value < 6.0 and label.startswith("median p95 of 5 chunks")
    assert chunked(calm[:300], 95, 95)[1] == "p95 of 300"
