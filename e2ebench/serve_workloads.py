"""The serving workloads: ``serve-hot`` (3 hot tenants, open-loop Poisson
in-process) and ``serve-churn`` (16 tenants over HTTP behind an 8-plan
cache, closed loop)."""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from common import TAIL_PCT, Result, chunked, median, percentile, timed_setups
from loadgen import closed_loop_http, make_requests, open_loop, poisson_offsets

#: tenant adapters keep the preset's plan shapes (MLP and cGAN widths) but
#: train briefly: serving cost depends on shapes, not on training length
TRAIN_EPOCHS = 2
#: serve-hot offered rates (requests/s) and the max_rps ladder
LOW_RPS, HIGH_RPS = 200.0, 1000.0
LADDER_RPS = (1000.0, 2000.0, 4000.0, 6000.0, 8000.0, 12000.0, 16000.0)
#: share of the window at the low rate, the high rate and on the ladder,
#: and how many alternating low/high rounds the fixed-rate share is cut into
LOW_SHARE, HIGH_SHARE, LADDER_SHARE = 0.4, 0.3, 0.3
ROUNDS = 5
#: requests per tenant replayed from the fixed-rate traffic (a seq prefix
#: covering the first low round and most of the first high round)
REPLAY_PER_TENANT = 300
#: latency limit a ladder rate must meet at TAIL_PCT
LIMIT_MS = 25.0
#: serve-churn tenants and keep-alive clients
CHURN_TENANTS, CHURN_CLIENTS = 16, 2


def _tenant_root(seed: int, n_tenants: int, root, fresh_fs: bool) -> dict:
    """Write ``n_tenants`` distinct adapter artifacts under ``root``.

    With ``fresh_fs`` each tenant is ``refit_adapter`` on its own few-shot
    draw (FS and cGAN differ); otherwise only the cGAN is retrained with a
    tenant-specific seed (same variant set, distinct weights and hashes).
    """
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.core.artifacts import save_artifact
    from repro.experiments.presets import get_preset
    from repro.experiments.runner import make_benchmark
    from repro.ml import MLPClassifier

    preset = get_preset("smoke")
    bench = make_benchmark("5gc", preset, random_state=seed)
    X_few, *_ = bench.few_shot_split(10, random_state=seed)
    pipeline = FSGANPipeline(
        lambda: MLPClassifier(epochs=TRAIN_EPOCHS, random_state=seed),
        reconstruction_config=ReconstructionConfig(
            strategy="gan", epochs=TRAIN_EPOCHS,
            noise_dim=preset.gan_noise_dim, hidden_size=preset.gan_hidden,
        ),
        random_state=seed,
    ).fit(bench.X_source, bench.y_source, X_few)
    root.mkdir(parents=True, exist_ok=True)
    tenants, variant_sets = [], set()
    for i in range(n_tenants):
        if fresh_fs:
            draw, *_ = bench.few_shot_split(10, random_state=seed * 1000 + i + 1)
            pipeline.refit_adapter(draw)
        else:
            pipeline.random_state = seed * 1000 + i + 1
            pipeline.refit_reconstruction()
        name = f"tenant-{i:02d}"
        save_artifact(pipeline, root / f"{name}.npz")
        tenants.append(name)
        variant_sets.add(tuple(int(j) for j in pipeline.separator_.variant_indices_))
    return {"root": root, "tenants": tenants, "X": bench.X_target,
            "distinct_variant_sets": len(variant_sets)}


def _replay(root, capture, per_tenant: int | None = None) -> float:
    """``replay_capture`` of the capture, or of each tenant's first
    ``per_tenant`` requests (a seq prefix, which replay accepts)."""
    from repro.experiments.loadgen import replay_capture
    from repro.serve.daemon import DaemonConfig

    if per_tenant is not None:
        capture = [c for c in capture if c[1] < per_tenant]
    return replay_capture(root, capture,
                          micro_batch_rows=DaemonConfig().micro_batch_rows)


def _cache_counts(daemon) -> dict:
    stats = daemon.cache.stats()
    return {k: stats[k] for k in ("hits", "misses", "reloads")}


def _warm_up(daemon, tenants, X) -> list:
    """One request per tenant before the window: plans load, results kept
    so the replay sees every request since the daemon started."""
    capture = []
    for tenant in tenants:
        pending = daemon.submit(tenant, X[:1])
        capture.append((tenant, pending.seq, X[:1], pending.result(30.0)))
    return capture


def hot_schedule(seed: int, seconds: float, X, tenants) -> tuple:
    """serve-hot's inputs: the fixed-rate schedule and the ladder.

    The fixed-rate part alternates ``ROUNDS`` times between the low and the
    high rate, so a burst of host noise lands in one round instead of in a
    whole rate's figures.  Returns ``((offsets, is_low, requests), ladder)``
    with ``ladder`` a list of ``(rate, offsets, requests)``.
    """
    rng = np.random.default_rng([seed, 1])
    offsets, is_low, t = [], [], 0.0
    for _ in range(ROUNDS):
        for rate, share, low in ((LOW_RPS, LOW_SHARE, True),
                                 (HIGH_RPS, HIGH_SHARE, False)):
            length = share * seconds / ROUNDS
            part = t + poisson_offsets(rate, length, rng)
            offsets.append(part)
            is_low += [low] * len(part)
            t += length
    fixed = (np.concatenate(offsets), np.array(is_low),
             make_requests(X, tenants, len(is_low), rng))
    rung = LADDER_SHARE * seconds / len(LADDER_RPS)
    ladder = []
    for rate in LADDER_RPS:
        part = poisson_offsets(rate, rung, rng)
        ladder.append((rate, part, make_requests(X, tenants, len(part), rng)))
    return fixed, ladder


def churn_requests(seed: int, X, tenants) -> list:
    """Per-client request lists, sized beyond what a window can consume."""
    rng = np.random.default_rng([seed, 2])
    return [make_requests(X, tenants, 20000, rng) for _ in range(CHURN_CLIENTS)]


def _phase(data, offsets, requests, tracer, capture: bool = False) -> dict:
    """One open-loop run against a freshly started in-process daemon;
    ``tracer`` (if any) covers its measured window only."""
    from repro.serve.daemon import DaemonConfig, ServeDaemon

    with ServeDaemon(DaemonConfig(root=str(data["root"]), port=None)) as daemon:
        warm = _warm_up(daemon, data["tenants"], data["X"])
        before = _cache_counts(daemon)
        with tracer or nullcontext():
            out = open_loop(daemon.submit, requests, offsets, capture=capture)
        after = _cache_counts(daemon)
    out["capture"] = warm + out["capture"]
    out["cache"] = {k: after[k] - before[k] for k in after}
    return out


def _latency_stats(latency_s) -> dict:
    """p50 and the tail (medians over chunks) of answered requests,
    plus the median of the last quarter (a growing backlog shows there)."""
    lat = 1e3 * latency_s[~np.isnan(latency_s)]
    if not lat.size:
        inf = float("inf")
        return {"p50": inf, "tail": inf, "label": "no answers", "last": inf}
    p50, _ = chunked(lat, 50.0, TAIL_PCT)
    tail_ms, label = chunked(lat, TAIL_PCT, TAIL_PCT)
    return {"p50": p50, "tail": tail_ms, "label": label,
            "last": median(lat[-max(1, lat.size // 4):])}


def run_hot(seed: int, seconds: float, repeat_setup: bool, workdir,
            tracer=None) -> Result:
    res = Result()
    data, res.metrics["setup_s"] = timed_setups(
        lambda: _tenant_root(seed, 3, workdir / "tenants", fresh_fs=True),
        repeat_setup)
    (offsets, is_low, requests), ladder_plan = hot_schedule(
        seed, seconds, data["X"], data["tenants"])
    fixed = _phase(data, offsets, requests, tracer, capture=True)
    # traced layers describe the fixed-rate rounds that p50_ms/tail_ms time
    ladder = [(rate, _phase(data, part, reqs, None))
              for rate, part, reqs in ladder_plan]
    phases = [fixed] + [p for _, p in ladder]
    res.attempted = sum(p["sent"] for p in phases)
    res.failed = sum(p["failed"] for p in phases)
    low = _latency_stats(fixed["latency"][is_low])
    high = _latency_stats(fixed["latency"][~is_low])
    res.metrics["p50_ms"] = low["p50"]
    res.metrics["tail_ms"] = low["tail"]
    res.name("tail_ms.percentile", low["label"], "")
    res.name("p50_ms.high", high["p50"], "ms")
    res.name("tail_ms.high", high["tail"], f"ms ({high['label']})")
    passing = []
    for rate, p in ladder:
        stats = _latency_stats(p["latency"])
        if p["failed"] == 0 and max(stats["tail"], stats["last"]) <= LIMIT_MS:
            passing.append(rate)
        res.name(f"ladder.{rate:g}", stats["tail"],
                 f"ms p{TAIL_PCT:g}, last-quarter p50 {stats['last']:.2f} ms, "
                 f"gen late p99 {1e3 * percentile(p['late'], 99):.2f} ms")
    res.name("max_rps", max(passing, default=0.0),
             f"1/s (p{TAIL_PCT:g} and last-quarter p50 <= {LIMIT_MS:g} ms)")
    res.name("distinct_variant_sets", data["distinct_variant_sets"], "count")
    cache = {k: sum(p["cache"][k] for p in phases) for k in fixed["cache"]}
    res.extra = {
        "serve.gen_late_ms": 1e3 * percentile(fixed["late"], 99),
        "serve.cache_hit_ratio": cache["hits"] / max(1, sum(cache.values())),
    }
    diff = _replay(data["root"], fixed["capture"], REPLAY_PER_TENANT)
    res.check("replay of coalesced fixed-rate traffic is bit-identical",
              diff == 0.0, f"max_abs_diff {diff!r}")
    res.check("every request answered", res.failed == 0,
              "; ".join(sum((p["errors"] for p in phases), [])))
    return res


def run_churn(seed: int, seconds: float, repeat_setup: bool, workdir,
              tracer=None) -> Result:
    from repro.serve.daemon import DaemonConfig, ServeDaemon

    res = Result()
    data, res.metrics["setup_s"] = timed_setups(
        lambda: _tenant_root(seed, CHURN_TENANTS, workdir / "tenants",
                             fresh_fs=False), repeat_setup)
    lists = churn_requests(seed, data["X"], data["tenants"])
    warm = [[(t, data["X"][:1]) for t in data["tenants"]]]
    with ServeDaemon(DaemonConfig(root=str(data["root"]))) as daemon:
        host, port = daemon.http.host, daemon.http.port
        warmed = closed_loop_http(host, port, warm, 60.0)
        before = _cache_counts(daemon)
        with tracer or nullcontext():
            t0 = time.perf_counter()
            out = closed_loop_http(host, port, lists, seconds)
            window = time.perf_counter() - t0
        after = _cache_counts(daemon)
    hits = (after["hits"] - before["hits"]) / max(
        1, sum(after.values()) - sum(before.values()))
    lat = 1e3 * out["latency"]
    res.attempted = len(lat) + out["failed"]
    res.failed = out["failed"] + warmed["failed"]
    res.metrics["p50_ms"] = median(lat)
    res.metrics["tail_ms"], label = chunked(lat, TAIL_PCT, TAIL_PCT)
    rows = sum(X.shape[0] for _, _, X, _ in out["capture"])
    res.name("tail_ms.percentile", label, "")
    res.name("rows_per_s", rows / window, "1/s")
    res.name("requests_per_s", len(lat) / window, "1/s")
    res.name("cache_hit_ratio", hits, "ratio")
    res.extra = {"serve.cache_hit_ratio": hits}
    if tracer is not None:
        split = tracer.request_split()
        http_ms = [1e3 * (lat_s - sum(split[(t, s)]))
                   for t, s, lat_s in out["keyed"] if (t, s) in split]
        res.extra["serve.http_ms"] = median(http_ms) if http_ms else 0.0
    diff = _replay(data["root"], warmed["capture"] + out["capture"])
    res.check("replay across evictions and reloads is bit-identical",
              diff == 0.0, f"max_abs_diff {diff!r}")
    res.check("every request answered", res.failed == 0,
              "; ".join(out["errors"] + warmed["errors"]))
    return res

